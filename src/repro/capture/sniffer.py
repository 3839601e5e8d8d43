"""The capture point: a sniffer attached to the simulator's interface."""

from __future__ import annotations

from typing import Optional

from repro.netsim.packet import FlowSegment, Packet, PacketBatch
from repro.netsim.simulator import NetworkSimulator
from repro.capture.trace import PacketTrace

__all__ = ["Sniffer"]


class Sniffer:
    """Records every packet crossing the test computer's interface.

    Attached to a simulator, it receives every emission from the moment it
    is built; :meth:`reset` drops what it captured so far.
    """

    def __init__(self, simulator: Optional[NetworkSimulator] = None) -> None:
        self.trace = PacketTrace()
        if simulator is not None:
            simulator.add_sniffer(self)

    def __call__(self, packet: Packet) -> None:
        """Per-packet callback: record one packet.

        The simulator itself delivers every emission through
        :meth:`accept_batch` or :meth:`accept_flow`; this form serves callers
        that hold :class:`Packet` records.
        """
        self.trace.append(packet)

    def accept_batch(self, batch: PacketBatch) -> None:
        """Batch callback: record a connection operation's packets column-wise."""
        self.trace.extend_batch(batch)

    def accept_flow(self, segment: FlowSegment) -> None:
        """Flow callback: record an elided bulk-transfer segment whole."""
        self.trace.extend_flow(segment)

    def reset(self) -> None:
        """Drop the captured trace; keep capturing."""
        self.trace = PacketTrace()

"""The capture point: a sniffer attached to the simulator's interface."""

from __future__ import annotations

from typing import Optional

from repro.netsim.packet import FlowSegment, Packet, PacketBatch
from repro.netsim.simulator import NetworkSimulator
from repro.capture.trace import PacketTrace

__all__ = ["Sniffer"]


class Sniffer:
    """Records every packet crossing the test computer's interface.

    The sniffer can be paused/resumed and supports *marks*: named timestamps
    (e.g. "files modified") that later analysis uses as reference points, the
    same way the paper's testing application logs when it manipulates files.
    """

    def __init__(self, simulator: Optional[NetworkSimulator] = None) -> None:
        self.trace = PacketTrace()
        self.marks: dict[str, float] = {}
        self._capturing = True
        self._simulator = simulator
        if simulator is not None:
            simulator.add_sniffer(self)

    def __call__(self, packet: Packet) -> None:
        """Per-packet callback: record one packet.

        The simulator itself delivers every emission through
        :meth:`accept_batch` or :meth:`accept_flow`; this form serves callers
        that hold :class:`Packet` records.
        """
        if self._capturing:
            self.trace.append(packet)

    def accept_batch(self, batch: PacketBatch) -> None:
        """Batch callback: record a connection operation's packets column-wise."""
        if self._capturing:
            self.trace.extend_batch(batch)

    def accept_flow(self, segment: FlowSegment) -> None:
        """Flow callback: record an elided bulk-transfer segment whole."""
        if self._capturing:
            self.trace.extend_flow(segment)

    # ------------------------------------------------------------------ #
    # Capture control
    # ------------------------------------------------------------------ #
    def pause(self) -> None:
        """Stop recording packets (already captured packets are kept)."""
        self._capturing = False

    def resume(self) -> None:
        """Resume recording packets."""
        self._capturing = True

    @property
    def capturing(self) -> bool:
        """True while packets are being recorded."""
        return self._capturing

    def reset(self) -> None:
        """Drop the captured trace and all marks; keep capturing."""
        self.trace = PacketTrace()
        self.marks = {}

    def detach(self) -> None:
        """Detach from the simulator (no further packets will be seen)."""
        if self._simulator is not None:
            self._simulator.remove_sniffer(self)
            self._simulator = None

    # ------------------------------------------------------------------ #
    # Marks
    # ------------------------------------------------------------------ #
    def mark(self, label: str, timestamp: float) -> None:
        """Record a named reference timestamp (e.g. when files were modified)."""
        self.marks[label] = timestamp

    def mark_now(self, label: str) -> None:
        """Record a named mark at the simulator's current time."""
        if self._simulator is None:
            raise ValueError("mark_now() requires an attached simulator")
        self.marks[label] = self._simulator.now

    def get_mark(self, label: str) -> Optional[float]:
        """Return the timestamp of a mark, or ``None`` if absent."""
        return self.marks.get(label)

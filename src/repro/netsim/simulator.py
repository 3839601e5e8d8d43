"""The network simulator facade: clock, event queue, connections and sniffers."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.netsim.clock import SimClock
from repro.netsim.endpoint import CLIENT_ENDPOINT, Endpoint
from repro.netsim.events import EventQueue, ScheduledEvent
from repro.netsim.link import NetworkPath
from repro.netsim.packet import FlowSegment, Packet, PacketBatch
from repro.netsim.tcp import TCPConnection
from repro.netsim.tls import TLSParameters
from repro.obs.tracer import current_tracer

__all__ = ["NetworkSimulator"]


class NetworkSimulator:
    """Owns simulated time, background events and packet distribution.

    A single simulator instance corresponds to the paper's test computer: it
    has one network interface (one client endpoint) from which connections
    are opened to the cloud, and the sniffers attached to it see every packet
    crossing that interface — exactly the capture point of the testbed.
    """

    def __init__(self) -> None:
        self.client: Endpoint = CLIENT_ENDPOINT
        self.clock = SimClock()
        #: The tracer active at construction time (the per-cell tracer when a
        #: traced campaign built this simulator, else the zero-cost null
        #: tracer).  Captured once so the hot paths below never do a lookup.
        self.tracer = current_tracer()
        self.trace_track = self.tracer.register_track("sim") if self.tracer.enabled else 0
        self.events = EventQueue(tracer=self.tracer)
        self._sniffers: List[Callable[[Packet], None]] = []
        self._next_connection_id = 1
        self._next_ephemeral_port = 49152
        self._dispatching_events = False
        #: Optional ``(path, hostname) -> path`` transform applied to every
        #: connection's network path — the scenario layer's injection point
        #: (see :meth:`repro.netsim.scenario.ScenarioSpec.bind`).  ``None``
        #: leaves paths untouched.
        self.path_warp: Optional[Callable[[NetworkPath, str], NetworkPath]] = None

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    def schedule_in(self, delay: float, callback: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError("cannot schedule an event in the past")
        return self.events.schedule(self.now + delay, callback, label=label)

    def run_until(self, timestamp: float) -> None:
        """Advance simulated time to ``timestamp``, firing due background events.

        Events may themselves perform network operations; those advance the
        clock directly and any extra events they schedule are processed in
        turn, as long as they are due before ``timestamp``.
        """
        if timestamp < self.now:
            raise SimulationError("run_until() cannot move time backwards")
        if self._dispatching_events:
            # A background callback is already being dispatched; just move time.
            self.clock.advance_to(timestamp)
            return
        self._dispatching_events = True
        try:
            while True:
                event = self.events.pop_due(timestamp)
                if event is None:
                    break
                if event.cancelled:
                    continue
                self.clock.advance_to(event.fire_at)
                event.callback()
            self.clock.advance_to(timestamp)
        finally:
            self._dispatching_events = False

    def run_for(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds, firing due events."""
        self.run_until(self.now + duration)

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #
    def open_connection(
        self,
        remote: Endpoint,
        path: NetworkPath,
        *,
        tls: Optional[TLSParameters] = None,
        handshake: bool = True,
    ) -> TCPConnection:
        """Open a connection from the test computer to ``remote`` over ``path``.

        When ``handshake`` is true (default) the TCP — and, if ``tls`` is
        given, TLS — handshakes are performed immediately, advancing the
        clock and emitting the corresponding packets.

        With a :attr:`path_warp` installed the connection rides the warped
        path: this is where a network scenario overlays its RTT/bandwidth/
        loss/jitter conditions on every path a client opens.
        """
        if self.path_warp is not None:
            path = self.path_warp(path, remote.hostname)
        connection = TCPConnection(
            simulator=self,
            local=self.client,
            remote=remote,
            path=path,
            connection_id=self._next_connection_id,
            local_port=self._next_ephemeral_port,
            tls=tls,
        )
        self._next_connection_id += 1
        self._next_ephemeral_port += 1
        if self._next_ephemeral_port > 65535:
            self._next_ephemeral_port = 49152
        if handshake:
            connection.connect()
        return connection

    # ------------------------------------------------------------------ #
    # Packet distribution
    # ------------------------------------------------------------------ #
    def add_sniffer(self, sniffer: Callable[[Packet], None]) -> None:
        """Register a callable that receives every emitted packet."""
        self._sniffers.append(sniffer)

    def emit_batch(self, batch: PacketBatch) -> None:
        """Deliver a column-oriented batch of packets to every sniffer.

        Every packet leaves through here or :meth:`emit_flow`: each
        connection operation (connect, send, request, close) is one batch.
        Column-aware sniffers (anything exposing ``accept_batch``, like
        :class:`~repro.capture.sniffer.Sniffer`) receive the batch whole;
        plain per-packet callables get it materialized once and replayed
        packet by packet, preserving the observable order.
        """
        if self.tracer.enabled:
            self.tracer.count("netsim.packets", len(batch.timestamps))
            self.tracer.count(
                "netsim.wire_bytes", sum(batch.payload_lens) + sum(batch.headers_lens)
            )
        materialized = None
        for sniffer in self._sniffers:
            accept = getattr(sniffer, "accept_batch", None)
            if accept is not None:
                accept(batch)
            else:
                if materialized is None:
                    materialized = batch.packets()
                for packet in materialized:
                    sniffer(packet)

    def emit_flow(self, segment: FlowSegment) -> None:
        """Deliver an elided flow segment whole to every sniffer.

        Flow-aware sniffers (anything exposing ``accept_flow``) receive the
        segment itself; batch-aware and plain per-packet sniffers get the
        segment expanded once — the packet counter stays coherent either way
        because it is derived from the segment's record count.
        """
        if self.tracer.enabled:
            self.tracer.count("netsim.packets", segment.record_count)
            self.tracer.count("netsim.wire_bytes", segment.payload_bytes + segment.header_bytes)
            self.tracer.count("netsim.flow_segments")
        materialized = None
        for sniffer in self._sniffers:
            accept = getattr(sniffer, "accept_flow", None)
            if accept is not None:
                accept(segment)
                continue
            accept_batch = getattr(sniffer, "accept_batch", None)
            if accept_batch is not None:
                accept_batch(segment.batch())
                continue
            if materialized is None:
                materialized = segment.packets()
            for packet in materialized:
                sniffer(packet)

"""Network path model: RTT and asymmetric capacity to a given destination."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.units import mbps

__all__ = ["NetworkPath"]


@dataclass(frozen=True)
class NetworkPath:
    """Characteristics of the path between the test computer and one server.

    Attributes
    ----------
    rtt:
        Base round-trip time in seconds (e.g. ``0.160`` for SkyDrive from the
        paper's European vantage point, ``0.015`` for Google Drive's nearby
        edge node).
    uplink_bps / downlink_bps:
        Bottleneck rates in bits per second for traffic leaving / entering
        the test computer.  The campus access link in the paper is 1 Gb/s and
        never the bottleneck; the effective rates here model the server-side
        and transit limits actually observed.
    server_processing:
        Fixed per-request processing delay added by the server before it
        answers an application-level request.
    """

    rtt: float
    uplink_bps: float = mbps(100.0)
    downlink_bps: float = mbps(100.0)
    server_processing: float = 0.010

    def __post_init__(self) -> None:
        if self.rtt < 0:
            raise ConfigurationError("path RTT must be non-negative")
        if self.uplink_bps <= 0 or self.downlink_bps <= 0:
            raise ConfigurationError("path rates must be positive")
        if self.server_processing < 0:
            raise ConfigurationError("server processing delay must be non-negative")

    def rate(self, upstream: bool) -> float:
        """Return the bottleneck rate for the given direction (bits/s)."""
        return self.uplink_bps if upstream else self.downlink_bps

    def adjusted(
        self,
        *,
        rtt: Optional[float] = None,
        uplink_bps: Optional[float] = None,
        downlink_bps: Optional[float] = None,
        server_processing: Optional[float] = None,
    ) -> "NetworkPath":
        """Return a copy with the given characteristics replaced.

        This is the hook :class:`~repro.netsim.scenario.ScenarioSpec` uses
        to overlay access-network conditions on a base path.
        """
        return NetworkPath(
            rtt=self.rtt if rtt is None else rtt,
            uplink_bps=self.uplink_bps if uplink_bps is None else uplink_bps,
            downlink_bps=self.downlink_bps if downlink_bps is None else downlink_bps,
            server_processing=self.server_processing if server_processing is None else server_processing,
        )

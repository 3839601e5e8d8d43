"""Hybrid IP geolocation, as described in §2.1 of the paper.

Popular geolocation databases are unreliable for cloud providers, so the
paper combines three signals, in decreasing order of preference:

1. informative strings (International Airport Codes) found in the reverse
   DNS name of the address,
2. the shortest RTT to PlanetLab vantage points (the target must be close to
   the node that measures the smallest RTT),
3. the last well-known router location seen on a traceroute towards the
   address.

The combination yields estimates within roughly a hundred kilometres, which
is enough to attribute a front-end to a metropolitan area / data-center
site.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import GeolocationError
from repro.geo.locations import Location, find_location
from repro.geo.vantage import PlanetLabNode, Traceroute

__all__ = ["LocationEstimate", "HybridGeolocator"]

_AIRPORT_TOKEN = re.compile(r"\.([a-z]{3})\d{0,2}\.")


@dataclass(frozen=True)
class LocationEstimate:
    """A geolocation estimate plus the signal that produced it."""

    ip: str
    location: Location
    method: str  # "reverse-dns", "min-rtt", or "traceroute"
    confidence_km: float

    def error_km(self, ground_truth: Location) -> float:
        """Distance between the estimate and the ground-truth location."""
        return self.location.distance_km(ground_truth)


class HybridGeolocator:
    """Combines reverse DNS, minimum RTT and traceroute into one estimate."""

    def __init__(
        self,
        planetlab_nodes: Sequence[PlanetLabNode],
        reverse_dns_lookup: Callable[[str], Optional[str]],
        traceroute: Traceroute,
        locate_ip: Callable[[str], Optional[Location]],
    ) -> None:
        if not planetlab_nodes:
            raise GeolocationError("at least one vantage point is required")
        self._nodes = list(planetlab_nodes)
        self._reverse_dns = reverse_dns_lookup
        self._traceroute = traceroute
        self._locate_ip = locate_ip

    # ------------------------------------------------------------------ #
    # Individual signals
    # ------------------------------------------------------------------ #
    def locate_by_reverse_dns(self, ip: str) -> Optional[LocationEstimate]:
        """Parse an airport code out of the PTR name, if one is published."""
        hostname = self._reverse_dns(ip)
        if not hostname:
            return None
        for token in _AIRPORT_TOKEN.findall("." + hostname.lower() + "."):
            location = find_location(token.upper())
            if location is not None:
                return LocationEstimate(ip=ip, location=location, method="reverse-dns", confidence_km=50.0)
        return None

    def locate_by_min_rtt(self, ip: str) -> Optional[LocationEstimate]:
        """Attribute the address to the location of the vantage point with minimum RTT."""
        best_node: Optional[PlanetLabNode] = None
        best_rtt = float("inf")
        for node in self._nodes:
            rtt = node.rtt_to_ip(ip, self._locate_ip)
            if rtt < best_rtt:
                best_rtt = rtt
                best_node = node
        if best_node is None:
            return None
        # RTT-implied radius: half the RTT at propagation speed bounds how
        # far the target can be from the winning node.
        radius_km = max(best_rtt / 2.0 * 200_000.0 / 1.7, 50.0)
        return LocationEstimate(ip=ip, location=best_node.location, method="min-rtt", confidence_km=radius_km)

    def locate_by_traceroute(self, ip: str) -> Optional[LocationEstimate]:
        """Use the deepest router with a recognisable location on the path."""
        location = self._traceroute.last_known_location(ip)
        if location is None:
            return None
        return LocationEstimate(ip=ip, location=location, method="traceroute", confidence_km=150.0)

    # ------------------------------------------------------------------ #
    # Hybrid combination
    # ------------------------------------------------------------------ #
    def locate(self, ip: str) -> LocationEstimate:
        """Return the best available estimate for ``ip``.

        Signals are tried in the paper's order of preference; the RTT-based
        estimate replaces a reverse-DNS estimate only if the reverse DNS gave
        nothing.  A :class:`GeolocationError` is raised when no signal works.
        """
        estimate = self.locate_by_reverse_dns(ip)
        if estimate is not None:
            return estimate
        estimate = self.locate_by_min_rtt(ip)
        if estimate is not None:
            return estimate
        estimate = self.locate_by_traceroute(ip)
        if estimate is not None:
            return estimate
        raise GeolocationError(f"no geolocation signal available for {ip}")

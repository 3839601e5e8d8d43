"""Measurement vantage points: PlanetLab-like RTT probes and traceroute.

The hybrid geolocation of §2.1 uses (besides reverse-DNS strings) the
shortest RTT from PlanetLab nodes and the last well-known router location on
a traceroute.  Both measurements are simulated from ground truth with a
simple, well-established delay model: propagation at roughly two thirds of
the speed of light over the great-circle distance, inflated by a path
stretch factor, plus a small last-mile constant and deterministic jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import GeolocationError
from repro.geo.locations import Location, all_locations
from repro.randomness import derive_seed

__all__ = [
    "rtt_between",
    "PlanetLabNode",
    "build_planetlab_nodes",
    "TracerouteHop",
    "Traceroute",
]

#: Speed of light in fibre, kilometres per second.
_FIBRE_KM_PER_S = 200_000.0
#: Multiplicative path stretch (routes are never the great circle).
_PATH_INFLATION = 1.7
#: Fixed last-mile/processing delay added to every path, seconds.
_BASE_DELAY = 0.004


def rtt_between(a: Location, b: Location, *, jitter_label: Optional[str] = None) -> float:
    """Round-trip time between two locations under the simulation's delay model.

    With ``jitter_label`` a deterministic per-pair jitter of up to 10 % is
    added, so repeated measurements from different nodes do not produce
    perfectly identical values.
    """
    distance = a.distance_km(b)
    rtt = 2.0 * distance * _PATH_INFLATION / _FIBRE_KM_PER_S + _BASE_DELAY
    if jitter_label is not None:
        jitter_fraction = (derive_seed(0, "rtt-jitter", jitter_label) % 1000) / 10000.0
        rtt *= 1.0 + jitter_fraction
    return rtt


@dataclass(frozen=True)
class PlanetLabNode:
    """A measurement node that can ping arbitrary IPs."""

    name: str
    location: Location

    def rtt_to_ip(self, ip: str, locate_ip: Callable[[str], Optional[Location]]) -> float:
        """Measured RTT from this node to ``ip``.

        ``locate_ip`` supplies the ground-truth location of the target (the
        simulated network "knows" where packets go); the *estimator* never
        sees it, only the resulting RTT value.
        """
        target = locate_ip(ip)
        if target is None:
            raise GeolocationError(f"no route to {ip}: address is outside the simulated world")
        return rtt_between(self.location, target, jitter_label=f"{self.name}->{ip}")


def build_planetlab_nodes(count: int) -> List[PlanetLabNode]:
    """Build the PlanetLab-like vantage-point population.

    Nodes are placed round-robin over the location catalogue, mirroring the
    global (if university-biased) footprint of the real PlanetLab testbed.
    """
    if count <= 0:
        raise GeolocationError("vantage point count must be positive")
    locations = all_locations()
    return [
        PlanetLabNode(name=f"planetlab-{index:03d}.{locations[index % len(locations)].airport_code.lower()}",
                      location=locations[index % len(locations)])
        for index in range(count)
    ]


@dataclass(frozen=True)
class TracerouteHop:
    """One hop on a traceroute path."""

    hop_number: int
    router_name: str
    location: Optional[Location]
    rtt: float


class Traceroute:
    """Simulated traceroute from a source location towards an IP address.

    The path is synthesised as: access router at the source, a couple of
    transit routers without an identifiable location, and finally the
    provider's border router, whose name embeds the airport code of a
    well-known city close to the destination — the "closest well-known
    location of a router" the paper's methodology relies on (§2.1).
    """

    def __init__(self, source: Location, locate_ip: Callable[[str], Optional[Location]]) -> None:
        self._source = source
        self._locate_ip = locate_ip

    def run(self, ip: str) -> List[TracerouteHop]:
        """Return the hop list towards ``ip``."""
        target = self._locate_ip(ip)
        if target is None:
            raise GeolocationError(f"no route to {ip}: address is outside the simulated world")
        nearest_city = min(all_locations(), key=lambda loc: loc.distance_km(target))
        total_rtt = rtt_between(self._source, target, jitter_label=f"traceroute:{ip}")
        hops = [
            TracerouteHop(1, f"access.{self._source.airport_code.lower()}.isp.example", self._source, 0.001),
            TracerouteHop(2, "core1.transit.example", None, total_rtt * 0.4),
            TracerouteHop(3, "core2.transit.example", None, total_rtt * 0.7),
            TracerouteHop(
                4,
                f"border.{nearest_city.airport_code.lower()}.provider.example",
                nearest_city,
                total_rtt * 0.95,
            ),
            TracerouteHop(5, f"frontend-{ip.replace('.', '-')}", None, total_rtt),
        ]
        return hops

    def last_known_location(self, ip: str) -> Optional[Location]:
        """Location of the deepest hop whose router name reveals where it is."""
        located = [hop.location for hop in self.run(ip) if hop.location is not None]
        return located[-1] if located else None

"""Fig. 2 and §3.2 — architecture discovery: front-ends, owners, locations.

The experiment assembles the simulated world (authoritative DNS answering
from the ground-truth data-center catalogue, open resolvers — the paper
used over 2,000 — PlanetLab-like vantage points, whois, reverse DNS) and
runs the paper's §2.1 discovery pipeline on the DNS names each client
contacts.  For Google Drive the result is the Fig. 2 map: well over 100
edge locations; for the other services it is the short list of data
centers and owners of §3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core import DEFAULT_PLANETLAB_COUNT, DEFAULT_RESOLVER_COUNT
from repro.geo.datacenters import DataCenterCatalogue, google_edge_nodes
from repro.geo.dns import AuthoritativeDNS, DNSRecord, GeoDNSPolicy, OpenResolver, ReverseDNS, build_resolver_set
from repro.geo.discovery import DataCenterDiscovery, DiscoveryReport
from repro.geo.geolocate import HybridGeolocator
from repro.geo.locations import TESTBED_LOCATION
from repro.geo.vantage import PlanetLabNode, Traceroute, build_planetlab_nodes
from repro.geo.whois import WhoisDatabase
from repro.randomness import DEFAULT_SEED
from repro.services.registry import SERVICE_NAMES, get_profile

__all__ = ["SimulatedWorld", "build_world", "DataCenterResult", "DataCenterExperiment"]


@dataclass
class SimulatedWorld:
    """All the infrastructure the discovery pipeline measures against."""

    catalogue: DataCenterCatalogue
    dns: AuthoritativeDNS
    resolvers: List[OpenResolver]
    planetlab: List[PlanetLabNode]
    whois: WhoisDatabase
    reverse_dns: ReverseDNS
    geolocator: HybridGeolocator
    discovery: DataCenterDiscovery


def build_world(
    services: Optional[Sequence[str]] = None,
    *,
    resolver_count: int = DEFAULT_RESOLVER_COUNT,
    planetlab_count: int = DEFAULT_PLANETLAB_COUNT,
) -> SimulatedWorld:
    """Build the ground-truth world plus the measurement apparatus on top of it."""
    services = list(services) if services is not None else list(SERVICE_NAMES)
    catalogue = DataCenterCatalogue()
    dns = AuthoritativeDNS()
    edges = google_edge_nodes()
    for name in services:
        profile = get_profile(name)
        for server in [*profile.control_servers, *profile.storage_servers]:
            policy = GeoDNSPolicy.NEAREST_EDGE if name == "googledrive" else GeoDNSPolicy.STATIC
            datacenters = edges if name == "googledrive" else [server.datacenter]
            dns.add_record(DNSRecord(hostname=server.hostname, datacenters=datacenters, policy=policy))
        if profile.notification_server is not None:
            dns.add_record(
                DNSRecord(hostname=profile.notification_server.hostname, datacenters=[profile.notification_server.datacenter])
            )
        login_dc = profile.primary_control.datacenter
        for hostname in profile.login_hostnames():
            dns.add_record(DNSRecord(hostname=hostname, datacenters=[login_dc]))
    resolvers = build_resolver_set(resolver_count)
    planetlab = build_planetlab_nodes(planetlab_count)
    whois = WhoisDatabase(catalogue.all())
    reverse_dns = ReverseDNS(catalogue.all())
    traceroute = Traceroute(TESTBED_LOCATION, catalogue.location_of_ip)
    geolocator = HybridGeolocator(
        planetlab_nodes=planetlab,
        reverse_dns_lookup=reverse_dns.lookup,
        traceroute=traceroute,
        locate_ip=catalogue.location_of_ip,
    )
    discovery = DataCenterDiscovery(dns, resolvers, whois, geolocator, catalogue)
    return SimulatedWorld(
        catalogue=catalogue,
        dns=dns,
        resolvers=resolvers,
        planetlab=planetlab,
        whois=whois,
        reverse_dns=reverse_dns,
        geolocator=geolocator,
        discovery=discovery,
    )


@dataclass
class DataCenterResult:
    """Discovery reports for every service."""

    reports: Dict[str, DiscoveryReport] = field(default_factory=dict)

    def rows(self) -> List[dict]:
        """One row per service: front-ends, sites, owners, countries, geolocation error."""
        rows = []
        for service, report in self.reports.items():
            error = report.mean_geolocation_error_km()
            rows.append(
                {
                    "service": service,
                    "front_end_ips": report.distinct_ips,
                    "sites": report.distinct_sites,
                    "countries": len(report.countries),
                    "owners": ", ".join(report.owners),
                    "mean_geo_error_km": round(error, 1) if error is not None else None,
                }
            )
        return rows

    def google_edge_sites(self) -> List[str]:
        """The Fig. 2 payload: distinct Google Drive edge locations discovered."""
        report = self.reports.get("googledrive")
        if report is None:
            return []
        return sorted({f"{location.city}, {location.country}" for location in report.sites()})


class DataCenterExperiment:
    """Run the discovery pipeline for each service's observed hostnames."""

    def __init__(
        self,
        services: Optional[Sequence[str]] = None,
        *,
        resolver_count: int = DEFAULT_RESOLVER_COUNT,
        seed: int = DEFAULT_SEED,
    ) -> None:
        # ``seed`` is part of the experiment's identity even though the
        # simulated world (resolver placement, RTT jitter) is currently
        # seed-invariant: the standalone subcommand, the campaign cell and
        # the result-store cache key must agree on one (stage, service,
        # seed, config) identity for ``cloudbench --seed N datacenters``
        # to reproduce its campaign cell bit-for-bit.
        self.services = list(services) if services is not None else list(SERVICE_NAMES)
        self.resolver_count = resolver_count
        self.seed = seed

    def run_service(self, service: str, world: Optional[SimulatedWorld] = None) -> DiscoveryReport:
        """Discover one service's front-end infrastructure.

        When no ``world`` is supplied, a fresh one is built for just that
        service.  The world builders are deterministic functions of the
        resolver/vantage-point counts and a service's DNS records do not
        depend on which other services share the world, so a single-service
        world yields the exact same report as the full campaign world —
        which is what lets the campaign engine run discovery cells in
        parallel.
        """
        world = world if world is not None else build_world([service], resolver_count=self.resolver_count)
        profile = get_profile(service)
        hostnames = [name for name in profile.all_hostnames if world.dns.has_record(name)]
        return world.discovery.discover(service, hostnames)

    def run(self, world: Optional[SimulatedWorld] = None) -> DataCenterResult:
        """Discover every configured service's front-end infrastructure."""
        world = world if world is not None else build_world(self.services, resolver_count=self.resolver_count)
        result = DataCenterResult()
        for service in self.services:
            result.reports[service] = self.run_service(service, world)
        return result

"""Simulated DNS: authoritative servers, geo-routing and open resolvers.

Cloud services use the DNS to spread load and to steer clients to nearby
front-ends, so the same name resolves to different addresses depending on
where the query comes from (§2.1).  The paper exploits this by resolving the
service names through more than 2,000 open resolvers in over 100 countries.

This module provides:

* :class:`AuthoritativeDNS` — per-service records with either static answers
  (centralised services) or nearest-edge geo-routing (Google Drive),
* :class:`OpenResolver` / :func:`build_resolver_set` — the world-wide
  resolver population used by the discovery fan-out,
* :class:`ReverseDNS` — PTR records embedding airport codes for the
  providers that use that convention, feeding the hybrid geolocation.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.geo.datacenters import DataCenter
from repro.geo.locations import Location, all_locations

__all__ = [
    "GeoDNSPolicy",
    "DNSRecord",
    "AuthoritativeDNS",
    "OpenResolver",
    "build_resolver_set",
    "ReverseDNS",
]


class GeoDNSPolicy(str, enum.Enum):
    """How an authoritative server picks answers for a query."""

    #: Same (small) answer set for everyone, round-robin over the site's IPs.
    STATIC = "static"
    #: Answer with the front-end nearest to the querying resolver.
    NEAREST_EDGE = "nearest_edge"


@dataclass
class DNSRecord:
    """Authoritative record for one service hostname."""

    hostname: str
    datacenters: List[DataCenter]
    policy: GeoDNSPolicy = GeoDNSPolicy.STATIC
    #: How many distinct host addresses each site exposes behind this name.
    hosts_per_site: int = 8


class AuthoritativeDNS:
    """The authoritative view of every service's DNS zone."""

    def __init__(self) -> None:
        self._records: Dict[str, DNSRecord] = {}

    def add_record(self, record: DNSRecord) -> None:
        """Register (or replace) the record for ``record.hostname``."""
        if not record.datacenters:
            raise ConfigurationError(f"record for {record.hostname!r} needs at least one data center")
        self._records[record.hostname.lower()] = record

    def hostnames(self) -> List[str]:
        """All names with an authoritative record."""
        return sorted(self._records)

    def has_record(self, hostname: str) -> bool:
        """True if the name can be resolved."""
        return hostname.lower() in self._records

    def resolve(self, hostname: str, resolver_location: Optional[Location] = None) -> List[str]:
        """Answer a query for ``hostname`` issued through a resolver at ``resolver_location``.

        Static records return a deterministic subset of the site's addresses
        (load balancing rotates on the resolver identity); nearest-edge
        records return addresses of the edge closest to the resolver.
        """
        record = self._records.get(hostname.lower())
        if record is None:
            return []
        if record.policy is GeoDNSPolicy.NEAREST_EDGE and resolver_location is not None:
            site = min(record.datacenters, key=lambda dc: dc.location.distance_km(resolver_location))
            sites = [site]
        else:
            sites = record.datacenters
        answers: List[str] = []
        salt = ""
        if resolver_location is not None:
            salt = f"{resolver_location.latitude:.2f},{resolver_location.longitude:.2f}"
        for site in sites:
            offset = int(hashlib.sha256(f"{hostname}|{site.name}|{salt}".encode()).hexdigest(), 16)
            host_index = 1 + offset % max(record.hosts_per_site, 1)
            answers.append(site.address(host_index))
        return answers


@dataclass(frozen=True)
class OpenResolver:
    """One open DNS resolver somewhere in the world."""

    ip: str
    location: Location
    isp: str

    def query(self, dns: AuthoritativeDNS, hostname: str) -> List[str]:
        """Resolve ``hostname`` through this resolver."""
        return dns.resolve(hostname, resolver_location=self.location)


def build_resolver_set(count: int = 2000, resolvers_per_isp: int = 4) -> List[OpenResolver]:
    """Build the world-wide open-resolver population.

    Resolvers are spread round-robin over the location catalogue (which
    covers more than 100 countries) and grouped into synthetic ISPs, several
    resolvers per ISP, mirroring the manually compiled list of §2.1
    (>2,000 resolvers, >100 countries, >500 ISPs).
    """
    if count <= 0:
        raise ConfigurationError("resolver count must be positive")
    locations = all_locations()
    resolvers: List[OpenResolver] = []
    for index in range(count):
        location = locations[index % len(locations)]
        isp_index = index // resolvers_per_isp
        ip = f"198.18.{(index // 250) % 250}.{index % 250 + 1}"
        resolvers.append(
            OpenResolver(ip=ip, location=location, isp=f"as{64500 + isp_index}.{location.airport_code.lower()}.example")
        )
    return resolvers


class ReverseDNS:
    """PTR records for front-end addresses.

    Some providers embed the site's International Airport Code in the PTR
    name (e.g. ``edge-ams01.1e100.net``); the hybrid geolocation of §2.1
    parses those informative strings first.  Providers differ in whether
    they publish such names, so the constructor takes, per provider, whether
    PTR records exist and whether they carry the airport code.
    """

    #: Providers whose PTR names embed an airport code in the simulated world.
    _AIRPORT_CODED = {"googledrive": "1e100.net", "clouddrive": "amazonaws.com", "dropbox": "amazonaws.com"}
    #: Providers with PTR records that do not reveal the location.
    _OPAQUE = {"skydrive": "msnet.microsoft.com", "wuala": "datacenter.example.net"}

    def __init__(self, datacenters: Sequence[DataCenter]) -> None:
        self._by_prefix: Dict[str, DataCenter] = {dc.ip_prefix: dc for dc in datacenters}

    def lookup(self, ip: str) -> Optional[str]:
        """Return the PTR hostname for ``ip``, or ``None`` when unset."""
        datacenter = self._by_prefix.get(ip.rsplit(".", 1)[0])
        if datacenter is None:
            return None
        host = ip.replace(".", "-")
        suffix = self._AIRPORT_CODED.get(datacenter.provider)
        if suffix is not None:
            code = datacenter.location.airport_code.lower()
            return f"server-{host}.{code}01.{suffix}"
        suffix = self._OPAQUE.get(datacenter.provider)
        if suffix is not None:
            return f"host-{host}.{suffix}"
        return None

"""Ground-truth data-center catalogue for the five studied services.

The locations, owners and roles encode what §3.2 of the paper reports:

* **Dropbox** — own control servers in the San Jose area; storage on Amazon
  Web Services in Northern Virginia.
* **Cloud Drive** — three AWS data centers: Ireland and Northern Virginia
  (control + storage) and Oregon (storage only).
* **SkyDrive** — Microsoft data centers near Seattle (storage) and in
  Southern Virginia (storage + control), plus a control-only destination in
  Singapore.
* **Wuala** — European data centers only: two near Nuremberg, one in Zurich
  and one in Northern France, none owned by Wuala itself.
* **Google Drive** — client TCP connections terminate at the nearest Google
  edge node (more than 100 world-wide); traffic then rides Google's private
  backbone.

The catalogue is ground truth for the simulation: authoritative DNS answers,
whois records, reverse-DNS names and RTT measurements are all derived from
it, and the discovery pipeline (§2.1) is validated against it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.errors import ConfigurationError
from repro.geo.locations import Location, find_location, all_locations

__all__ = [
    "DataCenterRole",
    "DataCenter",
    "DataCenterCatalogue",
    "provider_datacenters",
    "google_edge_nodes",
    "default_catalogue",
]


class DataCenterRole(str, enum.Enum):
    """What a front-end site is used for."""

    CONTROL = "control"
    STORAGE = "storage"
    EDGE = "edge"


@dataclass(frozen=True)
class DataCenter:
    """One front-end site of a provider."""

    provider: str
    name: str
    location: Location
    owner: str
    roles: FrozenSet[DataCenterRole]
    ip_prefix: str  # first three octets, e.g. "108.160.165"

    def address(self, host_index: int = 1) -> str:
        """Return an IP address inside this site's prefix."""
        if not 1 <= host_index <= 254:
            raise ConfigurationError("host index must be in [1, 254]")
        return f"{self.ip_prefix}.{host_index}"


def _loc(name: str) -> Location:
    location = find_location(name)
    if location is None:
        raise ConfigurationError(f"location {name!r} missing from the catalogue")
    return location


def _dc(provider: str, name: str, location: str, owner: str, roles: FrozenSet[DataCenterRole], prefix: str) -> DataCenter:
    return DataCenter(
        provider=provider,
        name=name,
        location=_loc(location),
        owner=owner,
        roles=roles,
        ip_prefix=prefix,
    )


_CONTROL = frozenset({DataCenterRole.CONTROL})
_STORAGE = frozenset({DataCenterRole.STORAGE})
_BOTH = frozenset({DataCenterRole.CONTROL, DataCenterRole.STORAGE})
_EDGE = frozenset({DataCenterRole.EDGE, DataCenterRole.CONTROL, DataCenterRole.STORAGE})

#: Countries without a Google edge node in the simulated world (keeps the
#: edge count above 100 without covering literally every catalogue entry).
_NO_EDGE_COUNTRIES = {
    "Cuba", "Iran", "Sudan", "Venezuela", "Myanmar", "Laos", "Bolivia",
    "Madagascar", "Zimbabwe", "Papua New Guinea", "Fiji", "DR Congo",
    "Angola", "Mozambique", "Belarus", "Iraq",
}


def provider_datacenters(provider: str) -> List[DataCenter]:
    """Ground-truth data centers of one provider (Google edges excluded)."""
    catalogue = {
        "dropbox": [
            _dc("dropbox", "dropbox-sjc-control", "San Jose", "Dropbox Inc.", _CONTROL, "108.160.165"),
            _dc("dropbox", "dropbox-aws-use1-storage", "Ashburn", "Amazon Web Services", _STORAGE, "54.231.16"),
        ],
        "clouddrive": [
            _dc("clouddrive", "aws-eu-west-1", "Dublin", "Amazon Web Services", _BOTH, "54.228.10"),
            _dc("clouddrive", "aws-us-east-1", "Ashburn", "Amazon Web Services", _BOTH, "54.239.20"),
            _dc("clouddrive", "aws-us-west-2", "Boardman", "Amazon Web Services", _STORAGE, "54.245.30"),
        ],
        "skydrive": [
            _dc("skydrive", "msft-seattle-storage", "Seattle", "Microsoft Corporation", _STORAGE, "134.170.20"),
            _dc("skydrive", "msft-virginia", "Boydton", "Microsoft Corporation", _BOTH, "131.253.40"),
            _dc("skydrive", "msft-singapore-control", "Singapore", "Microsoft Corporation", _CONTROL, "111.221.50"),
        ],
        "wuala": [
            _dc("wuala", "wuala-nuremberg-1", "Nuremberg", "Hetzner Online AG", _BOTH, "178.63.10"),
            _dc("wuala", "wuala-nuremberg-2", "Nuremberg", "Hetzner Online AG", _BOTH, "178.63.11"),
            _dc("wuala", "wuala-zurich", "Zurich", "Swisscom AG", _BOTH, "195.141.20"),
            _dc("wuala", "wuala-france", "Roubaix", "OVH SAS", _BOTH, "188.165.30"),
        ],
        "googledrive": [],  # Google Drive is served entirely by its edge nodes.
    }
    key = provider.lower()
    if key not in catalogue:
        raise ConfigurationError(f"unknown provider: {provider!r}")
    return catalogue[key]


def google_edge_nodes() -> List[DataCenter]:
    """Ground-truth Google edge nodes (well over 100 locations world-wide)."""
    edges: List[DataCenter] = []
    index = 0
    for location in all_locations():
        if location.country in _NO_EDGE_COUNTRIES:
            continue
        edges.append(
            DataCenter(
                provider="googledrive",
                name=f"google-edge-{location.airport_code.lower()}",
                location=location,
                owner="Google Inc.",
                roles=_EDGE,
                ip_prefix=f"173.194.{index}",
            )
        )
        index += 1
    return edges


class DataCenterCatalogue:
    """All ground-truth sites, indexed for IP and provider lookups."""

    def __init__(self, datacenters: Optional[List[DataCenter]] = None) -> None:
        if datacenters is None:
            datacenters = []
            for provider in ("dropbox", "clouddrive", "skydrive", "wuala"):
                datacenters.extend(provider_datacenters(provider))
            datacenters.extend(google_edge_nodes())
        self._datacenters = list(datacenters)
        self._by_prefix: Dict[str, DataCenter] = {dc.ip_prefix: dc for dc in self._datacenters}

    def __len__(self) -> int:
        return len(self._datacenters)

    def __iter__(self):
        return iter(self._datacenters)

    def all(self) -> List[DataCenter]:
        """Every site in the catalogue."""
        return list(self._datacenters)

    def find_by_ip(self, ip: str) -> Optional[DataCenter]:
        """Ground-truth site owning ``ip``, or ``None``."""
        prefix = ip.rsplit(".", 1)[0]
        return self._by_prefix.get(prefix)

    def location_of_ip(self, ip: str) -> Optional[Location]:
        """Ground-truth location of ``ip``, or ``None`` for unknown space."""
        datacenter = self.find_by_ip(ip)
        return datacenter.location if datacenter is not None else None


def default_catalogue() -> DataCenterCatalogue:
    """The full ground-truth catalogue used by the default simulated world."""
    return DataCenterCatalogue()

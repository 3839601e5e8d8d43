"""Declarative service specs: compose arbitrary services from data.

The paper's methodology is explicitly service-agnostic (§2.4): the probes
and benchmarks only look at traffic.  What distinguishes one service from
another is just data: which capabilities the client composes, where its
servers sit, how it polls, how long its local processing takes.  A
:class:`ServiceSpec` captures exactly that as a serializable document, so
a sixth (or sixtieth) service is a TOML or JSON file, not code.  An excerpt
of ``examples/specs/synthetic.toml``, whose full table repeats every field
of the built-in ``dropbox.json`` but ``bundling``::

    [[service]]
    name = "bundleless-dropbox"
    display_name = "Dropbox w/o bundling"
    [service.capabilities]
    chunking = "fixed"
    chunk_size = "4MB"
    bundling = false
    compression = "always"
    deduplication = true
    delta_encoding = true
    [[service.control_servers]]
    hostname = "client.dropbox.com"
    rate_up = "10Mbps"
    rate_down = "20Mbps"
    [service.control_servers.datacenter]
    provider = "dropbox"
    site = "dropbox-sjc-control"
    ...

Three invariants drive the design:

* **Canonical form** — a spec's :meth:`~ServiceSpec.to_dict` is the unique
  normal form of its content (aliases resolved, units converted, defaults
  omitted), derived by building the :class:`~repro.services.profile.ServiceProfile`
  and re-reading it.  Two spellings of the same service therefore
  canonicalize — and fingerprint — identically, and
  ``spec → profile → canonical dict → spec`` round-trips byte for byte.
* **Content-hashed identity** — :meth:`~ServiceSpec.fingerprint` hashes the
  canonical JSON; the campaign result store folds it into every cache key,
  so editing a spec file invalidates exactly that service's cached cells.
* **One generic engine** — a spec builds a plain profile interpreted by
  :class:`~repro.services.base.CloudStorageClient`; the five built-in
  services are spec files under ``repro/services/specs/`` and take the very
  same path.

Server placement resolves against the ground-truth world of
:mod:`repro.geo.datacenters`: a ``{provider, site}`` reference names a
catalogue data center, ``{nearest_edge = true}`` picks the Google edge node
closest to the testbed, and an inline table (city + owner + ip_prefix +
roles) mints a new site, so synthetic services still geolocate.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import os
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError, UnknownServiceError
from repro.geo.datacenters import DataCenter, DataCenterRole, google_edge_nodes, provider_datacenters
from repro.geo.locations import TESTBED_LOCATION, find_location
from repro.services.profile import (
    ConnectionPolicy,
    LoginSpec,
    PollingSpec,
    ServerSpec,
    ServiceCapabilities,
    ServiceProfile,
    TimingSpec,
)
from repro.specio import canonical_json, load_document
from repro.sync.compression import CompressionPolicy
from repro.sync.protocol import MessageSizes
from repro.units import parse_rate, parse_size

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "ServiceSpec",
    "load_service_specs",
    "builtin_spec_path",
    "builtin_spec",
]

#: Version of the canonical spec layout; part of every fingerprint.
SPEC_SCHEMA_VERSION = 1

#: Directory holding the five built-in services' spec files.
_BUILTIN_SPEC_DIR = os.path.join(os.path.dirname(__file__), "specs")

#: The catalogue providers a ``{provider, site}`` reference may name.
_CATALOGUE_PROVIDERS = ("dropbox", "clouddrive", "skydrive", "wuala")


# --------------------------------------------------------------------------- #
# Data centers: reference / inline forms
# --------------------------------------------------------------------------- #
def _nearest_edge() -> DataCenter:
    """The Google edge node closest to the testbed (Google Drive's front end)."""
    return min(google_edge_nodes(), key=lambda edge: edge.location.distance_km(TESTBED_LOCATION))


def _catalogue_site(provider: str, site: str) -> DataCenter:
    provider = provider.lower()
    if provider == "googledrive":
        candidates = google_edge_nodes()
    elif provider in _CATALOGUE_PROVIDERS:
        candidates = provider_datacenters(provider)
    else:
        raise ConfigurationError(
            f"unknown catalogue provider {provider!r}; known: {', '.join(_CATALOGUE_PROVIDERS)}, googledrive"
        )
    for datacenter in candidates:
        if datacenter.name == site:
            return datacenter
    raise ConfigurationError(
        f"provider {provider!r} has no catalogue site {site!r}; "
        f"known sites: {', '.join(dc.name for dc in candidates[:12])}"
    )


def _datacenter_from_dict(raw: Mapping, context: str) -> DataCenter:
    """Resolve one spec datacenter table (reference, nearest-edge or inline)."""
    if not isinstance(raw, Mapping):
        raise ConfigurationError(f"{context}: 'datacenter' must be a table, got {type(raw).__name__}")
    if raw.get("nearest_edge"):
        return _nearest_edge()
    if "site" in raw:
        if "provider" not in raw:
            raise ConfigurationError(f"{context}: a catalogue reference needs both 'provider' and 'site'")
        return _catalogue_site(str(raw["provider"]), str(raw["site"]))
    missing = [key for key in ("provider", "name", "city", "owner", "ip_prefix") if key not in raw]
    if missing:
        raise ConfigurationError(
            f"{context}: inline datacenter is missing {', '.join(missing)} "
            "(or use {{provider=..., site=...}} / {{nearest_edge=true}})"
        )
    location = find_location(str(raw["city"]))
    if location is None:
        raise ConfigurationError(f"{context}: unknown city {raw['city']!r} (not in the location catalogue)")
    role_names = raw.get("roles", ["control", "storage"])
    try:
        roles = frozenset(DataCenterRole(str(role)) for role in role_names)
    except ValueError:
        valid = ", ".join(role.value for role in DataCenterRole)
        raise ConfigurationError(f"{context}: invalid role in {role_names!r}; valid roles: {valid}") from None
    return DataCenter(
        provider=str(raw["provider"]).lower(),
        name=str(raw["name"]),
        location=location,
        owner=str(raw["owner"]),
        roles=roles,
        ip_prefix=str(raw["ip_prefix"]),
    )


def _datacenter_to_dict(datacenter: DataCenter) -> Dict[str, Any]:
    """Canonical form of one datacenter: reference where possible, else inline."""
    if datacenter.provider == "googledrive":
        if datacenter == _nearest_edge():
            return {"nearest_edge": True}
        if any(datacenter == edge for edge in google_edge_nodes()):
            return {"provider": "googledrive", "site": datacenter.name}
    elif datacenter.provider in _CATALOGUE_PROVIDERS:
        if any(datacenter == known for known in provider_datacenters(datacenter.provider)):
            return {"provider": datacenter.provider, "site": datacenter.name}
    return {
        "provider": datacenter.provider,
        "name": datacenter.name,
        "city": datacenter.location.city,
        "owner": datacenter.owner,
        "roles": sorted(role.value for role in datacenter.roles),
        "ip_prefix": datacenter.ip_prefix,
    }


# --------------------------------------------------------------------------- #
# Generic flat-dataclass conversion
# --------------------------------------------------------------------------- #
def _flat_to_dict(instance: Any, defaults: Any) -> Dict[str, Any]:
    """Dataclass -> dict, omitting default-valued fields, enums as values."""
    document: Dict[str, Any] = {}
    for field in dataclasses.fields(instance):
        value = getattr(instance, field.name)
        if value == getattr(defaults, field.name):
            continue
        document[field.name] = value.value if hasattr(value, "value") else value
    return document


def _flat_from_dict(
    cls: type,
    raw: Mapping,
    context: str,
    converters: Optional[Dict[str, Callable[[Any], Any]]] = None,
) -> Any:
    """Dict -> dataclass, validating field names and applying converters."""
    if not isinstance(raw, Mapping):
        raise ConfigurationError(f"{context} must be a table, got {type(raw).__name__}")
    known = {field.name for field in dataclasses.fields(cls)}
    values: Dict[str, Any] = {}
    for key, value in raw.items():
        name = str(key).replace("-", "_")
        if name not in known:
            raise ConfigurationError(
                f"{context}: unknown field {key!r}; valid fields: {', '.join(sorted(known))}"
            )
        if converters and name in converters:
            value = converters[name](value)
        values[name] = value
    try:
        return cls(**values)
    except TypeError as error:
        raise ConfigurationError(f"{context}: {error}") from None


def _as_chunk_size(value: Any) -> Optional[int]:
    return None if value is None else parse_size(value)


def _as_compression(value: Any) -> CompressionPolicy:
    if isinstance(value, CompressionPolicy):
        return value
    try:
        return CompressionPolicy(str(value).lower())
    except ValueError:
        valid = ", ".join(policy.value for policy in CompressionPolicy)
        raise ConfigurationError(f"invalid compression policy {value!r}; valid: {valid}") from None


# --------------------------------------------------------------------------- #
# Servers
# --------------------------------------------------------------------------- #
def _server_from_dict(raw: Mapping, context: str) -> ServerSpec:
    if not isinstance(raw, Mapping):
        raise ConfigurationError(f"{context}: a server entry must be a table, got {type(raw).__name__}")
    if "hostname" not in raw:
        raise ConfigurationError(f"{context}: a server entry needs a 'hostname'")
    if "datacenter" not in raw:
        raise ConfigurationError(f"{context}: server {raw['hostname']!r} needs a 'datacenter'")
    values: Dict[str, Any] = {
        "hostname": str(raw["hostname"]),
        "datacenter": _datacenter_from_dict(raw["datacenter"], f"{context}:{raw['hostname']}"),
    }
    aliases = {"rate_up": "rate_up_bps", "rate_down": "rate_down_bps"}
    for key, value in raw.items():
        name = aliases.get(str(key), str(key).replace("-", "_"))
        if name in ("hostname", "datacenter"):
            continue
        if name in ("rate_up_bps", "rate_down_bps"):
            values[name] = parse_rate(value)
        elif name in ("server_processing", "port", "tls"):
            values[name] = value
        else:
            raise ConfigurationError(
                f"{context}: unknown server field {key!r}; valid: hostname, datacenter, "
                "rate_up[_bps], rate_down[_bps], server_processing, port, tls"
            )
    try:
        return ServerSpec(**values)
    except TypeError as error:
        raise ConfigurationError(f"{context}: {error}") from None


def _server_to_dict(server: ServerSpec) -> Dict[str, Any]:
    defaults = ServerSpec(hostname=server.hostname, datacenter=server.datacenter)
    document: Dict[str, Any] = {"hostname": server.hostname, "datacenter": _datacenter_to_dict(server.datacenter)}
    document.update(_flat_to_dict(server, defaults))
    return document


# --------------------------------------------------------------------------- #
# The spec itself
# --------------------------------------------------------------------------- #
class ServiceSpec:
    """A serializable, canonical description of one cloud storage service.

    Construction always goes through the profile layer: whatever shape the
    input takes (a hand-written TOML table with aliases and unit strings, a
    canonical dict, an existing profile), the spec stores the canonical
    dict re-derived from the built profile — which is what makes
    canonicalization, fingerprinting and round-tripping exact.
    """

    def __init__(self, document: Dict[str, Any]) -> None:
        # ``document`` must already be canonical; external callers use
        # ``from_dict`` / ``from_profile`` / ``load_service_specs``.
        self._document = document

    # -- constructors ----------------------------------------------------- #
    @classmethod
    def from_dict(cls, raw: Mapping) -> "ServiceSpec":
        """Build a spec from any dict spelling (aliases and units resolved)."""
        return cls.from_profile(profile_from_spec_dict(raw))

    @classmethod
    def from_profile(cls, profile: ServiceProfile) -> "ServiceSpec":
        """The canonical spec of an existing profile."""
        return cls(spec_dict_from_profile(profile))

    # -- identity --------------------------------------------------------- #
    @property
    def name(self) -> str:
        """The service's registry name."""
        return self._document["name"]

    @property
    def display_name(self) -> str:
        """The service's human-readable name."""
        return self._document.get("display_name", self._document["name"])

    def to_dict(self) -> Dict[str, Any]:
        """The canonical dict form (a deep copy; mutations never leak back)."""
        return copy.deepcopy(self._document)

    def canonical_json(self) -> str:
        """Canonical JSON serialization: the bytes the fingerprint hashes."""
        return canonical_json(self._document)

    def fingerprint(self) -> str:
        """Content hash of the spec; part of every campaign cache key."""
        material = f"{SPEC_SCHEMA_VERSION}\x00{self.canonical_json()}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    # -- interpretation --------------------------------------------------- #
    def build_profile(self) -> ServiceProfile:
        """A fresh :class:`ServiceProfile` interpreting this spec."""
        return profile_from_spec_dict(self._document)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ServiceSpec) and other._document == self._document

    def __repr__(self) -> str:
        return f"ServiceSpec({self.name!r}, fingerprint={self.fingerprint()[:12]})"


def profile_from_spec_dict(raw: Mapping) -> ServiceProfile:
    """Interpret one service spec dict as a :class:`ServiceProfile`."""
    if not isinstance(raw, Mapping):
        raise ConfigurationError(f"a service spec must be a table/object, got {type(raw).__name__}")
    if "name" not in raw:
        raise ConfigurationError("a service spec needs a 'name'")
    name = str(raw["name"]).lower()
    context = f"service {name!r}"
    known = {
        "name",
        "display_name",
        "capabilities",
        "control_servers",
        "storage_servers",
        "notification_server",
        "polling",
        "login",
        "timing",
        "connections",
        "message_sizes",
        "per_sync_control_overhead_bytes",
        "max_bundle_bytes",
        "max_bundle_files",
    }
    unknown = sorted(set(map(str, raw)) - known)
    if unknown:
        raise ConfigurationError(f"{context}: unknown field(s) {', '.join(unknown)}; valid: {', '.join(sorted(known))}")

    def servers(key: str, required: bool) -> List[ServerSpec]:
        entries = raw.get(key, [])
        if isinstance(entries, Mapping):
            entries = [entries]
        if required and not entries:
            raise ConfigurationError(f"{context}: at least one entry in {key!r} is required")
        return [_server_from_dict(entry, f"{context}.{key}") for entry in entries]

    capabilities = _flat_from_dict(
        ServiceCapabilities,
        raw.get("capabilities", {}),
        f"{context}.capabilities",
        converters={"compression": _as_compression, "chunk_size": _as_chunk_size},
    )
    notification = raw.get("notification_server")
    return ServiceProfile(
        name=name,
        display_name=str(raw.get("display_name", raw["name"])),
        capabilities=capabilities,
        control_servers=servers("control_servers", required=True),
        storage_servers=servers("storage_servers", required=True),
        notification_server=(
            _server_from_dict(notification, f"{context}.notification_server") if notification else None
        ),
        polling=_flat_from_dict(PollingSpec, raw.get("polling", {}), f"{context}.polling"),
        login=_flat_from_dict(LoginSpec, raw.get("login", {}), f"{context}.login"),
        timing=_flat_from_dict(TimingSpec, raw.get("timing", {}), f"{context}.timing"),
        connections=_flat_from_dict(ConnectionPolicy, raw.get("connections", {}), f"{context}.connections"),
        message_sizes=_flat_from_dict(MessageSizes, raw.get("message_sizes", {}), f"{context}.message_sizes"),
        per_sync_control_overhead_bytes=int(raw.get("per_sync_control_overhead_bytes", 0)),
        max_bundle_bytes=parse_size(raw.get("max_bundle_bytes", 4_000_000)),
        max_bundle_files=int(raw.get("max_bundle_files", 50)),
    )


def spec_dict_from_profile(profile: ServiceProfile) -> Dict[str, Any]:
    """The canonical spec dict of a profile (defaults omitted, units in bps/bytes)."""
    document: Dict[str, Any] = {
        "name": profile.name,
        "display_name": profile.display_name,
        "capabilities": _flat_to_dict(profile.capabilities, ServiceCapabilities()),
        "control_servers": [_server_to_dict(server) for server in profile.control_servers],
        "storage_servers": [_server_to_dict(server) for server in profile.storage_servers],
    }
    if profile.notification_server is not None:
        document["notification_server"] = _server_to_dict(profile.notification_server)
    for key, value, defaults in (
        ("polling", profile.polling, PollingSpec()),
        ("login", profile.login, LoginSpec()),
        ("timing", profile.timing, TimingSpec()),
        ("connections", profile.connections, ConnectionPolicy()),
        ("message_sizes", profile.message_sizes, MessageSizes()),
    ):
        flat = _flat_to_dict(value, defaults)
        if flat:
            document[key] = flat
    if profile.per_sync_control_overhead_bytes:
        document["per_sync_control_overhead_bytes"] = profile.per_sync_control_overhead_bytes
    if profile.max_bundle_bytes != 4_000_000:
        document["max_bundle_bytes"] = profile.max_bundle_bytes
    if profile.max_bundle_files != 50:
        document["max_bundle_files"] = profile.max_bundle_files
    return document


# --------------------------------------------------------------------------- #
# Spec files
# --------------------------------------------------------------------------- #
def load_service_specs(path: str) -> List[ServiceSpec]:
    """Parse every service defined in a TOML/JSON spec file.

    Accepted shapes: a top-level ``[[service]]`` array of tables (TOML) /
    ``{"service": [...]}`` list (JSON), or a single top-level service table
    carrying a ``name``.
    """
    document = load_document(path)
    entries = document.get("service", document.get("services"))
    if entries is None:
        entries = [document] if "name" in document else []
    if isinstance(entries, Mapping):
        entries = [entries]
    if not entries:
        raise ConfigurationError(f"no services found in {path!r} (expected [[service]] tables)")
    specs = [ServiceSpec.from_dict(entry) for entry in entries]
    names = [spec.name for spec in specs]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ConfigurationError(f"{path!r} defines service(s) more than once: {', '.join(duplicates)}")
    return specs


def builtin_spec_path(name: str) -> str:
    """Path of a built-in service's spec file."""
    return os.path.join(_BUILTIN_SPEC_DIR, f"{name}.json")


@functools.lru_cache(maxsize=None)
def builtin_spec(name: str) -> ServiceSpec:
    """Load one of the five built-in services' spec files (cached).

    The cache is safe because a :class:`ServiceSpec` never exposes its
    internal document mutably (``to_dict`` deep-copies) and the built-in
    files are package data, not user-edited state.
    """
    path = builtin_spec_path(name)
    if not os.path.exists(path):
        raise UnknownServiceError(f"no built-in spec file for service {name!r} (looked at {path})")
    specs = load_service_specs(path)
    if len(specs) != 1 or specs[0].name != name:
        raise ConfigurationError(f"built-in spec file {path!r} must define exactly the service {name!r}")
    return specs[0]

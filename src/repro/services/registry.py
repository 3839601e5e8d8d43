"""Service registry: create clients and profiles by name.

The methodology is explicitly designed to be applied to *any* personal cloud
storage service (§2.4); the registry is the extension point.  A registered
service is a :class:`~repro.services.spec.ServiceSpec`: every capability
probe, performance benchmark and report includes it automatically, and its
spec fingerprint joins the campaign cache keys, so editing a spec
invalidates exactly that service's cells.

A spec is the only way to define a service.  The built-ins are spec files
under ``repro/services/specs/``, read on first use; anyone else registers
a spec (:func:`register_service_spec`, :func:`register_services_from_file`).
:func:`create_client` builds every client the same way — the generic
:class:`~repro.services.base.CloudStorageClient` interpreting the spec's
profile — so a spawn-started worker that receives the specs runs exactly
the client code of the parent process.

Tests (and ablation studies) that register synthetic services use
:func:`registry_snapshot`/:func:`registry_restore` — or the
:func:`temporary_services` context manager — so registrations cannot leak
into :data:`SERVICE_NAMES` ordering for later tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import UnknownServiceError
from repro.netsim.simulator import NetworkSimulator
from repro.services.backend import StorageBackend
from repro.services.base import CloudStorageClient
from repro.services.profile import ServiceProfile
from repro.services.spec import ServiceSpec, builtin_spec, load_service_specs

__all__ = [
    "SERVICE_NAMES",
    "register_service_spec",
    "register_services_from_file",
    "registry_sync_payload",
    "install_registered_specs",
    "unregister_service",
    "registry_snapshot",
    "registry_restore",
    "temporary_services",
    "get_profile",
    "get_spec",
    "spec_fingerprint",
    "create_client",
    "registered_services",
]

#: The five services studied in the paper, in the paper's presentation
#: order, followed by any later registrations in registration order.
SERVICE_NAMES: List[str] = ["dropbox", "skydrive", "wuala", "clouddrive", "googledrive"]

# Name -> registered spec.  ``None`` marks a built-in whose spec file is
# read on first use (``builtin_spec`` caches it), so importing the package
# parses no spec file.
_REGISTRY: Dict[str, Optional[ServiceSpec]] = dict.fromkeys(SERVICE_NAMES)


def register_service_spec(spec: ServiceSpec) -> str:
    """Register (or replace, idempotently) a service spec; returns its name.

    Re-registering an already-known name replaces its spec without
    disturbing :data:`SERVICE_NAMES` ordering.
    """
    key = spec.name.lower()
    _REGISTRY[key] = spec
    if key not in SERVICE_NAMES:
        SERVICE_NAMES.append(key)
    return key


def register_services_from_file(path: str) -> List[str]:
    """Register every service defined in a TOML/JSON spec file.

    This is what ``cloudbench --services-file specs.toml`` calls: each
    ``[[service]]`` table becomes a registered service driven by the
    generic client engine, immediately addressable by ``--services`` and
    the campaign grid.
    """
    return [register_service_spec(spec) for spec in load_service_specs(path)]


def unregister_service(name: str) -> bool:
    """Remove a service from the registry; returns whether it was present.

    Removing a built-in is allowed (ablation studies replace them); a
    subsequent :func:`registry_restore` brings it back.
    """
    key = name.lower()
    present = key in _REGISTRY
    _REGISTRY.pop(key, None)
    if key in SERVICE_NAMES:
        SERVICE_NAMES.remove(key)
    return present


def registry_snapshot() -> Tuple[Dict[str, Optional[ServiceSpec]], List[str]]:
    """An opaque snapshot of the registry state (specs + name ordering)."""
    return dict(_REGISTRY), list(SERVICE_NAMES)


def registry_restore(snapshot: Tuple[Dict[str, Optional[ServiceSpec]], List[str]]) -> None:
    """Restore a snapshot taken with :func:`registry_snapshot`.

    Both structures are restored *in place*, because ``SERVICE_NAMES`` is
    imported as a module-level list all over the code base.
    """
    specs, names = snapshot
    _REGISTRY.clear()
    _REGISTRY.update(specs)
    SERVICE_NAMES[:] = list(names)


@contextmanager
def temporary_services() -> Iterator[None]:
    """Context manager scoping any registrations to the ``with`` block."""
    snapshot = registry_snapshot()
    try:
        yield
    finally:
        registry_restore(snapshot)


def registry_sync_payload(names) -> List[dict]:
    """Canonical spec dicts for ``names``: the picklable registry state.

    This is what a process-pool *initializer* ships to worker processes so
    that services registered at runtime (``--services-file``, ablation
    variants) exist in the workers even under the ``spawn``/``forkserver``
    start methods, where workers do not inherit the parent's registry.
    """
    return [get_spec(name).to_dict() for name in dict.fromkeys(names)]


def install_registered_specs(documents) -> None:
    """Install spec documents from :func:`registry_sync_payload` (worker side).

    Entries whose spec content already matches are left untouched, so under
    ``fork`` — where workers inherit the full registry — this is a no-op.
    A service missing from (or different in) the worker registry is
    registered from its canonical spec; since a spec is all there is to a
    service, the worker then runs exactly what the parent runs.
    """
    for document in documents:
        spec = ServiceSpec.from_dict(document)
        key = spec.name.lower()
        if key in _REGISTRY and get_spec(key).fingerprint() == spec.fingerprint():
            continue
        register_service_spec(spec)


def registered_services() -> List[str]:
    """Names of every registered service."""
    return list(_REGISTRY)


def get_spec(name: str) -> ServiceSpec:
    """The canonical :class:`~repro.services.spec.ServiceSpec` of a service."""
    key = name.lower()
    try:
        spec = _REGISTRY[key]
    except KeyError:
        raise UnknownServiceError(f"unknown service {name!r}; registered: {sorted(_REGISTRY)}") from None
    return builtin_spec(key) if spec is None else spec


def get_profile(name: str) -> ServiceProfile:
    """Build a fresh profile for the named service."""
    return get_spec(name).build_profile()


def spec_fingerprint(name: str) -> str:
    """Content hash of the named service's spec.

    This is the *service* part of every campaign cache key: two services
    with equal spec content share fingerprints, and any spec edit changes
    the fingerprint — invalidating exactly the edited service's cached
    cells.
    """
    return get_spec(name).fingerprint()


def create_client(
    name: str,
    simulator: NetworkSimulator,
    backend: Optional[StorageBackend] = None,
) -> CloudStorageClient:
    """Instantiate the named service's client bound to ``simulator``.

    A dedicated :class:`StorageBackend` is created when none is supplied, so
    independent experiments never share server-side state by accident.
    Every service — built-in or registered — gets the generic engine
    interpreting its spec's profile.
    """
    profile = get_profile(name)
    if backend is None:
        backend = StorageBackend(name.lower())
    return CloudStorageClient(simulator, profile, backend)

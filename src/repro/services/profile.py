"""Service profiles: everything that distinguishes one cloud service from another.

A profile is a *description* of a service's design — capabilities, server
placement, connection management, polling and client-side processing costs.
The generic client engine in :mod:`repro.services.base` interprets the
profile; a :class:`~repro.services.spec.ServiceSpec` (the built-ins are
spec files reporting the paper's values) is its serializable form.

Every class here is frozen and a profile holds its servers in tuples, so
the one profile a spec builds is shared by every client and load cell of
the process without any of them being able to change it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.geo.datacenters import DataCenter
from repro.geo.locations import TESTBED_LOCATION, Location
from repro.geo.vantage import rtt_between
from repro.netsim.endpoint import Endpoint
from repro.netsim.link import NetworkPath
from repro.sync.compression import CompressionPolicy
from repro.sync.protocol import MessageSizes
from repro.units import mbps

__all__ = [
    "ServiceCapabilities",
    "ServerSpec",
    "PollingSpec",
    "LoginSpec",
    "TimingSpec",
    "ConnectionPolicy",
    "ServiceProfile",
]


@dataclass(frozen=True)
class ServiceCapabilities:
    """Which of the §4 capabilities the client implements (Table 1)."""

    #: One of ``"none"``, ``"fixed"``, ``"variable"``.
    chunking: str = "none"
    #: Chunk size in bytes (exact for fixed chunking, average for variable).
    chunk_size: Optional[int] = None
    #: Transmit several small files/chunks as one pipelined object.
    bundling: bool = False
    #: Compression policy applied before transmission.
    compression: CompressionPolicy = CompressionPolicy.NEVER
    #: Skip uploading content the server already stores.
    deduplication: bool = False
    #: Transmit only modified portions of known files.
    delta_encoding: bool = False
    #: Encrypt data on the client before it leaves the machine (Wuala).
    client_side_encryption: bool = False

    def summary_row(self) -> dict:
        """Row for the Table 1 reproduction."""
        if self.chunking == "none":
            chunking = "no"
        elif self.chunking == "fixed":
            chunking = f"{(self.chunk_size or 0) // 1_000_000} MB"
        else:
            chunking = "var."
        compression = {
            CompressionPolicy.NEVER: "no",
            CompressionPolicy.ALWAYS: "always",
            CompressionPolicy.SMART: "smart",
        }[self.compression]
        return {
            "chunking": chunking,
            "bundling": "yes" if self.bundling else "no",
            "compression": compression,
            "deduplication": "yes" if self.deduplication else "no",
            "delta_encoding": "yes" if self.delta_encoding else "no",
        }


@dataclass(frozen=True)
class ServerSpec:
    """One server role of the service: where it is and how fast the path to it is."""

    hostname: str
    datacenter: DataCenter
    #: Upload bottleneck towards this server, bits per second.
    rate_up_bps: float = mbps(20.0)
    #: Download bottleneck from this server, bits per second.
    rate_down_bps: float = mbps(50.0)
    #: Server-side processing time per application request.
    server_processing: float = 0.015
    #: TCP port (443 for HTTPS, 80 for the plain-HTTP notification channels).
    port: int = 443
    #: Whether connections to this server use TLS.
    tls: bool = True

    def __post_init__(self) -> None:
        # Memos of endpoint() and path_from() by argument.  Both are pure
        # functions of the frozen fields, so a memo never goes stale; they
        # are attributes, not fields, so equality, hashing and the spec's
        # canonical form ignore them.
        object.__setattr__(self, "_endpoints", {})
        object.__setattr__(self, "_paths", {})

    def endpoint(self, host_index: int = 1) -> Endpoint:
        """Network endpoint (hostname + IP inside the data center's prefix)."""
        endpoint = self._endpoints.get(host_index)
        if endpoint is None:
            endpoint = Endpoint(hostname=self.hostname, ip=self.datacenter.address(host_index), port=self.port)
            self._endpoints[host_index] = endpoint
        return endpoint

    def path_from(self, vantage: Location = TESTBED_LOCATION) -> NetworkPath:
        """Network path from the test computer's location to this server."""
        path = self._paths.get(vantage)
        if path is None:
            path = NetworkPath(
                rtt=rtt_between(vantage, self.datacenter.location, jitter_label=self.hostname),
                uplink_bps=self.rate_up_bps,
                downlink_bps=self.rate_down_bps,
                server_processing=self.server_processing,
            )
            self._paths[vantage] = path
        return path


@dataclass(frozen=True)
class PollingSpec:
    """Background keep-alive/notification behaviour while the client is idle (§3.1)."""

    #: Seconds between polls.
    interval: float = 60.0
    #: Request bytes per poll (application payload).
    request_bytes: int = 250
    #: Response bytes per poll.
    response_bytes: int = 180
    #: Open a brand new HTTPS connection for every poll (Amazon Cloud Drive).
    new_connection_per_poll: bool = False
    #: Use the plain-HTTP notification channel instead of the control channel.
    use_notification_channel: bool = False


@dataclass(frozen=True)
class LoginSpec:
    """Traffic exchanged when the client starts and authenticates (§3.1, Fig. 1)."""

    #: Number of distinct servers contacted during login (SkyDrive: 13).
    server_count: int = 3
    #: Total login traffic in bytes, spread over those servers.
    total_bytes: int = 36_000
    #: Pattern used to derive per-login-server hostnames; ``{index}`` is replaced.
    hostname_pattern: str = "auth{index}.example.com"
    #: Response bytes of the notification-channel subscription performed right
    #: after login (Dropbox opens its plain-HTTP notification channel with a
    #: long-poll GET).  ``0`` means no subscription exchange.
    notification_subscribe_bytes: int = 0


@dataclass(frozen=True)
class TimingSpec:
    """Client-side processing costs (seconds)."""

    #: Delay between a file-system change and the client reacting to it.
    detection_delay: float = 1.0
    #: Extra wait before starting the upload of a multi-file batch (bundling timer).
    bundle_wait: float = 0.0
    #: Per-file pre-processing before any upload starts (indexing, queueing).
    per_file_preprocess: float = 0.01
    #: Hashing/encryption cost per megabyte of new content, applied before upload.
    per_mb_preprocess: float = 0.05
    #: Per-file processing inside the upload loop (API calls, bookkeeping).
    per_file_processing: float = 0.02
    #: Per-file server-side commit cost incurred on the storage channel
    #: (models Dropbox's per-file registration inside bundled uploads).
    per_file_storage_commit: float = 0.0


@dataclass(frozen=True)
class ConnectionPolicy:
    """How the client manages TCP/TLS connections during synchronization (§4.2)."""

    #: Open a new TCP+TLS storage connection for every file (Google Drive, Cloud Drive).
    new_storage_connection_per_file: bool = False
    #: Number of *extra* control connections opened per file operation (Cloud Drive: 3).
    control_connections_per_file: int = 0
    #: Wait for an application-layer acknowledgement after each file (SkyDrive, Wuala).
    wait_app_ack_per_file: bool = False
    #: Keep one persistent control connection across the whole session.
    persistent_control_connection: bool = True
    #: Keep one persistent storage connection across a batch (when not per-file).
    persistent_storage_connection: bool = True
    #: Exchange a per-file commit message on the control connection (services
    #: acknowledging files on the storage channel instead set this to False).
    per_file_commit_on_control: bool = True


@dataclass(frozen=True)
class ServiceProfile:
    """Complete description of one personal cloud storage service.

    Frozen: the server collections are stored as tuples, whatever sequence
    the caller passed.
    """

    name: str
    display_name: str
    capabilities: ServiceCapabilities
    control_servers: Tuple[ServerSpec, ...]
    storage_servers: Tuple[ServerSpec, ...]
    notification_server: Optional[ServerSpec] = None
    polling: PollingSpec = field(default_factory=PollingSpec)
    login: LoginSpec = field(default_factory=LoginSpec)
    timing: TimingSpec = field(default_factory=TimingSpec)
    connections: ConnectionPolicy = field(default_factory=ConnectionPolicy)
    message_sizes: MessageSizes = field(default_factory=MessageSizes)
    #: Extra control-plane bytes exchanged once per synchronization batch
    #: (capability signalling, client telemetry); calibrates §5.3 overheads.
    per_sync_control_overhead_bytes: int = 0
    #: Maximum payload carried by one bundle (only used when bundling).
    max_bundle_bytes: int = 4_000_000
    #: Maximum number of entries per bundle.
    max_bundle_files: int = 50

    def __post_init__(self) -> None:
        object.__setattr__(self, "control_servers", tuple(self.control_servers))
        object.__setattr__(self, "storage_servers", tuple(self.storage_servers))
        if not self.control_servers:
            raise ConfigurationError(f"{self.name}: at least one control server is required")
        if not self.storage_servers:
            raise ConfigurationError(f"{self.name}: at least one storage server is required")

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def primary_control(self) -> ServerSpec:
        """The control server the client talks to by default.

        Tuple order encodes the server-selection behaviour observed in the
        paper: the first entry is the one the client actually uses from the
        European testbed (services doing geo-steering, like Google Drive,
        place their nearest front-end first when the profile is built).
        """
        return self.control_servers[0]

    @property
    def primary_storage(self) -> ServerSpec:
        """The storage server the client uploads to by default (first entry)."""
        return self.storage_servers[0]

    @property
    def control_hostnames(self) -> List[str]:
        """DNS names of control (and notification/login) servers."""
        names = [server.hostname for server in self.control_servers]
        if self.notification_server is not None:
            names.append(self.notification_server.hostname)
        names.extend(self.login_hostnames())
        return sorted(set(names))

    @property
    def storage_hostnames(self) -> List[str]:
        """DNS names of storage servers."""
        return sorted({server.hostname for server in self.storage_servers})

    @property
    def all_hostnames(self) -> List[str]:
        """Every DNS name the client may contact."""
        return sorted(set(self.control_hostnames) | set(self.storage_hostnames))

    def login_hostnames(self) -> List[str]:
        """Hostnames contacted during login, derived from the login pattern."""
        return [self.login.hostname_pattern.format(index=index + 1) for index in range(self.login.server_count)]

    @functools.cached_property
    def login_servers(self) -> Tuple[ServerSpec, ...]:
        """The login servers: the primary control server under each login hostname.

        Built once per profile, so every login reuses their memoized paths
        and endpoints.  The tuple lives in the instance dict, not in a
        field, so equality, hashing and the spec's canonical form ignore it.
        """
        return tuple(replace(self.primary_control, hostname=name) for name in self.login_hostnames())

    def capability_row(self) -> dict:
        """Row of the Table 1 reproduction, keyed by capability name."""
        return self.capabilities.summary_row()

"""Generic cloud-storage client engine.

The engine interprets a :class:`~repro.services.profile.ServiceProfile` and
drives the network simulator accordingly: login, background polling, and —
most importantly — the synchronization of file batches, composing the
capability building blocks (chunking, deduplication, delta encoding,
compression, bundling, client-side encryption) exactly as each service's
profile prescribes.

Every byte the engine sends or receives goes through simulated TCP/TLS
connections, so the capture-based benchmarking framework sees realistic
traffic: handshakes, per-request headers, payload bursts, polling beacons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ServiceError
from repro.filegen.model import GeneratedFile
from repro.netsim.events import ScheduledEvent
from repro.netsim.http import HTTPChannel, HTTPExchange
from repro.netsim.simulator import NetworkSimulator
from repro.netsim.tls import TLSParameters
from repro.services.backend import StorageBackend
from repro.services.profile import ServerSpec, ServiceProfile
from repro.sync.bundling import BundleBuilder, BundleEntry
from repro.sync.chunking import make_chunker
from repro.sync.compression import Compressor
from repro.sync.delta import DeltaCodec
from repro.sync.encryption import ConvergentEncryptor, ENCRYPTION_HEADER_BYTES
from repro.sync.protocol import ChunkUploadMessage, CommitMessage, FileMetadataMessage, ListChangesMessage

__all__ = ["ChunkUpload", "PreparedFile", "SyncSummary", "CloudStorageClient"]


@dataclass
class ChunkUpload:
    """Transmission plan for one chunk of one file."""

    digest: str
    logical_bytes: int
    transmit_bytes: int
    duplicate: bool = False
    compressed: bool = False
    via_delta: bool = False


@dataclass
class PreparedFile:
    """A file after local processing, ready to be uploaded."""

    file: GeneratedFile
    chunk_uploads: List[ChunkUpload] = field(default_factory=list)
    used_delta: bool = False

    @property
    def logical_size(self) -> int:
        """Original size of the file in bytes."""
        return self.file.size

    @property
    def transmit_bytes(self) -> int:
        """Bytes that will actually be pushed to the storage servers."""
        return sum(upload.transmit_bytes for upload in self.chunk_uploads if not upload.duplicate)

    @property
    def chunk_digests(self) -> List[str]:
        """Digests of every chunk (uploaded or deduplicated), in file order."""
        return [upload.digest for upload in self.chunk_uploads]


@dataclass
class SyncSummary:
    """Client-side summary of one synchronization batch.

    The benchmark metrics themselves are computed from the captured traffic;
    this summary exists for examples, logging and for tests that validate
    the client's internal decisions (e.g. how many chunks were deduplicated).
    """

    service: str
    started_at: float
    finished_at: float
    file_count: int
    logical_bytes: int
    transmitted_payload_bytes: int
    chunks_uploaded: int = 0
    chunks_deduplicated: int = 0
    used_delta: bool = False
    used_bundling: bool = False
    bundles: int = 0
    storage_connections_opened: int = 0
    control_connections_opened: int = 0

    @property
    def duration(self) -> float:
        """Client-side elapsed time of the batch."""
        return self.finished_at - self.started_at


class CloudStorageClient:
    """The client of every simulated service, driven by its profile."""

    #: User identity used for the server-side namespace.
    user = "benchmark-user"

    def __init__(self, simulator: NetworkSimulator, profile: ServiceProfile, backend: Optional[StorageBackend] = None) -> None:
        self._sim = simulator
        self.profile = profile
        self.backend = backend if backend is not None else StorageBackend(profile.name)
        caps = profile.capabilities
        self._chunker = make_chunker(caps.chunking, caps.chunk_size)
        self._compressor = Compressor(caps.compression)
        self._delta_codec = DeltaCodec()
        self._encryptor = ConvergentEncryptor() if caps.client_side_encryption else None
        self._bundler = BundleBuilder(profile.max_bundle_bytes, profile.max_bundle_files)
        self._tls = TLSParameters()
        self._revisions: Dict[str, bytes] = {}
        self._control_channel: Optional[HTTPChannel] = None
        self._notification_channel: Optional[HTTPChannel] = None
        self._storage_channel: Optional[HTTPChannel] = None
        self._polling_event: Optional[ScheduledEvent] = None
        self._logged_in = False
        self.control_connections_opened = 0
        self.storage_connections_opened = 0

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #
    def _open_channel(self, server: ServerSpec) -> HTTPChannel:
        """Open a TCP(+TLS) connection to ``server`` and wrap it in an HTTP channel."""
        connection = self._sim.open_connection(
            server.endpoint(),
            server.path_from(),
            tls=self._tls if server.tls else None,
        )
        return HTTPChannel(connection)

    def _control(self) -> HTTPChannel:
        """Return the control channel, opening it if necessary."""
        if self._control_channel is None or not self._control_channel.connection.is_open:
            self._control_channel = self._open_channel(self.profile.primary_control)
            self.control_connections_opened += 1
        return self._control_channel

    def _notification(self) -> HTTPChannel:
        """Return the notification channel (falls back to the control channel)."""
        server = self.profile.notification_server
        if server is None:
            return self._control()
        if self._notification_channel is None or not self._notification_channel.connection.is_open:
            self._notification_channel = self._open_channel(server)
            self.control_connections_opened += 1
        return self._notification_channel

    def _storage(self) -> HTTPChannel:
        """Return the persistent storage channel, opening it if necessary."""
        if self._storage_channel is None or not self._storage_channel.connection.is_open:
            self._storage_channel = self._open_channel(self.profile.primary_storage)
            self.storage_connections_opened += 1
        return self._storage_channel

    def _open_storage_channel(self) -> HTTPChannel:
        """Open a fresh storage connection (per-file connection policies)."""
        channel = self._open_channel(self.profile.primary_storage)
        self.storage_connections_opened += 1
        return channel

    # ------------------------------------------------------------------ #
    # Lifecycle: login, polling, disconnect
    # ------------------------------------------------------------------ #
    def login(self) -> None:
        """Authenticate and fetch the initial file-list state (§3.1).

        The login traffic is spread over ``login.server_count`` distinct
        servers (SkyDrive contacts 13 of them and moves ~150 kB in total,
        four times more than the other services).
        """
        if self._logged_in:
            return
        login_started = self._sim.now
        spec = self.profile.login
        per_server = max(spec.total_bytes // max(spec.server_count, 1), 500)
        for index, server in enumerate(self.profile.login_servers):
            channel = self._open_channel(server)
            self.control_connections_opened += 1
            # Roughly one quarter of the login volume goes up (credentials,
            # device state), the rest comes down (account metadata, file list).
            channel.post(per_server // 4, per_server - per_server // 4, note=f"login-{index}")
            channel.close()
        # Initial change-list query on the persistent control connection.
        message = ListChangesMessage(sizes=self.profile.message_sizes)
        self._control().post(message.request_bytes, message.response_bytes, note="initial-list-changes")
        self._logged_in = True
        # Services with a dedicated notification protocol establish the
        # channel right after login (Dropbox's plain-HTTP long poll, §3.1).
        if spec.notification_subscribe_bytes > 0:
            self._notification().get(spec.notification_subscribe_bytes, note="notification-subscribe")
        tracer = self._sim.tracer
        if tracer.enabled:
            tracer.sim_span(
                "sync.login",
                login_started,
                self._sim.now,
                track=self._sim.trace_track,
                service=self.profile.name,
                servers=spec.server_count,
            )

    def start_polling(self) -> None:
        """Begin the background polling/notification loop."""
        if self._polling_event is not None:
            return
        self._schedule_next_poll()

    def stop_polling(self) -> None:
        """Cancel the background polling loop."""
        if self._polling_event is not None:
            self._polling_event.cancel()
            self._polling_event = None

    def _schedule_next_poll(self) -> None:
        self._polling_event = self._sim.schedule_in(
            self.profile.polling.interval, self._poll_once, label=f"{self.profile.name}-poll"
        )

    def _poll_once(self) -> None:
        """One keep-alive/notification poll, then reschedule.

        Persistent notification channels use a lightweight framing (no full
        HTTP headers per beacon); clients that open a brand new HTTPS
        connection for every poll (Amazon Cloud Drive) pay the complete
        TCP + TLS + HTTP cost each time, which is what makes their idle
        footprint two orders of magnitude larger (Fig. 1).
        """
        polling = self.profile.polling
        if polling.new_connection_per_poll:
            channel = self._open_channel(self.profile.primary_control)
            self.control_connections_opened += 1
            channel.post(polling.request_bytes, polling.response_bytes, note="poll")
            channel.close()
        else:
            channel = self._notification() if polling.use_notification_channel else self._control()
            channel.connection.request(polling.request_bytes, polling.response_bytes, note="poll")
        tracer = self._sim.tracer
        if tracer.enabled:
            tracer.count("sync.polls")
        self._schedule_next_poll()

    def disconnect(self) -> None:
        """Close every open channel and stop polling."""
        self.stop_polling()
        for channel in (self._control_channel, self._notification_channel, self._storage_channel):
            if channel is not None and channel.connection.is_open:
                channel.close()
        self._control_channel = None
        self._notification_channel = None
        self._storage_channel = None
        self._logged_in = False

    # ------------------------------------------------------------------ #
    # Synchronization
    # ------------------------------------------------------------------ #
    def sync_files(self, files: Sequence[GeneratedFile]) -> SyncSummary:
        """Synchronize a batch of new or modified files to the cloud.

        This is the client reacting to local file-system changes: it detects
        the change, pre-processes the content (hashing, optional encryption),
        exchanges metadata with the control plane, pushes the required bytes
        to the storage plane and commits the result.
        """
        if not files:
            raise ServiceError("sync_files() requires at least one file")
        started = self._sim.now
        tracer = self._sim.tracer
        track = self._sim.trace_track
        self._local_processing_delay(files)
        # Digests scheduled for upload earlier in this same batch: a real
        # deduplicating client hashes the whole batch before transferring,
        # so identical chunks dedup against each other even though none of
        # them has reached the server yet (§4.3).
        batch_digests: set = set()
        prepared = [self._prepare_file(file, batch_digests) for file in files]
        if tracer.enabled:
            tracer.sim_span(
                "sync.prepare",
                started,
                self._sim.now,
                track=track,
                service=self.profile.name,
                files=len(files),
            )
        upload_started = self._sim.now
        summary = self._upload_prepared(prepared)
        if tracer.enabled:
            tracer.sim_span(
                "sync.upload",
                upload_started,
                self._sim.now,
                track=track,
                service=self.profile.name,
                files=len(prepared),
            )
        summary.started_at = started
        summary.finished_at = self._sim.now
        finalize_started = self._sim.now
        self._finalize(prepared)
        if tracer.enabled:
            tracer.sim_span(
                "sync.finalize",
                finalize_started,
                self._sim.now,
                track=track,
                service=self.profile.name,
            )
            tracer.sim_span(
                "sync.batch",
                started,
                self._sim.now,
                track=track,
                service=self.profile.name,
                files=len(files),
            )
        return summary

    def delete_files(self, names: Sequence[str]) -> None:
        """Delete files from the synced folder (content stays server-side)."""
        if not names:
            return
        message = CommitMessage(file_count=len(names), sizes=self.profile.message_sizes)
        self._control().post(message.request_bytes, message.response_bytes, note="delete")
        for name in names:
            if self.backend.get_file(self.user, name) is not None:
                self.backend.delete_file(self.user, name)
            self._revisions.pop(name, None)

    # ------------------------------------------------------------------ #
    # Local processing
    # ------------------------------------------------------------------ #
    def _local_processing_delay(self, files: Sequence[GeneratedFile]) -> None:
        """Advance the clock by the client-side cost of noticing and indexing changes."""
        timing = self.profile.timing
        delay = timing.detection_delay
        if len(files) > 1 and self.profile.capabilities.bundling:
            delay += timing.bundle_wait
        delay += timing.per_file_preprocess * len(files)
        total_bytes = sum(file.size for file in files)
        delay += timing.per_mb_preprocess * total_bytes / 1_000_000.0
        if self._encryptor is not None:
            delay += self._encryptor.cpu_time(total_bytes)
        self._sim.run_for(delay)

    def _chunk_identity(self, piece: bytes, plain_digest: str) -> str:
        """Content identity used for deduplication (ciphertext digest for Wuala)."""
        if self._encryptor is not None:
            return self._encryptor.encrypt(piece).digest
        return plain_digest

    def _transmit_size(self, piece: bytes) -> ChunkUpload:
        """Transmission size of one chunk after compression/encryption."""
        result = self._compressor.process(piece)
        size = result.transmitted_size
        if self._encryptor is not None:
            size += ENCRYPTION_HEADER_BYTES
        return ChunkUpload(digest="", logical_bytes=len(piece), transmit_bytes=size, compressed=result.compressed)

    def _prepare_file(self, file: GeneratedFile, batch_digests: Optional[set] = None) -> PreparedFile:
        """Apply chunking, deduplication, delta encoding and compression to one file.

        ``batch_digests`` carries the chunk identities already scheduled for
        upload earlier in the same batch, so duplicate chunks within one
        ``sync_files()`` call deduplicate against each other instead of each
        being uploaded in full (the server-side store only learns about them
        in ``_finalize``, after the whole batch is transferred).
        """
        caps = self.profile.capabilities
        content = file.content
        chunks = self._chunker.chunk(content)
        old_content = self._revisions.get(file.name) if caps.delta_encoding else None
        use_delta = old_content is not None and old_content != content
        old_chunks = self._chunker.chunk(old_content) if use_delta else []
        uploads: List[ChunkUpload] = []
        for index, chunk in enumerate(chunks):
            piece = content[chunk.offset:chunk.offset + chunk.length]
            identity = self._chunk_identity(piece, chunk.digest)
            already_in_batch = batch_digests is not None and identity in batch_digests
            if caps.deduplication and (already_in_batch or self.backend.has_chunk(identity)):
                uploads.append(ChunkUpload(digest=identity, logical_bytes=len(piece), transmit_bytes=0, duplicate=True))
                continue
            if use_delta and index < len(old_chunks):
                upload = self._delta_upload(piece, old_content, old_chunks[index])
            else:
                upload = self._transmit_size(piece)
            upload.digest = identity
            uploads.append(upload)
            if batch_digests is not None:
                batch_digests.add(identity)
        return PreparedFile(file=file, chunk_uploads=uploads, used_delta=use_delta and any(u.via_delta for u in uploads))

    def _delta_upload(self, new_piece: bytes, old_content: bytes, old_chunk) -> ChunkUpload:
        """Delta-encode one chunk against the corresponding chunk of the old revision.

        Dropbox computes deltas chunk-by-chunk, which is why modifications
        that shift content across its 4 MB chunk boundaries inflate the
        uploaded volume beyond the modified bytes (Fig. 4, right plot).
        """
        old_piece = old_content[old_chunk.offset:old_chunk.offset + old_chunk.length]
        signature = self._delta_codec.compute_signature(old_piece)
        delta = self._delta_codec.compute_delta(new_piece, signature)
        literal = b"".join(op.data for op in delta.ops if op.kind.value == "literal")
        compressed_literal = self._compressor.process(literal).transmitted_size if literal else 0
        delta_size = compressed_literal + 12 * len(delta.ops)
        full = self._transmit_size(new_piece)
        if delta_size < full.transmit_bytes:
            return ChunkUpload(
                digest="",
                logical_bytes=len(new_piece),
                transmit_bytes=delta_size,
                compressed=True,
                via_delta=True,
            )
        return full

    # ------------------------------------------------------------------ #
    # Upload engine
    # ------------------------------------------------------------------ #
    def _upload_prepared(self, prepared: List[PreparedFile]) -> SyncSummary:
        """Push prepared files to the cloud according to the connection policy."""
        control_before = self.control_connections_opened
        storage_before = self.storage_connections_opened
        if self.profile.capabilities.bundling:
            bundles = self._upload_bundled(prepared)
            used_bundling = True
        else:
            bundles = 0
            used_bundling = False
            self._upload_per_file(prepared)
        uploads = [upload for item in prepared for upload in item.chunk_uploads]
        return SyncSummary(
            service=self.profile.name,
            started_at=0.0,
            finished_at=0.0,
            file_count=len(prepared),
            logical_bytes=sum(item.logical_size for item in prepared),
            transmitted_payload_bytes=sum(item.transmit_bytes for item in prepared),
            chunks_uploaded=sum(1 for upload in uploads if not upload.duplicate),
            chunks_deduplicated=sum(1 for upload in uploads if upload.duplicate),
            used_delta=any(item.used_delta for item in prepared),
            used_bundling=used_bundling,
            bundles=bundles,
            storage_connections_opened=self.storage_connections_opened - storage_before,
            control_connections_opened=self.control_connections_opened - control_before,
        )

    def _batch_metadata_exchange(self, prepared: List[PreparedFile]) -> None:
        """Register the whole batch (names, sizes, chunk digests) with the control plane."""
        sizes = self.profile.message_sizes
        request = sum(
            FileMetadataMessage(chunk_count=len(item.chunk_uploads), sizes=sizes).request_bytes
            for item in prepared
        )
        response = sum(
            FileMetadataMessage(chunk_count=len(item.chunk_uploads), sizes=sizes).response_bytes
            for item in prepared
        )
        self._control().post(request, response, note="batch-metadata")
        if self.profile.per_sync_control_overhead_bytes > 0:
            extra = self.profile.per_sync_control_overhead_bytes
            self._control().post(extra // 2, extra - extra // 2, note="capability-signalling")

    def _upload_bundled(self, prepared: List[PreparedFile]) -> int:
        """Bundled upload path (Dropbox): few large storage requests, one commit."""
        self._batch_metadata_exchange(prepared)
        entries = [
            BundleEntry(name=item.file.name, payload_size=upload.transmit_bytes, digest=upload.digest)
            for item in prepared
            for upload in item.chunk_uploads
            if not upload.duplicate and upload.transmit_bytes > 0
        ]
        bundles = self._bundler.pack(entries) if entries else []
        timing = self.profile.timing
        sizes = self.profile.message_sizes
        for bundle in bundles:
            channel = self._storage()
            envelope = ChunkUploadMessage(payload_bytes=bundle.wire_size, sizes=sizes)
            channel.post(envelope.request_bytes, envelope.response_bytes, note="bundle-put")
            if timing.per_file_storage_commit > 0:
                self._sim.run_for(timing.per_file_storage_commit * len(bundle))
        commit = CommitMessage(file_count=len(prepared), sizes=sizes)
        self._control().post(commit.request_bytes, commit.response_bytes, note="batch-commit")
        return len(bundles)

    def _upload_per_file(self, prepared: List[PreparedFile]) -> None:
        """Per-file upload path, honouring the service's connection policy."""
        policy = self.profile.connections
        timing = self.profile.timing
        sizes = self.profile.message_sizes
        if policy.persistent_control_connection:
            self._batch_metadata_exchange(prepared)
        for item in prepared:
            if timing.per_file_processing > 0:
                self._sim.run_for(timing.per_file_processing)
            # Extra throw-away control connections per file operation (Cloud Drive).
            for index in range(policy.control_connections_per_file):
                channel = self._open_channel(self.profile.primary_control)
                self.control_connections_opened += 1
                message = ListChangesMessage(sizes=sizes)
                channel.post(message.request_bytes, message.response_bytes, note=f"per-file-control-{index}")
                channel.close()
            if policy.new_storage_connection_per_file:
                storage = self._open_storage_channel()
            else:
                storage = self._storage()
            for upload in item.chunk_uploads:
                if upload.duplicate or upload.transmit_bytes == 0:
                    continue
                envelope = ChunkUploadMessage(payload_bytes=upload.transmit_bytes, sizes=sizes)
                storage.post(envelope.request_bytes, envelope.response_bytes, note="chunk-put")
            if policy.wait_app_ack_per_file:
                storage.post(sizes.commit_request // 2, sizes.chunk_ack, note="file-app-ack")
            if policy.new_storage_connection_per_file:
                storage.close()
            if policy.persistent_control_connection and policy.per_file_commit_on_control:
                commit = CommitMessage(file_count=1, sizes=sizes)
                self._control().post(commit.request_bytes, commit.response_bytes, note="file-commit")

    def _finalize(self, prepared: List[PreparedFile]) -> None:
        """Record the batch server-side and update the local revision store."""
        for item in prepared:
            for upload in item.chunk_uploads:
                if not upload.duplicate:
                    self.backend.store_chunk(upload.digest, upload.logical_bytes)
            self.backend.commit_file(self.user, item.file.name, item.logical_size, item.chunk_digests)
            self._revisions[item.file.name] = item.file.content

    # ------------------------------------------------------------------ #
    # Introspection helpers used by experiments and examples
    # ------------------------------------------------------------------ #
    @property
    def storage_hostnames(self) -> List[str]:
        """DNS names whose flows count as storage flows for this client."""
        return self.profile.storage_hostnames

    @property
    def control_hostnames(self) -> List[str]:
        """DNS names of control/login/notification servers."""
        return self.profile.control_hostnames

    @property
    def known_revisions(self) -> Dict[str, int]:
        """Locally tracked synced files and their sizes."""
        return {name: len(content) for name, content in self._revisions.items()}

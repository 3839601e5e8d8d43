"""Capability probes (§4): detect client features from traffic alone.

Each probe builds the specific file batch §4 prescribes, lets the service
synchronize it on a fresh testbed, and inspects the captured traffic to
decide whether the capability is implemented.  The probes never look at the
service profile — that is the whole point of the methodology: pointing the
same probes at a new, unknown service yields its Table 1 row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.capture import analysis
from repro.core.workloads import BUNDLING_TOTAL_BYTES, DELTA_CHANGE_BYTES
from repro.filegen.batch import generate_batch
from repro.filegen.binary import generate_binary
from repro.filegen.jpeg import generate_fake_jpeg
from repro.filegen.model import FileKind
from repro.filegen.text import generate_text
from repro.netsim.scenario import ScenarioSpec
from repro.randomness import DEFAULT_SEED, derive_seed
from repro.services.registry import SERVICE_NAMES
from repro.testbed.controller import Observation, TestbedController
from repro.units import MB

__all__ = [
    "ChunkingResult",
    "BundlingResult",
    "DeduplicationResult",
    "DeltaEncodingResult",
    "CompressionResult",
    "ServiceCapabilities",
    "CapabilityMatrix",
    "CapabilityProber",
]

#: Idle gap separating two application-level bursts in the storage flow.
BURST_GAP_SECONDS = 0.02


def _storage_upload_bytes(observation: Observation) -> int:
    """Application payload pushed to storage servers during the observation."""
    return observation.storage_trace().uploaded_payload_bytes()


def _storage_bursts(observation: Observation) -> int:
    """Outbound payload bursts on storage flows (pauses reveal chunking/acks)."""
    return analysis.count_application_bursts(observation.storage_trace(), gap=BURST_GAP_SECONDS)


def _storage_burst_sizes(observation: Observation) -> List[int]:
    """Outbound payload bytes per burst on storage flows."""
    return analysis.burst_payload_sizes(observation.storage_trace(), gap=BURST_GAP_SECONDS)


def _storage_connections(observation: Observation) -> int:
    """TCP connections opened towards storage servers during the observation."""
    return analysis.count_tcp_connections(observation.storage_trace())


# --------------------------------------------------------------------------- #
# Result types
# --------------------------------------------------------------------------- #
@dataclass
class ChunkingResult:
    """Outcome of the chunking probe (§4.1)."""

    service: str
    observations: List[Tuple[int, int]] = field(default_factory=list)  # (file size, bursts)
    strategy: str = "none"
    estimated_chunk_size: Optional[int] = None

    def as_cell(self) -> str:
        """Table 1 cell."""
        if self.strategy == "none":
            return "no"
        if self.strategy == "fixed" and self.estimated_chunk_size:
            return f"{round(self.estimated_chunk_size / MB)} MB"
        return "var."


@dataclass
class BundlingResult:
    """Outcome of the bundling probe (§4.2)."""

    service: str
    per_file_count: Dict[int, Dict[str, float]] = field(default_factory=dict)
    bundling: bool = False

    def as_cell(self) -> str:
        return "yes" if self.bundling else "no"


@dataclass
class DeduplicationResult:
    """Outcome of the client-side deduplication probe (§4.3)."""

    service: str
    file_size: int = 0
    step_upload_bytes: Dict[str, int] = field(default_factory=dict)
    deduplication: bool = False
    survives_delete: bool = False

    def as_cell(self) -> str:
        return "yes" if self.deduplication else "no"


@dataclass
class DeltaEncodingResult:
    """Outcome of the delta-encoding probe (§4.4)."""

    service: str
    file_size: int = 0
    change_bytes: int = 0
    append_upload_bytes: int = 0
    random_upload_bytes: int = 0
    delta_encoding: bool = False

    def as_cell(self) -> str:
        return "yes" if self.delta_encoding else "no"


@dataclass
class CompressionResult:
    """Outcome of the compression probe (§4.5)."""

    service: str
    file_size: int = 0
    text_upload_bytes: int = 0
    binary_upload_bytes: int = 0
    fake_jpeg_upload_bytes: int = 0
    policy: str = "no"  # "no", "always" or "smart"

    def as_cell(self) -> str:
        return self.policy


@dataclass
class ServiceCapabilities:
    """All five §4 probe outcomes for a single service: one Table 1 row."""

    service: str
    chunking: ChunkingResult
    bundling: BundlingResult
    deduplication: DeduplicationResult
    delta_encoding: DeltaEncodingResult
    compression: CompressionResult


@dataclass
class CapabilityMatrix:
    """The Table 1 reproduction: one row per service, one column per capability."""

    chunking: Dict[str, ChunkingResult] = field(default_factory=dict)
    bundling: Dict[str, BundlingResult] = field(default_factory=dict)
    deduplication: Dict[str, DeduplicationResult] = field(default_factory=dict)
    delta_encoding: Dict[str, DeltaEncodingResult] = field(default_factory=dict)
    compression: Dict[str, CompressionResult] = field(default_factory=dict)

    def services(self) -> List[str]:
        """Services present in the matrix."""
        names = set(self.chunking) | set(self.bundling) | set(self.deduplication)
        names |= set(self.delta_encoding) | set(self.compression)
        return [name for name in SERVICE_NAMES if name in names] + sorted(names - set(SERVICE_NAMES))

    def add_service(self, capabilities: ServiceCapabilities) -> None:
        """Merge one service's probe outcomes into the matrix."""
        service = capabilities.service
        self.chunking[service] = capabilities.chunking
        self.bundling[service] = capabilities.bundling
        self.deduplication[service] = capabilities.deduplication
        self.delta_encoding[service] = capabilities.delta_encoding
        self.compression[service] = capabilities.compression

    def rows(self) -> List[dict]:
        """Rows matching the layout of Table 1."""
        rows = []
        for service in self.services():
            rows.append(
                {
                    "service": service,
                    "chunking": self.chunking[service].as_cell() if service in self.chunking else "?",
                    "bundling": self.bundling[service].as_cell() if service in self.bundling else "?",
                    "compression": self.compression[service].as_cell() if service in self.compression else "?",
                    "deduplication": self.deduplication[service].as_cell() if service in self.deduplication else "?",
                    "delta_encoding": self.delta_encoding[service].as_cell() if service in self.delta_encoding else "?",
                }
            )
        return rows


# --------------------------------------------------------------------------- #
# The prober
# --------------------------------------------------------------------------- #
class CapabilityProber:
    """Runs the §4 capability checks against any registered service.

    ``scenario`` overlays a network condition on every probe's testbed;
    probe verdicts are threshold-based on uploaded volumes and burst
    counts, so they stay stable under realistic conditions — but an
    extreme scenario *can* flip one, which is exactly the kind of
    methodology-validity question scenario sweeps exist to ask.
    """

    def __init__(self, seed: int = DEFAULT_SEED, scenario: Optional["ScenarioSpec"] = None) -> None:
        self._seed = seed
        self._scenario = scenario

    def _controller(self, service: str) -> TestbedController:
        """A fresh testbed for one probe, under the prober's scenario."""
        return TestbedController(service, scenario=self._scenario, seed=self._seed)

    # -- chunking -------------------------------------------------------- #
    def probe_chunking(
        self,
        service: str,
        sizes: Sequence[int] = (12 * MB, 18 * MB),
        same_size_repeats: int = 2,
    ) -> ChunkingResult:
        """Detect whether (and how) large files are split into chunks.

        Large files of two different sizes — plus repeated files of the first
        size — are uploaded while monitoring pauses in the storage flow.
        A single uninterrupted transfer means no chunking; a consistent
        bytes-per-pause ratio across sizes and repetitions means fixed-size
        chunks; anything else is variable chunking.
        """
        result = ChunkingResult(service=service)
        controller = self._controller(service)
        controller.start_session()
        burst_size_lists: List[List[int]] = []
        files = []
        for index, size in enumerate(list(sizes) + [sizes[0]] * (same_size_repeats - 1)):
            file = generate_binary(size, name=f"chunkprobe_{index}.bin", seed=derive_seed(self._seed, service, "chunk", index))
            controller.client.prepare_ahead([file])
            files.append(file)
        for index, file in enumerate(files):
            observation = controller.sync_upload([file], label=f"chunking-{index}")
            bursts = _storage_burst_sizes(observation) or [file.size]
            burst_size_lists.append(bursts)
            result.observations.append((file.size, len(bursts)))
            controller.pause_between_experiments(60.0)
        # Keep only data bursts: TLS handshakes, application acknowledgements
        # and other small control exchanges on the storage connection show up
        # as sub-kilobyte bursts and must not be mistaken for chunks.
        data_burst_lists = []
        for (size, _), bursts in zip(result.observations, burst_size_lists):
            threshold = max(100_000, int(0.01 * size))
            data_burst_lists.append([burst for burst in bursts if burst >= threshold] or [max(bursts)])
        burst_size_lists = data_burst_lists
        result.observations = [
            (size, len(bursts)) for (size, _), bursts in zip(result.observations, burst_size_lists)
        ]
        if all(len(bursts) == 1 for bursts in burst_size_lists):
            result.strategy = "none"
            return result
        # A fixed-size chunker produces full bursts of identical size (the
        # last burst of each file may be a remainder); a content-defined
        # chunker produces visibly varying full-burst sizes.
        full_bursts = [burst for bursts in burst_size_lists for burst in bursts[:-1]]
        if not full_bursts:
            full_bursts = [max(bursts) for bursts in burst_size_lists]
        mean_full = sum(full_bursts) / len(full_bursts)
        spread = max(full_bursts) - min(full_bursts)
        result.estimated_chunk_size = int(max(full_bursts))
        result.strategy = "fixed" if spread <= 0.1 * mean_full else "variable"
        return result

    # -- bundling -------------------------------------------------------- #
    def probe_bundling(
        self,
        service: str,
        total_bytes: int = BUNDLING_TOTAL_BYTES,
        file_counts: Sequence[int] = (1, 10, 100),
    ) -> BundlingResult:
        """Detect whether many small files are bundled into few storage requests."""
        result = BundlingResult(service=service)
        for count in file_counts:
            controller = self._controller(service)
            controller.start_session()
            files = generate_batch(
                FileKind.BINARY,
                count,
                total_bytes // count,
                prefix=f"bundle_{count}",
                seed=derive_seed(self._seed, service, "bundling", count),
            )
            controller.client.prepare_ahead(files)
            observation = controller.sync_upload(files, label=f"bundling-{count}")
            result.per_file_count[count] = {
                "storage_bursts": float(_storage_bursts(observation)),
                "storage_connections": float(_storage_connections(observation)),
                "completion_s": observation.window_end - observation.window_start,
            }
        largest = max(file_counts)
        bursts = result.per_file_count[largest]["storage_bursts"]
        result.bundling = bursts <= largest / 5.0
        return result

    # -- deduplication --------------------------------------------------- #
    def probe_deduplication(self, service: str, file_size: int = 1 * MB) -> DeduplicationResult:
        """Run the four-step replica test of §4.3 and measure each step's upload."""
        result = DeduplicationResult(service=service, file_size=file_size)
        controller = self._controller(service)
        controller.start_session()
        original = generate_binary(file_size, name="folder1/original.bin", seed=derive_seed(self._seed, service, "dedup"))
        controller.client.prepare_ahead([original])

        step1 = controller.sync_upload([original], label="dedup-original")
        result.step_upload_bytes["original"] = _storage_upload_bytes(step1)
        controller.pause_between_experiments(60.0)

        replica = original.renamed("folder2/replica.bin")
        step2 = controller.sync_upload([replica], label="dedup-replica")
        result.step_upload_bytes["replica_other_folder"] = _storage_upload_bytes(step2)
        controller.pause_between_experiments(60.0)

        copy = original.renamed("folder3/copy.bin")
        step3 = controller.sync_upload([copy], label="dedup-copy")
        result.step_upload_bytes["copy_third_folder"] = _storage_upload_bytes(step3)
        controller.pause_between_experiments(60.0)

        controller.delete([original.name, replica.name, copy.name])
        controller.pause_between_experiments(60.0)
        step4 = controller.sync_upload([original], label="dedup-restore")
        result.step_upload_bytes["restore_after_delete"] = _storage_upload_bytes(step4)

        threshold = 0.1 * file_size
        result.deduplication = (
            result.step_upload_bytes["replica_other_folder"] < threshold
            and result.step_upload_bytes["copy_third_folder"] < threshold
        )
        result.survives_delete = result.step_upload_bytes["restore_after_delete"] < threshold
        return result

    # -- delta encoding --------------------------------------------------- #
    def probe_delta_encoding(
        self,
        service: str,
        file_size: int = 1 * MB,
        change_bytes: int = DELTA_CHANGE_BYTES,
    ) -> DeltaEncodingResult:
        """Append to / modify a synced file and measure how much is re-uploaded (§4.4)."""
        result = DeltaEncodingResult(service=service, file_size=file_size, change_bytes=change_bytes)
        controller = self._controller(service)
        controller.start_session()
        seed = derive_seed(self._seed, service, "delta")
        base = generate_binary(file_size, name="delta/document.bin", seed=seed)
        appended = base.with_content(base.content + generate_binary(change_bytes, seed=seed + 1).content)
        insert_at = file_size // 3
        inserted = appended.with_content(
            appended.content[:insert_at]
            + generate_binary(change_bytes, seed=seed + 2).content
            + appended.content[insert_at:]
        )
        controller.client.prepare_ahead([base, appended, inserted])
        controller.sync_upload([base], label="delta-base")
        controller.pause_between_experiments(60.0)

        append_obs = controller.sync_upload([appended], label="delta-append")
        result.append_upload_bytes = _storage_upload_bytes(append_obs)
        controller.pause_between_experiments(60.0)

        random_obs = controller.sync_upload([inserted], label="delta-random")
        result.random_upload_bytes = _storage_upload_bytes(random_obs)

        result.delta_encoding = result.append_upload_bytes < 0.5 * file_size
        return result

    # -- compression ------------------------------------------------------ #
    def probe_compression(self, service: str, file_size: int = 1 * MB) -> CompressionResult:
        """Upload text, random and fake-JPEG files of the same size (§4.5)."""
        result = CompressionResult(service=service, file_size=file_size)
        controller = self._controller(service)
        controller.start_session()
        seed = derive_seed(self._seed, service, "compression")
        text = generate_text(file_size, name="compress/readable.txt", seed=seed)
        binary = generate_binary(file_size, name="compress/random.bin", seed=seed + 1)
        fake = generate_fake_jpeg(file_size, name="compress/fake.jpg", seed=seed + 2)
        controller.client.prepare_ahead([text, binary, fake])

        text_obs = controller.sync_upload([text], label="compression-text")
        result.text_upload_bytes = _storage_upload_bytes(text_obs)
        controller.pause_between_experiments(60.0)

        binary_obs = controller.sync_upload([binary], label="compression-binary")
        result.binary_upload_bytes = _storage_upload_bytes(binary_obs)
        controller.pause_between_experiments(60.0)

        fake_obs = controller.sync_upload([fake], label="compression-fake-jpeg")
        result.fake_jpeg_upload_bytes = _storage_upload_bytes(fake_obs)

        compresses_text = result.text_upload_bytes < 0.8 * file_size
        compresses_fake = result.fake_jpeg_upload_bytes < 0.8 * file_size
        if not compresses_text:
            result.policy = "no"
        elif compresses_fake:
            result.policy = "always"
        else:
            result.policy = "smart"
        return result

    # -- one service / whole matrix ---------------------------------------- #
    def probe_service(self, service: str) -> ServiceCapabilities:
        """Run all five §4 probes against one service: its Table 1 row.

        This is the campaign engine's per-cell entry point; every probe uses
        seeds derived from (prober seed, service), so probing services in any
        order — or in parallel — yields identical rows.
        """
        return ServiceCapabilities(
            service=service,
            chunking=self.probe_chunking(service),
            bundling=self.probe_bundling(service),
            deduplication=self.probe_deduplication(service),
            delta_encoding=self.probe_delta_encoding(service),
            compression=self.probe_compression(service),
        )

    def build_matrix(self, services: Optional[Sequence[str]] = None) -> CapabilityMatrix:
        """Probe every capability of every service and assemble the Table 1 reproduction."""
        services = list(services) if services is not None else list(SERVICE_NAMES)
        matrix = CapabilityMatrix()
        for service in services:
            matrix.add_service(self.probe_service(service))
        return matrix

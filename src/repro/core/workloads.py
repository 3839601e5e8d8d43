"""Benchmark workloads: the file batches used throughout the evaluation.

§5 designs the performance benchmarks around passive-measurement evidence
from the authors' earlier Dropbox study: up to 90 % of real upload batches
carry less than 1 MB, with a significant share spanning at least two chunks.
The four canonical workloads (1 × 100 kB, 1 × 1 MB, 10 × 100 kB,
100 × 10 kB) cover that space; the capability checks of §4 add their own
specific batches (equal-total bundling sets, growing files for delta
encoding, per-content-type sets for compression).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import WorkloadError
from repro.filegen.batch import generate_batch
from repro.filegen.model import FileKind, GeneratedFile
from repro.randomness import DEFAULT_SEED, derive_seed
from repro.units import KB, MB, format_bytes

__all__ = [
    "WorkloadSpec",
    "PAPER_WORKLOADS",
    "BUNDLING_TOTAL_BYTES",
    "DELTA_APPEND_SIZES",
    "DELTA_RANDOM_SIZES",
    "DELTA_CHANGE_BYTES",
    "COMPRESSION_SIZES",
    "workload_by_name",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """A batch of equally sized files of one content type."""

    name: str
    file_count: int
    file_size: int
    kind: FileKind = FileKind.BINARY

    def __post_init__(self) -> None:
        if self.file_count <= 0:
            raise WorkloadError("workload must contain at least one file")
        if self.file_size < 0:
            raise WorkloadError("file size must be non-negative")

    @property
    def total_bytes(self) -> int:
        """Total amount of data the workload synchronizes."""
        return self.file_count * self.file_size

    @property
    def label(self) -> str:
        """The paper's label style, e.g. ``"100x10kB"`` or ``"1x1.05MB"``."""
        number, unit = format_bytes(self.file_size).split(" ")
        if "." in number:
            number = number.rstrip("0").rstrip(".")
        return f"{self.file_count}x{number}{unit}"

    def generate(self, seed: int = DEFAULT_SEED, repetition: int = 0) -> List[GeneratedFile]:
        """Generate the files for one repetition (each repetition gets fresh content)."""
        return generate_batch(
            self.kind,
            self.file_count,
            self.file_size,
            prefix=f"{self.name}_r{repetition}",
            seed=derive_seed(seed, self.name, repetition),
        )


#: The four workloads reported in Fig. 6 (binary, incompressible files).
PAPER_WORKLOADS: List[WorkloadSpec] = [
    WorkloadSpec(name="1x100kB", file_count=1, file_size=100 * KB),
    WorkloadSpec(name="1x1MB", file_count=1, file_size=1 * MB),
    WorkloadSpec(name="10x100kB", file_count=10, file_size=100 * KB),
    WorkloadSpec(name="100x10kB", file_count=100, file_size=10 * KB),
]

#: The bundling check (§4.2): the same total volume split into more and more files.
BUNDLING_TOTAL_BYTES = 2 * MB

#: Delta-encoding check (§4.4): file sizes for the append-at-the-end case (Fig. 4, left)...
DELTA_APPEND_SIZES: List[int] = [100 * KB, 500 * KB, 1 * MB, int(1.5 * MB), 2 * MB]
#: ...and for the change-at-a-random-offset case (Fig. 4, right).
DELTA_RANDOM_SIZES: List[int] = [1 * MB, 2 * MB, 4 * MB, 6 * MB, 8 * MB, 10 * MB]
#: Amount of data added/changed at each iteration of the delta test.
DELTA_CHANGE_BYTES = 100 * KB

#: Compression check (§4.5): file sizes used for each content type (Fig. 5).
COMPRESSION_SIZES: List[int] = [100 * KB, 500 * KB, 1 * MB, int(1.5 * MB), 2 * MB]


def workload_by_name(name: str) -> WorkloadSpec:
    """Look up one of the paper's workloads by its label (e.g. ``"100x10kB"``)."""
    for workload in PAPER_WORKLOADS:
        if workload.name.lower() == name.lower():
            return workload
    raise WorkloadError(f"unknown workload {name!r}; available: {[w.name for w in PAPER_WORKLOADS]}")

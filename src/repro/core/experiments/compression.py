"""Fig. 5 — compression tests.

Single files of three content classes are synchronized and the uploaded
volume is measured from the storage flows:

* random readable text (highly compressible) — Fig. 5(a),
* pure random bytes (incompressible) — Fig. 5(b),
* fake JPEGs: JPEG header and extension, text content — Fig. 5(c), which
  separates "smart" compressors (Google Drive skips anything that sniffs as
  JPEG) from indiscriminate ones (Dropbox compresses everything).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.workloads import COMPRESSION_SIZES
from repro.filegen.batch import generate_file
from repro.filegen.model import FileKind
from repro.netsim.scenario import ScenarioSpec
from repro.randomness import DEFAULT_SEED, derive_seed
from repro.services.registry import SERVICE_NAMES
from repro.testbed.controller import TestbedController

__all__ = ["CompressionPoint", "CompressionExperimentResult", "CompressionExperiment"]

#: The three content classes of Fig. 5, in figure order.
CONTENT_CLASSES = [FileKind.TEXT, FileKind.BINARY, FileKind.FAKE_JPEG]


@dataclass(frozen=True)
class CompressionPoint:
    """One point of the Fig. 5 curves."""

    service: str
    kind: FileKind
    file_size: int
    uploaded_bytes: int

    @property
    def uploaded_mb(self) -> float:
        """Uploaded volume in MB (the figure's y-axis)."""
        return self.uploaded_bytes / 1e6

    @property
    def compression_ratio(self) -> float:
        """Uploaded bytes over file size (1.0 means no compression)."""
        if self.file_size == 0:
            return 1.0
        return self.uploaded_bytes / self.file_size


@dataclass
class CompressionExperimentResult:
    """Fig. 5 data for every service and content class."""

    points: List[CompressionPoint] = field(default_factory=list)

    def series(self, kind: FileKind) -> Dict[str, List[tuple]]:
        """Per-service ``(file_size, uploaded_MB)`` series for one content class."""
        series: Dict[str, List[tuple]] = {}
        for point in self.points:
            if point.kind is not kind:
                continue
            series.setdefault(point.service, []).append((point.file_size, point.uploaded_mb))
        for values in series.values():
            values.sort()
        return series

    def rows(self) -> List[dict]:
        """Flat rows for reports and CSV output."""
        return [
            {
                "service": point.service,
                "content": point.kind.value,
                "file_size": point.file_size,
                "uploaded_MB": round(point.uploaded_mb, 3),
                "ratio": round(point.compression_ratio, 3),
            }
            for point in self.points
        ]


class CompressionExperiment:
    """Measure uploaded volume per content class and file size (Fig. 5)."""

    def __init__(
        self,
        services: Optional[Sequence[str]] = None,
        sizes: Optional[Sequence[int]] = None,
        kinds: Optional[Sequence[FileKind]] = None,
        seed: int = DEFAULT_SEED,
        scenario: Optional[ScenarioSpec] = None,
    ) -> None:
        self.services = list(services) if services is not None else list(SERVICE_NAMES)
        self.sizes = list(sizes) if sizes is not None else list(COMPRESSION_SIZES)
        self.kinds = list(kinds) if kinds is not None else list(CONTENT_CLASSES)
        self.seed = seed
        self.scenario = scenario

    def run_kind(self, service: str, kind: FileKind) -> List[CompressionPoint]:
        """Upload every size of one content class for one service.

        This is the campaign engine's unit cell for the compression stage:
        each content class gets its own fresh testbed session (independent
        tests, as §2.3 prescribes), and the file contents are seeded per
        (seed, service, kind, size), so a class's points are independent of
        which other classes run and of scheduling.  Each file is handed to
        the client as soon as it is generated, so its deflate overlaps the
        next file's generation.
        """
        points: List[CompressionPoint] = []
        controller = TestbedController(service, scenario=self.scenario, seed=self.seed)
        controller.start_session()
        files = []
        for size in self.sizes:
            file = generate_file(
                kind,
                size,
                name=f"compression/{kind.value}_{size}{kind.extension}",
                seed=derive_seed(self.seed, service, kind.value, size),
            )
            controller.client.prepare_ahead([file])
            files.append(file)
        for size, file in zip(self.sizes, files):
            observation = controller.sync_upload([file], label=f"compression-{kind.value}-{size}")
            uploaded = observation.storage_trace().uploaded_payload_bytes()
            points.append(CompressionPoint(service=service, kind=kind, file_size=size, uploaded_bytes=uploaded))
            controller.pause_between_experiments(60.0)
        return points

    def run_service(self, service: str) -> List[CompressionPoint]:
        """Upload every (content class, size) combination for one service."""
        points: List[CompressionPoint] = []
        for kind in self.kinds:
            points.extend(self.run_kind(service, kind))
        return points

    def run(self) -> CompressionExperimentResult:
        """Run the full Fig. 5 sweep."""
        result = CompressionExperimentResult()
        for service in self.services:
            result.points.extend(self.run_service(service))
        return result

"""Fig. 4 — delta-encoding tests.

Two modification patterns are applied to an already-synchronized file and
the re-uploaded volume is measured from the storage flows:

* **append** — ~100 kB is appended to files of 0.1–2 MB (Fig. 4, left);
* **random offset** — ~100 kB is inserted at a random position inside files
  of 1–10 MB (Fig. 4, right), which exposes the interaction between delta
  encoding, chunking and deduplication: Dropbox re-sends a little more than
  the modification once content shifts across its 4 MB chunks, and Wuala's
  deduplication spares the chunks that precede the insertion point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.workloads import DELTA_APPEND_SIZES, DELTA_CHANGE_BYTES, DELTA_RANDOM_SIZES
from repro.errors import ConfigurationError
from repro.filegen.binary import generate_binary
from repro.netsim.scenario import ScenarioSpec
from repro.randomness import DEFAULT_SEED, derive_seed, make_rng
from repro.testbed.controller import TestbedController
from repro.services.registry import SERVICE_NAMES

__all__ = ["DELTA_CASES", "DeltaPoint", "DeltaResult", "DeltaEncodingExperiment"]

#: The two modification patterns of Fig. 4, in figure order (left, right).
DELTA_CASES = ("append", "random")


@dataclass(frozen=True)
class DeltaPoint:
    """One point of the Fig. 4 curves."""

    service: str
    case: str  # "append" or "random"
    file_size: int
    change_bytes: int
    uploaded_bytes: int

    @property
    def uploaded_mb(self) -> float:
        """Uploaded volume in MB (the figure's y-axis)."""
        return self.uploaded_bytes / 1e6


@dataclass
class DeltaResult:
    """Fig. 4 data for every service and both modification patterns."""

    points: List[DeltaPoint] = field(default_factory=list)

    def series(self, case: str) -> Dict[str, List[tuple]]:
        """Per-service ``(file_size, uploaded_MB)`` series for one case."""
        series: Dict[str, List[tuple]] = {}
        for point in self.points:
            if point.case != case:
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
                "case": point.case,
                "file_size": point.file_size,
                "uploaded_MB": round(point.uploaded_mb, 3),
            }
            for point in self.points
        ]


class DeltaEncodingExperiment:
    """Measure re-upload volume after appending to / modifying synced files."""

    def __init__(
        self,
        services: Optional[Sequence[str]] = None,
        append_sizes: Optional[Sequence[int]] = None,
        random_sizes: Optional[Sequence[int]] = None,
        change_bytes: int = DELTA_CHANGE_BYTES,
        seed: int = DEFAULT_SEED,
        scenario: Optional[ScenarioSpec] = None,
    ) -> None:
        self.services = list(services) if services is not None else list(SERVICE_NAMES)
        self.append_sizes = list(append_sizes) if append_sizes is not None else list(DELTA_APPEND_SIZES)
        self.random_sizes = list(random_sizes) if random_sizes is not None else list(DELTA_RANDOM_SIZES)
        self.change_bytes = change_bytes
        self.seed = seed
        self.scenario = scenario

    def _measure(self, service: str, size: int, case: str) -> DeltaPoint:
        """Upload a base file, apply one modification, measure the re-upload."""
        seed = derive_seed(self.seed, service, case, size)
        controller = TestbedController(service, scenario=self.scenario, seed=self.seed)
        controller.start_session()
        base = generate_binary(size, name=f"delta_{case}_{size}.bin", seed=seed)
        change = generate_binary(self.change_bytes, seed=seed + 1).content
        if case == "append":
            modified = base.with_content(base.content + change)
        else:
            offset = make_rng(seed, "offset").randrange(0, max(size - 1, 1))
            modified = base.with_content(base.content[:offset] + change + base.content[offset:])
        controller.client.prepare_ahead([base, modified])
        controller.sync_upload([base], label=f"delta-{case}-base")
        controller.pause_between_experiments(60.0)
        observation = controller.sync_upload([modified], label=f"delta-{case}-modified")
        uploaded = observation.storage_trace().uploaded_payload_bytes()
        return DeltaPoint(
            service=service,
            case=case,
            file_size=size,
            change_bytes=self.change_bytes,
            uploaded_bytes=uploaded,
        )

    def run_case(self, service: str, case: str) -> List[DeltaPoint]:
        """Run one modification pattern over all its sizes for one service.

        This is the campaign engine's unit cell for the delta stage: every
        size is measured on its own fresh testbed with a seed derived from
        (seed, service, case, size), so the two cases are independent of
        each other and of scheduling.
        """
        if case not in DELTA_CASES:
            raise ConfigurationError(
                f"unknown delta case {case!r}; valid cases: {', '.join(DELTA_CASES)}"
            )
        sizes = self.append_sizes if case == "append" else self.random_sizes
        return [self._measure(service, size, case) for size in sizes]

    def run_service(self, service: str) -> List[DeltaPoint]:
        """Run both cases over all sizes for one service."""
        points: List[DeltaPoint] = []
        for case in DELTA_CASES:
            points.extend(self.run_case(service, case))
        return points

    def run(self) -> DeltaResult:
        """Run the full Fig. 4 sweep."""
        result = DeltaResult()
        for service in self.services:
            result.points.extend(self.run_service(service))
        return result

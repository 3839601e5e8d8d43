"""Cross-seed aggregation: reduce a seed sweep into robust statistics.

The paper never reports single runs — every performance number is a robust
summary of repeated tests — and single-sample cloud benchmarks are
methodologically unsound.  This module is the reduction layer of the
``grid × seeds`` campaign plan: :meth:`CampaignRunner.run()
<repro.core.campaign.CampaignRunner.run>` (and the distributed merger)
executes one :class:`~repro.core.campaign.CampaignCell` per (stage,
service, unit, seed) and hands the plan-ordered cell results here, where
they are

* grouped into one per-seed :class:`~repro.core.campaign.CampaignResult`
  (each seed's slice is exactly the single-seed campaign for that seed);
* reduced per (stage, service, unit, row, metric) into a
  :class:`~repro.core.metrics.MetricAggregate` across seeds — mean,
  population stddev, median, quartiles/IQR, extrema and the sample count;
* rendered as per-stage aggregate tables, per-stage aggregate CSV rows and
  a deterministic *sweep results document* (schema
  :data:`SWEEP_DOC_VERSION`) that embeds the per-seed single-seed
  documents verbatim.

Determinism: everything in this module is a pure function of the cell
identities and rows.  Because the campaign engine normalizes the seed
list (sorted, deduplicated) and merging happens in plan order, the sweep
document is bit-identical across ``--jobs N``, sharded multi-runner and
cache-resumed executions, and independent of the order the seeds were
spelled in.

Every campaign is a sweep; a one-seed sweep keeps the single-seed forms of
every output — the per-stage summary tables, the per-stage report rows,
the execution record and the results document, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.campaign import (
    STAGES,
    CampaignResult,
    CellFailure,
    CellResult,
    merge_cell_results,
    suite_stage_rows,
)
from repro.core.metrics import MetricAggregate
from repro.core.report import render_table
from repro.errors import ExperimentError

__all__ = [
    "SWEEP_DOC_VERSION",
    "SweepResult",
    "sweep_from_results",
]

#: Version of the deterministic *sweep* results document (``--json`` for a
#: multi-seed campaign).  The single-seed document keeps its own version
#: (:data:`repro.core.campaign.RESULTS_DOC_VERSION`) and its exact bytes: a
#: one-seed sweep serializes as the legacy document.
#: (3: aggregate rows gained the ``ci95`` half-width column.)
SWEEP_DOC_VERSION = 3


def _is_numeric(value: object) -> bool:
    """Whether a row value takes part in cross-seed aggregation."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _round(value: float) -> float:
    """Statistics rounding: enough digits for every reported metric scale."""
    return round(float(value), 6)


def _reduce_rows(
    campaigns: Sequence[CampaignResult],
) -> "tuple[Dict[str, List[dict]], Dict[str, List[dict]]]":
    """One pass over the seed-aligned report rows: (aggregates, consensus).

    Reads every cell's report rows exactly once and derives both
    reductions from the aligned rows: per-stage *aggregate* rows for every
    numeric column, and per-stage column-wise *consensus* rows (``~``
    where seeds disagree) for the stages that yield no aggregates at all,
    so no stage vanishes from a sweep report.
    """
    aggregates: Dict[str, List[dict]] = {}
    consensus: Dict[str, List[dict]] = {}
    if not campaigns:
        return aggregates, consensus
    reference = campaigns[0]
    for index, ref_result in enumerate(reference.cells):
        cell = ref_result.cell
        per_seed_rows = [campaign.cells[index].rows() for campaign in campaigns]
        common = min(len(rows) for rows in per_seed_rows)
        for row_index in range(common):
            seed_rows = [rows[row_index] for rows in per_seed_rows]
            ref_row = seed_rows[0]
            label_parts = []
            merged_row = {}
            for column, value in ref_row.items():
                values = {str(row.get(column)) for row in seed_rows}
                agreed = len(values) == 1
                merged_row[column] = value if agreed else "~"
                if column != "service" and not _is_numeric(value):
                    label_parts.append(str(value) if agreed else "~")
            consensus.setdefault(cell.stage, []).append(merged_row)
            label = "/".join(label_parts) if label_parts else "-"
            for column, value in ref_row.items():
                if not _is_numeric(value):
                    continue
                samples = [row.get(column) for row in seed_rows]
                if not all(_is_numeric(sample) for sample in samples):
                    continue
                aggregate = MetricAggregate.from_values([float(sample) for sample in samples])
                aggregates.setdefault(cell.stage, []).append(
                    {
                        "service": cell.service,
                        "unit": cell.unit,
                        "row": row_index,
                        "label": label,
                        "metric": column,
                        "mean": _round(aggregate.mean),
                        "std": _round(aggregate.std),
                        # Normal-approximation 95% confidence half-width of
                        # the mean; with few seeds it is a rough guide, and
                        # it tightens as --seeds/--rep-cells add samples.
                        "ci95": _round(1.96 * aggregate.std / math.sqrt(aggregate.count)),
                        "median": _round(aggregate.median),
                        "q1": _round(aggregate.q1),
                        "q3": _round(aggregate.q3),
                        "iqr": _round(aggregate.iqr),
                        "min": _round(aggregate.minimum),
                        "max": _round(aggregate.maximum),
                        "n": aggregate.count,
                    }
                )
    for stage in [stage for stage in consensus if stage in aggregates]:
        del consensus[stage]
    return aggregates, consensus


@dataclass
class SweepResult:
    """One seed sweep: the per-seed campaigns plus cross-seed reductions.

    ``campaigns`` holds one :class:`~repro.core.campaign.CampaignResult`
    per sweep seed, ascending seed order; each one is exactly the
    single-seed campaign that seed would have produced on its own.  With
    one seed, every report below is that campaign's own single-seed form;
    with several, it reduces across seeds.
    """

    campaigns: List[CampaignResult]
    jobs: int
    wall_seconds: float
    #: Campaign trace document (``cloudbench-trace``) when the sweep ran
    #: with tracing enabled; ``None`` otherwise.  Run-specific in its wall
    #: half — never part of :meth:`document`.
    trace: Optional[dict] = None
    # Lazily computed by aggregate_rows()/consensus_rows(); summary, CSV
    # and document all consume the same reductions, so re-reducing every
    # cell's rows per consumer would triple the reduction cost of a large
    # sweep.
    _aggregate_cache: Optional[Dict[str, List[dict]]] = field(default=None, repr=False, compare=False)
    _consensus_cache: Optional[Dict[str, List[dict]]] = field(default=None, repr=False, compare=False)

    @property
    def seeds(self) -> List[int]:
        """The sweep's seeds, ascending."""
        return [campaign.seed for campaign in self.campaigns]

    @property
    def _single(self) -> Optional[CampaignResult]:
        """The one campaign of a one-seed sweep, else ``None``."""
        return self.campaigns[0] if len(self.campaigns) == 1 else None

    def cells(self) -> List[CellResult]:
        """Every cell result across all seeds, plan order (seed-major)."""
        return [result for campaign in self.campaigns for result in campaign.cells]

    def stages(self) -> List[str]:
        """The stages the sweep covers, canonical order."""
        present = {result.cell.stage for result in self.cells()}
        return [stage for stage in STAGES if stage in present]

    def failures(self) -> List[CellFailure]:
        """Every failed cell's context record, plan order."""
        return [failure for campaign in self.campaigns for failure in campaign.failures()]

    def cpu_seconds(self) -> float:
        """Sum of per-cell wall clocks across all seeds."""
        return sum(campaign.cpu_seconds() for campaign in self.campaigns)

    def cache_hits(self) -> int:
        """Cells served from the result store, across all seeds."""
        return sum(campaign.cache_hits() for campaign in self.campaigns)

    def cache_misses(self) -> int:
        """Cells actually computed, across all seeds."""
        return sum(campaign.cache_misses() for campaign in self.campaigns)

    def _reduced(self) -> "tuple[Dict[str, List[dict]], Dict[str, List[dict]]]":
        """Both reductions, computed in one pass over the rows and cached."""
        if self._aggregate_cache is None or self._consensus_cache is None:
            self._aggregate_cache, self._consensus_cache = _reduce_rows(self.campaigns)
        return self._aggregate_cache, self._consensus_cache

    def aggregate_rows(self) -> Dict[str, List[dict]]:
        """Per-stage aggregate rows reducing the per-seed campaigns.

        The campaigns all cover the same (stage, service, unit) grid in the
        same plan order (which :func:`sweep_from_results` guarantees).  For
        every cell, every report row and every numeric column, the values
        of all seeds are reduced through
        :meth:`~repro.core.metrics.MetricAggregate.from_values` into one
        aggregate row ``(service, unit, row, label, metric, stats...)``;
        the ``label`` keeps the row's non-numeric identity columns (a
        workload name, a content class) readable, showing ``~`` where seeds
        disagree.  Non-numeric columns and rows not present for every seed
        are skipped — aggregation never invents samples.

        Computed once and cached: the reduction reads every cell's rows,
        and the summary table, the CSVs and the sweep document all read it.
        """
        return self._reduced()[0]

    def consensus_rows(self) -> Dict[str, List[dict]]:
        """Column-wise consensus rows for stages with nothing to aggregate.

        A stage whose report rows carry no numeric column at all (the
        capability matrix: yes/no flags) produces no aggregate rows — but
        it must not vanish from a sweep report.  For those stages this
        returns the stage's ordinary rows with each value kept where every
        seed agrees and replaced by ``~`` where seeds disagree.  Computed
        in the same single pass as :meth:`aggregate_rows`.
        """
        return self._reduced()[1]

    def report_rows(self) -> Dict[str, List[dict]]:
        """Per-stage report rows: what ``--csv`` writes, one file per stage.

        One seed: the merged suite's ordinary rows.  Several: aggregates,
        or consensus as fallback — every planned stage appears exactly
        once, so no stage silently vanishes from a multi-seed report.
        """
        if self._single is not None:
            return suite_stage_rows(self._single.suite)
        rows = dict(self.aggregate_rows())
        rows.update(self.consensus_rows())
        return {stage: rows[stage] for stage in self.stages() if stage in rows}

    def summary_text(self) -> str:
        """Human-readable sweep digest: one table per stage.

        One seed: the merged suite's tables and figures.  Several: stages
        with numeric metrics render their cross-seed aggregate statistics;
        purely non-numeric stages render their consensus rows (``~``
        marking seed-dependent values) so the full campaign stays visible.
        """
        if self._single is not None:
            return self._single.suite.summary_text()
        seeds = self.seeds
        sections = [
            f"Seed sweep — {len(seeds)} seed(s): {', '.join(str(seed) for seed in seeds)}"
        ]
        aggregated = self.aggregate_rows()
        consensus = self.consensus_rows()
        for stage in self.stages():
            if aggregated.get(stage):
                sections.append(
                    render_table(aggregated[stage], title=f"Cross-seed aggregates — {stage} (n={len(seeds)})")
                )
            elif consensus.get(stage):
                sections.append(
                    render_table(
                        consensus[stage],
                        title=f"Cross-seed consensus — {stage} (n={len(seeds)}, ~ marks seed-dependent values)",
                    )
                )
        return "\n\n".join(sections)

    def document(self) -> dict:
        """The deterministic results document for this sweep.

        A pure function of the cell identities and rows: no wall
        clocks, worker counts or cache provenance.  With a single seed it
        *is* the legacy single-seed document (same schema, same bytes);
        with several it wraps the per-seed documents and the cross-seed
        aggregates under :data:`SWEEP_DOC_VERSION`.
        """
        if self._single is not None:
            return self._single.results_json_dict()
        rows_by_stage = self.aggregate_rows()
        first = self.campaigns[0]
        return {
            "schema": SWEEP_DOC_VERSION,
            "seeds": self.seeds,
            "stages": self.stages(),
            "services": list(dict.fromkeys(result.cell.service for result in first.cells)),
            "aggregates": [
                {"stage": stage, "rows": rows_by_stage.get(stage, [])} for stage in self.stages()
            ],
            "per_seed": [campaign.results_json_dict() for campaign in self.campaigns],
        }

    def timing_text(self) -> str:
        """The run-specific wall-clock report printed after the summary.

        One seed: the per-cell timing table and the campaign speedup line.
        Several: one sweep line (a per-cell table would repeat the grid
        once per seed).
        """
        speedup = self.cpu_seconds() / max(self.wall_seconds, 1e-9)
        if self._single is not None:
            table = render_table(self._single.timing_rows(), title=f"Campaign timing (jobs={self.jobs})")
            return (
                f"{table}\ntotal wall-clock {self.wall_seconds:.2f} s for "
                f"{self.cpu_seconds():.2f} s of cell work ({speedup:.2f}x)"
            )
        cells = len(self.cells())
        return (
            f"sweep wall-clock {self.wall_seconds:.2f} s for {self.cpu_seconds():.2f} s of cell work over "
            f"{cells} cell(s) = {len(self.seeds)} seed(s) x {cells // len(self.seeds)} cell(s) "
            f"({speedup:.2f}x, jobs={self.jobs})"
        )

    def to_json_dict(self) -> dict:
        """Machine-readable sweep *execution* record (timings, cache hits).

        One seed: that campaign's record, :meth:`CampaignResult.to_json_dict
        <repro.core.campaign.CampaignResult.to_json_dict>`.  Either way it
        includes run-specific fields, so two executions of the same sweep
        generally serialize differently; the deterministic artifact is
        :meth:`document`.
        """
        if self._single is not None:
            return self._single.to_json_dict()
        return {
            "seeds": self.seeds,
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 3),
            "cell_cpu_seconds": round(self.cpu_seconds(), 3),
            "cache": {"hits": self.cache_hits(), "misses": self.cache_misses()},
            "per_seed": [campaign.to_json_dict() for campaign in self.campaigns],
        }


def sweep_from_results(
    results: Sequence[CellResult],
    *,
    seeds: Sequence[int],
    jobs: int,
    wall_seconds: float,
) -> SweepResult:
    """Group plan-ordered cell results into a :class:`SweepResult`.

    ``results`` must cover the identical (stage, service, unit) grid once
    per seed of ``seeds`` (the seed-major plan the campaign engine and the
    distributed merger both produce); anything else raises
    :class:`~repro.errors.ExperimentError` rather than silently aggregating
    mismatched grids.  Each per-seed campaign's ``wall_seconds`` is its
    sequential-equivalent cell time — the sweep-level wall clock is the
    only real one, and the one campaign of a one-seed sweep carries it.
    """
    groups: Dict[int, List[CellResult]] = {int(seed): [] for seed in seeds}
    for result in results:
        seed = result.cell.seed
        if seed not in groups:
            raise ExperimentError(
                f"cell {result.cell.key} carries seed {seed}, which is not in the sweep {sorted(groups)}"
            )
        groups[seed].append(result)
    reference = None
    campaigns: List[CampaignResult] = []
    for seed in sorted(groups):
        group = groups[seed]
        identity = [(r.cell.stage, r.cell.service, r.cell.unit) for r in group]
        if reference is None:
            reference = identity
        elif identity != reference:
            raise ExperimentError(
                f"seed {seed} covers a different cell grid than the sweep's first seed; "
                "all seeds of one sweep must plan the identical (stage, service, unit) grid"
            )
        campaigns.append(
            CampaignResult(
                suite=merge_cell_results(group),
                cells=group,
                seed=seed,
                jobs=jobs,
                wall_seconds=wall_seconds if len(groups) == 1 else sum(result.wall_seconds for result in group),
            )
        )
    return SweepResult(campaigns=campaigns, jobs=jobs, wall_seconds=wall_seconds)

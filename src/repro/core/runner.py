"""The merged result of one campaign: every table and figure of the paper.

:class:`SuiteResult` holds each campaign stage's rows — the capability
matrix (Table 1), the six figure experiments and the load stage — and
renders them as the ASCII report every ``cloudbench`` campaign command
prints.  The campaign engine (:class:`~repro.core.campaign.CampaignRunner`)
plans and runs the cells whose rows fill it, and merges them the same way
whether a cell ran now or came from the result store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.campaign import STAGES, stage_rows
from repro.core.report import render_grouped_bars, render_table
from repro.core.workloads import PAPER_WORKLOADS

__all__ = ["SuiteResult"]

#: The summary title of each stage's table.
_TITLES = {
    "capabilities": "Table 1 — capabilities",
    "idle": "Fig. 1 — idle/background traffic",
    "datacenters": "Fig. 2 / §3.2 — data centers",
    "syn_series": "Fig. 3 — TCP connections for 100x10kB",
    "delta": "Fig. 4 — delta encoding",
    "compression": "Fig. 5 — compression",
    "performance": "Fig. 6 — aggregated metrics",
    "load": "Load — open population, tail latency and fairness",
}

#: Fig. 6a-c: the performance column each bar panel plots, its format and title.
#: A row's value is rounded to the format's digits, so the bars print what
#: the unrounded mean would.
_FIGURE_6_PANELS = (
    ("startup_s", "{:.2f}", "Fig. 6a — start-up time (s)"),
    ("completion_s", "{:.2f}", "Fig. 6b — completion time (s)"),
    ("overhead", "{:.3f}", "Fig. 6c — protocol overhead (fraction)"),
)


@dataclass
class SuiteResult:
    """Everything a full benchmarking campaign produces.

    ``records`` maps each stage with at least one successful cell to its
    cells' :attr:`~repro.core.campaign.CellResult.records`, concatenated in
    plan order.
    """

    records: Dict[str, List[dict]] = field(default_factory=dict)

    def rows(self, stage: str) -> List[dict]:
        """One stage's report rows: its table and its CSV."""
        return stage_rows(stage, self.records.get(stage, []))

    def summary_text(self) -> str:
        """Human-readable digest of every collected artifact."""
        sections: List[str] = []
        for stage in STAGES:
            if stage not in self.records:
                continue
            rows = self.rows(stage)
            sections.append(render_table(rows, title=_TITLES[stage]))
            if stage == "datacenters":
                sites = [row["sites"] for row in rows if row["service"] == "googledrive"]
                if sites and sites[0]:
                    sections.append(f"Google Drive edge locations discovered: {sites[0]}")
            elif stage == "performance":
                workload_order = [workload.name for workload in PAPER_WORKLOADS]
                for column, value_format, title in _FIGURE_6_PANELS:
                    series: Dict[str, Dict[str, float]] = {}
                    for row in rows:
                        series.setdefault(row["service"], {})[row["workload"]] = row[column]
                    sections.append(
                        render_grouped_bars(series, group_order=workload_order, value_format=value_format, title=title)
                    )
        return "\n\n".join(sections)

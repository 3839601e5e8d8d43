"""Execution of the ``cloudbench trace`` sub-commands.

``trace ls`` inventories the flight-record sidecars of a result store,
``trace show`` summarizes one record (or a whole campaign trace), and
``trace export`` converts either into Chrome trace-event form for
Perfetto or canonical JSON for diffing — ``--sim-only`` strips the
run-specific wall half first, yielding the byte-comparable form CI
diffs across ``--jobs`` values.

Kept apart from :mod:`repro.cli` so the trace machinery never loads for
ordinary campaign runs, mirroring :mod:`repro.analysis.cli`.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.core.campaign import STAGES
from repro.core.report import render_table
from repro.errors import ConfigurationError
from repro.obs.export import chrome_trace, to_canonical_json
from repro.obs.recorder import (
    FLIGHT_RECORD_KIND,
    TRACE_KIND,
    campaign_trace_document,
    strip_wall,
)

__all__ = ["TRACE_SIDECAR_SUFFIX", "sidecar_paths", "load_trace_file", "execute_ls", "execute_show", "execute_export"]

#: Flight-record sidecars live next to their store entry ``<base>.cell.json``: ``<base>.trace.json``.
TRACE_SIDECAR_SUFFIX = ".trace.json"


def sidecar_paths(store_dir: str) -> List[str]:
    """Every flight-record sidecar under a store directory, sorted walk order."""
    found: List[str] = []
    for dirpath, dirnames, filenames in os.walk(store_dir):
        dirnames[:] = sorted(name for name in dirnames if name != ".claims")
        for filename in sorted(filenames):
            if filename.endswith(TRACE_SIDECAR_SUFFIX):
                found.append(os.path.join(dirpath, filename))
    return found


def load_trace_file(path: str) -> Dict[str, object]:
    """Read one trace/flight-record JSON document, validating its kind."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read trace file {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"{path}: not valid JSON ({error})") from error
    if not isinstance(document, dict) or document.get("kind") not in (FLIGHT_RECORD_KIND, TRACE_KIND):
        raise ConfigurationError(f"{path}: not a cloudbench trace or flight-record document")
    return document


def _cell_sort_key(record: Dict[str, object]):
    cell = record.get("cell", {})
    stage = cell.get("stage", "")
    return (
        (STAGES.index(stage), "") if stage in STAGES else (len(STAGES), str(stage)),
        str(cell.get("service", "")),
        str(cell.get("unit", "")),
        cell.get("seed", 0),
    )


def _store_records(store_dir: str) -> List[Dict[str, object]]:
    """Every readable flight record in a store, campaign plan order."""
    records = []
    for path in sidecar_paths(store_dir):
        try:
            records.append(load_trace_file(path))
        except ConfigurationError:
            continue  # a foreign .trace.json is not ours to choke on
    records.sort(key=_cell_sort_key)
    return records


def _record_row(record: Dict[str, object]) -> Dict[str, object]:
    cell = record.get("cell", {})
    sim = record.get("sim", {})
    wall = record.get("wall", {})
    sim_spans = sim.get("spans", []) if isinstance(sim, dict) else []
    sim_end = max((float(span.get("end", 0.0)) for span in sim_spans), default=0.0)
    failure = wall.get("failure") if isinstance(wall, dict) else None
    return {
        "stage": cell.get("stage", "?"),
        "service": cell.get("service", "?"),
        "unit": cell.get("unit", "?"),
        "seed": cell.get("seed", "?"),
        "sim_spans": len(sim_spans),
        "sim_end_s": round(sim_end, 3),
        "status": "failed" if failure else "ok",
    }


def execute_ls(store_dir: str) -> int:
    """``cloudbench trace ls``: one row per flight record in the store."""
    records = _store_records(store_dir)
    rows = [_record_row(record) for record in records]
    print(render_table(rows, title=f"Flight records in {store_dir} ({len(rows)} cell(s))"))
    return 0


def _summarize_record(record: Dict[str, object]) -> str:
    cell = record.get("cell", {})
    sim = record.get("sim", {})
    lines = [f"cell {cell.get('key', '?')}"]
    tracks = sim.get("tracks", []) if isinstance(sim, dict) else []
    if tracks:
        lines.append("tracks: " + ", ".join(f"{index}={label}" for index, label in enumerate(tracks)))
    span_rows = [
        {
            "name": span.get("name", "?"),
            "track": span.get("track", 0),
            "start_s": round(float(span.get("start", 0.0)), 4),
            "dur_s": round(float(span.get("end", 0.0)) - float(span.get("start", 0.0)), 4),
        }
        for span in (sim.get("spans", []) if isinstance(sim, dict) else [])
    ]
    lines.append(render_table(span_rows, title=f"Sim spans ({len(span_rows)})"))
    metrics = record.get("metrics", {})
    counters = metrics.get("counters", {}) if isinstance(metrics, dict) else {}
    if counters:
        counter_rows = [{"counter": name, "value": counters[name]} for name in sorted(counters)]
        lines.append(render_table(counter_rows, title="Counters"))
    wall = record.get("wall", {})
    failure = wall.get("failure") if isinstance(wall, dict) else None
    if isinstance(failure, dict):
        lines.append(f"FAILED: {failure.get('error_type', '?')}: {failure.get('message', '')}")
    return "\n\n".join(lines)


def execute_show(target: str, *, error: Callable[[str], None]) -> int:
    """``cloudbench trace show``: summarize one record, or every cell of a trace."""
    try:
        if os.path.isdir(target):
            records = _store_records(target)
            if not records:
                error(f"no flight records under {target}")
                return 2
        else:
            document = load_trace_file(target)
            if document.get("kind") == TRACE_KIND:
                records = [cell for cell in document.get("cells", []) if isinstance(cell, dict)]
            else:
                records = [document]
    except ConfigurationError as failure:
        error(str(failure))
        return 2
    print("\n\n".join(_summarize_record(record) for record in records))
    return 0


def execute_export(
    *,
    input_path: Optional[str],
    store_dir: Optional[str],
    output: Optional[str],
    fmt: str,
    sim_only: bool,
    error: Callable[[str], None],
) -> int:
    """``cloudbench trace export``: trace document → chrome / canonical JSON."""
    try:
        if input_path is not None:
            document = load_trace_file(input_path)
            if document.get("kind") == FLIGHT_RECORD_KIND:
                document = campaign_trace_document([document])
        elif store_dir is not None:
            document = campaign_trace_document(_store_records(store_dir))
        else:
            error("trace export needs --input FILE or --store DIR")
            return 2
    except ConfigurationError as failure:
        error(str(failure))
        return 2
    if sim_only:
        document = strip_wall(document)
    if fmt == "chrome":
        text = json.dumps(chrome_trace(document), indent=2, sort_keys=True) + "\n"
    else:
        text = to_canonical_json(document)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"trace written to {output}", file=sys.stderr)
    else:
        print(text, end="")
    return 0

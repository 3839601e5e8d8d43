"""The canonical benchmark document (``BENCH_netsim.json``).

Layout contract:

* ``schema_version`` — bumped whenever the metric set or field shapes
  change incompatibly; comparison refuses mismatched schemas.
* ``environment`` — run-specific context (machine, interpreter, wall
  timestamp).  Never compared, stripped before determinism checks.
* ``metrics`` — name → ``{unit, higher_is_better, params, value,
  samples, repeats}``.  Everything except ``value``/``samples`` is a
  pure function of the suite parameters.

Serialization is ``sort_keys=True``: unlike the results documents (whose
insertion order is pinned by golden fixtures), the benchmark document is
a key-value report with no meaningful field order, so sorted keys make
two documents diffable regardless of assembly order.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable

from repro.errors import ConfigurationError
from repro.perf.benchmarks import BenchmarkResult

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "build_document",
    "load_document",
    "strip_measurements",
    "to_json_text",
    "write_document",
]

BENCH_SCHEMA_VERSION = 1


def build_document(results: Iterable[BenchmarkResult], *, environment: Dict[str, object]) -> Dict[str, object]:
    """Assemble the canonical benchmark document from measured results."""
    metrics: Dict[str, Dict[str, object]] = {}
    for result in sorted(results, key=lambda item: item.name):
        if result.name in metrics:
            raise ConfigurationError(f"duplicate benchmark metric {result.name!r}")
        metrics[result.name] = {
            "unit": result.unit,
            "higher_is_better": result.higher_is_better,
            "params": dict(result.params),
            "value": result.value,
            "samples": list(result.samples),
            "repeats": len(result.samples),
        }
    return {
        "kind": "cloudbench-bench",
        "schema_version": BENCH_SCHEMA_VERSION,
        "environment": dict(environment),
        "metrics": metrics,
    }


def to_json_text(document: Dict[str, object]) -> str:
    """Serialize a benchmark document to its canonical JSON bytes."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_document(path: str, document: Dict[str, object]) -> str:
    """Write a benchmark document as canonical JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_json_text(document))
    return path


def load_document(path: str) -> Dict[str, object]:
    """Read a benchmark document back, validating kind and schema."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read benchmark baseline {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"{path}: not valid JSON ({error})") from error
    if not isinstance(document, dict) or document.get("kind") != "cloudbench-bench":
        raise ConfigurationError(f"{path}: not a cloudbench benchmark document")
    version = document.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ConfigurationError(
            f"{path}: benchmark schema version {version!r} is not supported "
            f"(this build reads version {BENCH_SCHEMA_VERSION})"
        )
    return document


def strip_measurements(document: Dict[str, object]) -> Dict[str, object]:
    """The document with everything run-specific removed.

    Two benchmark runs of the same suite on any machines must agree on
    the stripped form byte-for-byte — that is the determinism contract
    the perf tests assert: same metric names, units, directions, params
    and repeat counts; only the numbers and the environment may differ.
    """
    metrics = document.get("metrics")
    stripped_metrics: Dict[str, object] = {}
    if isinstance(metrics, dict):
        for name in sorted(metrics):
            entry = dict(metrics[name])
            entry.pop("value", None)
            entry.pop("samples", None)
            stripped_metrics[name] = entry
    return {
        "kind": document.get("kind"),
        "schema_version": document.get("schema_version"),
        "metrics": stripped_metrics,
    }

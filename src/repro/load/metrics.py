"""Tail-latency and fairness reductions over a load cell's sessions.

Population results are only as trustworthy as their reduction: with
10^5 sessions a mean hides everything interesting, so the load stage
reports tail quantiles (p95/p99/p999) as first-class statistics, plus
the Jain fairness index over per-session goodput and saturation ratios
for the shared link.

Determinism contract: every reduction here is a pure function of the
*multiset* of values — the input is sorted first and all sums run over
the sorted order — so a shuffled session array reduces to bit-identical
numbers.  The sums are ``np.cumsum``, which adds strictly left to right
like a ``total += value`` loop; builtin ``sum`` (compensated for floats
since Python 3.12), ``math.fsum`` and ``np.sum`` (pairwise) would each
round differently.  Quantiles reuse :func:`repro.core.metrics.quantile`
(the same linear interpolation as ``MetricAggregate``), keeping one
order-statistic convention across the whole codebase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.metrics import quantile
from repro.errors import ExperimentError

__all__ = ["TailSummary", "jain_index"]


@dataclass(frozen=True)
class TailSummary:
    """Mean, median and upper-tail quantiles of one per-session metric."""

    mean: float
    p50: float
    p95: float
    p99: float
    p999: float
    minimum: float
    maximum: float
    count: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "TailSummary":
        """Reduce a non-empty value sequence; order of the input is irrelevant."""
        ordered = _sorted_floats(values, "cannot summarize an empty list of values")
        return cls(
            mean=float(np.cumsum(ordered)[-1]) / len(ordered),
            p50=float(quantile(ordered, 0.5)),
            p95=float(quantile(ordered, 0.95)),
            p99=float(quantile(ordered, 0.99)),
            p999=float(quantile(ordered, 0.999)),
            minimum=float(ordered[0]),
            maximum=float(ordered[-1]),
            count=len(ordered),
        )


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly equal shares; ``1/n`` means one session got
    everything.  Summation runs over the sorted values so the result is
    bit-identical under permutation of the input.
    """
    ordered = _sorted_floats(values, "cannot compute fairness of an empty list")
    linear = float(np.cumsum(ordered)[-1])
    squared = float(np.cumsum(ordered * ordered)[-1])
    if squared == 0.0:
        return 1.0
    return (linear * linear) / (len(ordered) * squared)


def _sorted_floats(values: Sequence[float], empty_message: str) -> np.ndarray:
    """``values`` as an ascending float64 array; raises on an empty input."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if len(ordered) == 0:
        raise ExperimentError(empty_message)
    return ordered

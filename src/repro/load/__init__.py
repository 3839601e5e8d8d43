"""Open-workload population engine: arrivals, contention, tail metrics.

``repro.load`` answers the question the single-client stages cannot:
not "which service is fastest for one client" but "which service
survives a population".  An open arrival process
(:mod:`~repro.load.arrivals`) feeds sessions through a FIFO service
edge onto a shared link divided by tick-based max-min fair sharing
(:mod:`~repro.load.contention`); the fluid engine
(:mod:`~repro.load.population`, which also owns the edge's queue) turns
10^4–10^6 such sessions into per-session completion times, queue waits
and goodput in seconds, and
:mod:`~repro.load.metrics` reduces them to deterministic tail quantiles
(p95/p99/p999), Jain fairness and saturation ratios.

Arrivals are Poisson only.  The campaign surface is the ``load`` stage:
units are population sizes (``1k``/``10k``/``100k``/``1M``); the window
they are offered over, the edge concurrency, link capacity and transfer
size are :class:`~repro.load.population.LoadParameters` defaults.  Cells
shard, sweep, resume and merge byte-identically like the rest of the
suite.
"""

from repro.load.arrivals import poisson_times
from repro.load.contention import DEFAULT_TICK, SharedLink, group_allocation, max_min_allocation
from repro.load.metrics import TailSummary, jain_index
from repro.load.population import (
    HANDSHAKE_RTTS,
    AccessLane,
    LoadCellSummary,
    LoadParameters,
    LoadResult,
    lane_for,
    reduce_load,
    run_load_cell,
    simulate_population,
)

__all__ = [
    "DEFAULT_TICK",
    "HANDSHAKE_RTTS",
    "AccessLane",
    "LoadCellSummary",
    "LoadParameters",
    "LoadResult",
    "SharedLink",
    "TailSummary",
    "group_allocation",
    "jain_index",
    "lane_for",
    "max_min_allocation",
    "poisson_times",
    "reduce_load",
    "run_load_cell",
    "simulate_population",
]

"""repro.dist — multi-runner campaign execution over a shared store.

The campaign engine (:mod:`repro.core.campaign`) reduces the paper's whole
measurement study to a deterministic grid of pure (stage, service, unit,
seed, config) cells, and the result store (:mod:`repro.core.store`) makes
each cell's output addressable by its identity.  This package adds the
third leg: letting *N cooperating runners* — processes or machines sharing
nothing but a store directory — complete one campaign together, with the
merged output bit-identical to a sequential run.

* :mod:`repro.dist.claims` — atomic lease files with heartbeats and
  stale-lease reclaim, through which runners claim cells;
* :mod:`repro.dist.coordinator` — the :class:`ShardWorker` claim loop
  and the :class:`CampaignMerger` that merges the shared store back into
  one campaign result with per-runner accounting.
"""

from repro.dist.claims import DEFAULT_LEASE_TIMEOUT, ClaimBoard, Lease
from repro.dist.coordinator import CampaignMerger, MergedCampaign, ShardWorker, WorkerReport

__all__ = [
    "ClaimBoard",
    "Lease",
    "DEFAULT_LEASE_TIMEOUT",
    "ShardWorker",
    "WorkerReport",
    "CampaignMerger",
    "MergedCampaign",
]

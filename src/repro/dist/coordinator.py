"""Shard workers and the campaign merger.

A distributed campaign has exactly two roles, both stateless beyond the
shared store directory:

* :class:`ShardWorker` — one per runner.  Computes the deterministic
  campaign plan locally, claims cells one at a time through lease files
  (:class:`~repro.dist.claims.ClaimBoard`), executes each through the
  ordinary :func:`repro.core.campaign.run_cell`, and persists results into
  the shared :class:`~repro.core.store.ResultStore`.  Workers never talk
  to each other; the store and the claim board are the only coordination
  media, so every runner is launched with the same command.
* :class:`CampaignMerger` — usually run once, anywhere, after (or while)
  the workers run.  Re-plans the same grid, waits for every cell to appear
  in the store, merges the cells' rows in plan order into the same per-seed
  :class:`~repro.core.sweep.SweepResult` that
  :meth:`CampaignRunner.run() <repro.core.campaign.CampaignRunner.run>`
  returns, and reports which runner computed what.

Because each cell's rows are a pure function of its identity and merging
happens in plan order, the merged sweep — tables, CSVs and the
deterministic ``--json`` document — is bit-identical to what a sequential
``cloudbench all --jobs 1`` produces for the same seeds and config, no
matter how many workers took part, which cells each claimed, or how often
a worker died and was relaunched.  Workers claim from the seed-expanded
plan (the seed is a plan dimension), so one fleet serves a whole sweep.
"""

from __future__ import annotations

import os
import socket
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.campaign import (
    CampaignCell,
    CampaignRunner,
    CellResult,
    init_worker_services,
    run_cell,
    worker_service_payload,
)
from repro.core.store import ResultStore
from repro.core.sweep import SweepResult
from repro.dist.claims import DEFAULT_LEASE_TIMEOUT, ClaimBoard
from repro.errors import DistributionError
from repro.obs.tracer import activate

__all__ = ["default_runner_id", "ShardWorker", "WorkerReport", "CampaignMerger", "MergedCampaign"]


def default_runner_id() -> str:
    """Host-and-pid runner id: unique enough across cooperating machines."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerReport:
    """What one shard worker did: its accounting half of the campaign."""

    runner: str
    planned: int  # cells in the campaign plan
    computed: List[str] = field(default_factory=list)  # cell keys run here
    hits: int = 0  # cells already present in the store
    yielded: List[str] = field(default_factory=list)  # left to live rivals
    failed: List[str] = field(default_factory=list)  # cells whose experiment raised or whose worker died
    wall_seconds: float = 0.0

    def rows(self) -> List[dict]:
        """One summary row, for the CLI table."""
        return [
            {
                "runner": self.runner,
                "planned": self.planned,
                "computed": len(self.computed),
                "store_hits": self.hits,
                "yielded": len(self.yielded),
                "failed": len(self.failed),
                "wall_s": round(self.wall_seconds, 3),
            }
        ]


class ShardWorker:
    """One runner's claim → run → save → release loop over the shared store.

    ``runner`` supplies the deterministic plan, the execution config and the
    process pool width (``jobs``); it must carry a
    :class:`~repro.core.store.ResultStore` — that store *is* the campaign's
    shared state.
    """

    def __init__(
        self,
        runner: CampaignRunner,
        *,
        runner_id: Optional[str] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        if runner.store is None:
            raise DistributionError("a shard worker needs a CampaignRunner with a result store attached")
        self.runner = runner
        self.store: ResultStore = runner.store
        self.runner_id = runner_id if runner_id is not None else default_runner_id()
        # Tag every entry this worker saves, for per-runner merge accounting.
        self.store.runner = self.runner_id
        self.claims = ClaimBoard(self.store, self.runner_id, lease_timeout=lease_timeout)
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval is not None else max(0.05, min(5.0, lease_timeout / 4.0))
        )

    def run(self) -> WorkerReport:
        """Claim any unowned (or stale-leased) cell until none remain, then report.

        The loop keeps up to ``jobs`` claimed cells in flight in a process
        pool, heartbeats their leases while they run, and exits once every
        plan cell is either in the store or freshly leased by a live rival
        (those are reported as ``yielded``; the rival — or a relaunched
        worker reclaiming its stale leases — finishes them).

        A dead pool worker breaks the pool, as in
        :meth:`CampaignRunner.run_cells
        <repro.core.campaign.CampaignRunner.run_cells>`: its cell and every
        other cell still in flight are reported as ``failed`` and their
        leases released, finished cells stay in the store, and the runner
        claims nothing more — the cells it never claimed are left for other
        runners or a relaunch.
        """
        started = time.perf_counter()
        # The runner's harness tracer (recording iff the campaign is traced)
        # is active for the whole loop, so store hit/miss and claim
        # acquire/reclaim counters land in the worker's harness section.
        with activate(self.runner.tracer):
            report = self._claim_loop()
        report.wall_seconds = time.perf_counter() - started
        return report

    def _claim_loop(self) -> WorkerReport:
        plan = self.runner.cells()
        report = WorkerReport(runner=self.runner_id, planned=len(plan))
        pending = {cell.key: cell for cell in plan}
        in_flight: Dict[Future, CampaignCell] = {}
        launched: Dict[Future, float] = {}  # future -> wall_now() at submit
        tracer = self.runner.tracer
        broken = False  # a dead pool worker broke the pool: claim nothing more
        try:
            with ProcessPoolExecutor(
                max_workers=self.runner.jobs,
                initializer=init_worker_services,
                initargs=(worker_service_payload(plan),),
            ) as pool:
                while in_flight or (pending and not broken):
                    progressed = False
                    if not broken:
                        progressed, broken = self._fill(pool, pending, in_flight, launched, report)
                    if tracer.enabled:
                        tracer.gauge_set("shard.in_flight", len(in_flight))
                    if in_flight:
                        broken = self._collect(in_flight, launched, report) or broken
                    elif not progressed:
                        # Everything left is freshly leased by live rivals.
                        report.yielded = sorted(pending)
                        break
        except BaseException:
            # Dying with leases held would stall rivals for a full lease
            # timeout; hand the unfinished cells back immediately.
            for cell in in_flight.values():
                self.claims.release(cell)
            raise
        return report

    def _fill(
        self, pool: ProcessPoolExecutor, pending: dict, in_flight: dict, launched: dict, report: WorkerReport
    ) -> Tuple[bool, bool]:
        """Claim and submit work up to the pool width.

        Returns whether anything moved, and whether the pool turned out to
        be broken (a worker died since the last collection).
        """
        progressed = False
        tracer = self.runner.tracer
        # Match CampaignRunner.run_cells: the trace argument only appears
        # when tracing, keeping run_cell's one-argument shape.
        cell_args = (True,) if self.runner.trace else ()
        for key in list(pending):
            if len(in_flight) >= self.runner.jobs:
                break
            cell = pending[key]
            if self.store.load(cell) is not None:
                del pending[key]
                report.hits += 1
                progressed = True
            elif self.claims.claim(cell):
                del pending[key]
                try:
                    future = pool.submit(run_cell, cell, *cell_args)
                except BrokenProcessPool:
                    self.claims.release(cell)
                    report.failed.append(cell.key)
                    return True, True
                in_flight[future] = cell
                if tracer.enabled:
                    launched[future] = tracer.wall_now()
                progressed = True
        return progressed, False

    def _collect(self, in_flight: dict, launched: dict, report: WorkerReport) -> bool:
        """Wait up to one heartbeat interval, settle the finished cells, heartbeat the rest.

        Returns whether a dead pool worker broke the pool.
        """
        tracer = self.runner.tracer
        done, _ = wait(set(in_flight), timeout=self.heartbeat_interval, return_when=FIRST_COMPLETED)
        broken = False
        failure: Optional[BaseException] = None
        for future in done:
            cell = in_flight[future]
            try:
                result: Optional[CellResult] = future.result()
            except BrokenProcessPool:
                # A dead worker fails every unfinished future of the pool.
                result, broken = None, True
            except BaseException as error:  # save siblings first, re-raise below
                del in_flight[future]
                self.claims.release(cell)
                if failure is None:
                    failure = error
                continue
            if result is None or result.failure is not None:
                # The experiment raised inside the cell (the failure context
                # rides the result) or its worker died: nothing to cache, and
                # the lease goes back so a relaunch can recompute the cell.
                outcome = "failed"
                report.failed.append(cell.key)
            else:
                # Keep the cell in in_flight until the save lands, so a
                # failing save still releases its lease via the crash cleanup.
                self.store.save(result)
                outcome = "computed"
                report.computed.append(cell.key)
            del in_flight[future]
            self.claims.release(cell)
            if tracer.enabled:
                tracer.record_wall(
                    "shard.cell", launched.pop(future, 0.0), tracer.wall_now(), key=cell.key, outcome=outcome
                )
        if failure is not None:
            raise failure
        for cell in in_flight.values():
            self.claims.heartbeat(cell)
        if tracer.enabled and in_flight:
            tracer.count("shard.heartbeats", len(in_flight))
        return broken


@dataclass
class MergedCampaign:
    """A merged distributed campaign: the result plus per-runner accounting.

    ``sweep`` groups the collected cells per seed
    (:class:`~repro.core.sweep.SweepResult`) — for a single-seed campaign
    it holds exactly one per-seed campaign — and is the artifact
    ``cloudbench merge`` reports.
    """

    sweep: SweepResult
    runner_cells: Dict[str, int]  # runner id -> cells computed
    runner_cpu: Dict[str, float]  # runner id -> summed cell wall-clock

    def runner_rows(self) -> List[dict]:
        """Per-runner accounting rows for the merge report table."""
        return [
            {
                "runner": runner,
                "cells": self.runner_cells[runner],
                "cell_cpu_s": round(self.runner_cpu[runner], 3),
            }
            for runner in sorted(self.runner_cells)
        ]


class CampaignMerger:
    """Collect one campaign's cells from the shared store and merge them.

    The merger never computes anything: it re-plans the same deterministic
    grid the workers used (same services, stages, seed, config — those
    *must* match the workers' invocation, or the plan addresses different
    store keys) and reads every cell back, optionally polling until
    stragglers land.
    """

    def __init__(self, runner: CampaignRunner, *, poll_interval: float = 0.5) -> None:
        if runner.store is None:
            raise DistributionError("a campaign merger needs a CampaignRunner with a result store attached")
        self.runner = runner
        self.store: ResultStore = runner.store
        self.poll_interval = poll_interval

    def missing(self) -> List["object"]:
        """Plan cells whose entry file is absent from the store, in plan order.

        Existence is probed cheaply (no parsing) because this runs in
        the ``--wait`` poll loop; a present-but-corrupt entry is only
        discovered — healed and reported missing — by the full read in
        :meth:`collect`.
        """
        return [cell for cell in self.runner.cells() if not os.path.exists(self.store.path_for(cell))]

    def _wait(self, deadline: Optional[float]) -> None:
        while True:
            missing = self.missing()
            if not missing:
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise DistributionError(self._missing_message(missing, "timed out waiting for"))
            time.sleep(self.poll_interval)

    def collect(self, *, wait: bool = False, timeout: Optional[float] = None) -> MergedCampaign:
        """Merge every stored cell into one campaign result.

        Without ``wait`` a store that is still incomplete raises
        immediately (fail-fast, listing the missing cells); with ``wait``
        the merger polls until complete or ``timeout`` elapses.  A corrupt
        entry discovered during the full read is deleted (see
        :meth:`~repro.core.store.ResultStore.load`) and, under ``wait``,
        simply waited on again — a live worker will recompute it.
        """
        started = time.perf_counter()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if wait:
                self._wait(deadline)
            plan = self.runner.cells()
            results = []
            missing = []
            for cell in plan:
                result = self.store.load(cell)
                if result is not None:
                    results.append(result)
                else:
                    missing.append(cell)
            if not missing:
                break
            if not wait:
                raise DistributionError(self._missing_message(missing, "store is missing"))
            # Present-but-unloadable entries (e.g. foreign schema) keep the
            # existence probe satisfied, so pace the retry loop explicitly.
            if deadline is not None and time.monotonic() >= deadline:
                raise DistributionError(self._missing_message(missing, "timed out waiting for"))
            time.sleep(self.poll_interval)
        # Flight records ride the store sidecars, so a traced merge
        # reassembles the full campaign trace without recomputing a cell.
        sweep = self.runner.sweep(results, started=started)
        runner_cells: Counter = Counter()
        runner_cpu: Dict[str, float] = {}
        for result in results:
            tag = result.runner if result.runner is not None else "(untagged)"
            runner_cells[tag] += 1
            runner_cpu[tag] = runner_cpu.get(tag, 0.0) + result.wall_seconds
        return MergedCampaign(sweep=sweep, runner_cells=dict(runner_cells), runner_cpu=runner_cpu)

    def _missing_message(self, missing: List["object"], verb: str) -> str:
        keys = [cell.key for cell in missing]
        shown = ", ".join(keys[:8]) + (", ..." if len(keys) > 8 else "")
        return (
            f"{verb} {len(keys)} of {len(self.runner.cells())} campaign cell(s): {shown} "
            f"(store: {self.store.root}; are all shard workers done, and launched from the same "
            f"code with the same --services/--stages/--seed and config flags?)"
        )

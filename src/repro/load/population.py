"""Open-population fluid engine: arrivals × edge queueing × shared link.

This is the load stage's heart.  It advances an *open* population of
client sessions through three stages — arrival (:mod:`.arrivals`), FIFO
admission at the service edge, and a max-min fair share of one uplink
(:mod:`.contention`) — and produces per-session completion times, queue
waits and goodput.

The service edge is the classic M/G/k admission discipline: at most
``edge_concurrency`` sessions in service, everyone else waiting
first-in-first-out, with no timeouts, drops or priorities.  Queue *wait*
— the gap between arrival and admission — is reported apart from
transfer time, because under saturation it dominates completion time.

The engine is *fluid*, not packet-level: each admitted session is a
demand of ``size`` bytes draining at the link's current per-session
rate.  Because every session of a cell rides the same access path, the
active set is a single equal-cap group and the max-min share is
``min(cap, capacity / active)`` — so rates change **only** when the
active set changes.  The engine therefore never loops over ticks; it
jumps straight between tick boundaries where an arrival is admitted or
a completion frees a slot, which is provably identical to evaluating
the allocation at every tick (it is constant in between).  Completions
are tracked with a virtual-service clock: admitting a session with
demand ``d`` at cumulative service ``S`` tags it ``S + d`` on a
min-heap, and between boundaries ``S`` grows linearly — O(N log N)
total work, which is how 10^5–10^6 sessions run in seconds.

Per-session fixed latency (handshake RTTs, server processing, TCP
slow-start ramp from the closed-form :func:`repro.netsim.tcp.slow_start_penalty`,
looked up per session by :func:`~repro.netsim.tcp.slow_start_penalties`)
is added outside the fluid phase; it shapes completion times and
goodput but deliberately does not consume link capacity — handshake
bytes are negligible against the transfer payload at these scales.

Everything is a pure function of ``(service, population, seed, config)``,
so load cells cache, shard, sweep and merge byte-identically.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Sequence, Tuple

import numpy as np

from repro.load.arrivals import poisson_times
from repro.load.contention import DEFAULT_TICK, TAG_EPSILON, SharedLink
from repro.load.metrics import TailSummary, jain_index
from repro.netsim.scenario import ScenarioSpec
from repro.netsim.tcp import slow_start_penalties
from repro.obs.tracer import current_tracer
from repro.randomness import expovariate_block, make_rng
from repro.services.registry import get_profile
from repro.units import format_population, mbps

__all__ = [
    "HANDSHAKE_RTTS",
    "AccessLane",
    "LoadParameters",
    "LoadResult",
    "LoadCellSummary",
    "lane_for",
    "simulate_population",
    "run_load_cell",
]

#: Round trips spent before the first payload byte: TCP handshake, TLS
#: setup and the HTTP request — the same three-RTT convention the packet
#: engine uses for an HTTPS storage flow.
HANDSHAKE_RTTS = 3.0


@dataclass(frozen=True)
class AccessLane:
    """The per-session path every client of one load cell rides.

    Derived from the service's primary storage server with the campaign
    scenario applied — the same path a performance cell would measure,
    so a load cell's "solo" behaviour matches the single-client stages.
    """

    cap_bps: float
    rtt: float
    server_processing: float


def _is_integer(value) -> bool:
    """True for values :func:`operator.index` accepts, except ``bool``."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


@dataclass(frozen=True)
class LoadParameters:
    """Knobs of one load cell.

    A campaign sets only ``population`` (the unit); every load cell runs
    the other knobs at their defaults here.  ``link_capacity_bps`` is
    infrastructure-side: deliberately not warped by the scenario, which
    shapes the per-session access path.
    """

    population: int
    #: Seconds the whole population is offered over.
    window_s: float = 60.0
    #: Service-edge concurrency limit (sessions in service; the rest queue FIFO).
    edge_concurrency: int = 64
    #: Shared-link capacity in bits/s.
    link_capacity_bps: float = mbps(400.0)
    #: Mean per-session transfer size in bytes (exponentially distributed).
    transfer_bytes: int = 100_000
    tick_s: float = DEFAULT_TICK

    def __post_init__(self) -> None:
        for name in ("population", "edge_concurrency"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("window_s", "link_capacity_bps", "transfer_bytes", "tick_s"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(eq=False)
class LoadResult:
    """Raw per-session outcome columns plus cell-level saturation facts.

    The four columns are float64 arrays, one entry per session in arrival
    order.  Two results are compared column by column: an array has no
    single truth value, so the dataclass defines no ``==``.
    """

    arrivals: np.ndarray
    queue_waits: np.ndarray
    completions: np.ndarray
    goodputs_bps: np.ndarray
    total_bytes: int = 0
    makespan_s: float = 0.0
    peak_active: int = 0
    peak_queue: int = 0

    @property
    def sessions(self) -> int:
        return len(self.completions)


def lane_for(service: str, scenario: ScenarioSpec, seed: int) -> AccessLane:
    """Scenario-warped access lane to the service's primary storage server."""
    server = get_profile(service).primary_storage
    path = scenario.apply(server.path_from(), hostname=server.hostname, seed=seed)
    return AccessLane(
        cap_bps=path.uplink_bps,
        rtt=path.rtt,
        server_processing=path.server_processing,
    )


def _admission_walk(
    arrivals: Sequence[float],
    sizes: Sequence[int],
    concurrency: int,
    cap: float,
    capacity: float,
    tick: float,
) -> Tuple[List[float], List[float], int, int]:
    """Walk the admission/completion boundaries of one cell, in time order.

    ``arrivals`` are ascending tick-lattice instants and ``sizes`` the
    sessions' demands in bytes; at most ``concurrency`` sessions are in
    service, each draining at ``min(cap, capacity / active)`` bits/s, and
    the rest wait FIFO in ``queue``.  Returns each session's admission
    instant, its exact fluid-phase end, and the peaks of the in-service
    count and of the queue.

    Two kinds of boundary, each the next tick boundary where the active
    set changes:

    * an *admission instant* — a slot is free, nobody waits, and the next
      arrival comes no later than the next completion boundary.  It admits
      that arrival and every later one with the same timestamp while the
      edge has room, then recomputes the rate once.  The batch is
      bit-identical to one admission per boundary: the clock does not move
      between same-instant admissions (the service level would gain
      ``0.0 * byte_rate``), and a completion boundary is always later than
      now, so none could come between them;
    * a *completion boundary* — every arrival up to it queues (the edge
      is full, or these would have been admission instants), then every
      finished session leaves and hands its slot to the head of the queue.
    """
    count = len(arrivals)
    admit_at = [0.0] * count
    fluid_end = [0.0] * count
    heap: List[Tuple[float, int]] = []
    queue: Deque[int] = deque()
    push, pop, ceil = heapq.heappush, heapq.heappop, math.ceil
    enqueue, dequeue = queue.append, queue.popleft
    pointer = active = peak_active = peak_queue = 0
    now = 0.0
    service_level = 0.0  # cumulative bytes delivered per active session
    byte_rate = 0.0  # per-session rate of the active set, bytes per second

    while pointer < count or active:
        if active:
            # Next completion boundary (tick-aligned, strictly in the
            # future): SharedLink.quantize_up, inlined.
            finish = now + (heap[0][0] - service_level) / byte_rate
            completion_at = ceil(finish / tick - TAG_EPSILON) * tick
            if completion_at <= now:
                completion_at = now + tick
        # With nobody in service nobody waits, so the arrival is
        # admissible and the loop cannot stall.
        if (
            pointer < count
            and active < concurrency
            and not queue
            and (not active or arrivals[pointer] <= completion_at)
        ):
            arrival = arrivals[pointer]
            if active:
                service_level += (arrival - now) * byte_rate
            now = arrival
            while True:
                admit_at[pointer] = now
                push(heap, (service_level + sizes[pointer], pointer))
                pointer += 1
                active += 1
                if pointer == count or active == concurrency or arrivals[pointer] != now:
                    break
            if active > peak_active:
                peak_active = active
        else:
            service_level += (completion_at - now) * byte_rate
            now = completion_at
            # Queue every arrival up to this boundary before any slot
            # frees: FIFO admission must see them in arrival order.
            while pointer < count and arrivals[pointer] <= now:
                enqueue(pointer)
                pointer += 1
            if len(queue) > peak_queue:
                peak_queue = len(queue)
            slack = TAG_EPSILON * (service_level + 1.0)
            while active and heap[0][0] <= service_level + slack:
                tag, index = pop(heap)
                # Exact finish inside the last segment; the rate was
                # constant there, so invert the linear service growth.
                exact = now - (service_level - tag) / byte_rate
                fluid_end[index] = exact if exact > admit_at[index] else admit_at[index]
                if queue:
                    admitted = dequeue()
                    admit_at[admitted] = now
                    push(heap, (service_level + sizes[admitted], admitted))
                else:
                    active -= 1
        if active:
            # Single equal-cap group: the max-min share reduces to
            # min(cap, capacity / active), bit-equal to group_allocation.
            # Read only while someone is in service.
            share = capacity / active
            byte_rate = (cap if cap < share else share) / 8.0
    return admit_at, fluid_end, peak_active, peak_queue


def simulate_population(params: LoadParameters, lane: AccessLane, rng) -> LoadResult:
    """Run one open population through the edge and the shared link.

    The rng draw order is fixed — the full arrival schedule first, then
    one size per session — so results depend only on the rng seed, never
    on evaluation order.  The shared-link capacity is infrastructure-side
    and deliberately *not* scenario-warped; the scenario shapes each
    session's access cap and latency through ``lane``.

    Per-session work runs as numpy array operations, each bit-identical to
    the per-session Python loop it stands for: the draws replay the rng's
    raw outputs (:func:`repro.randomness.expovariate_block`), the slow-start
    penalty is a per-cell table lookup, and the result columns repeat the
    loop's float operations in its order.  Only the admission/completion
    boundary walk (:func:`_admission_walk`) is sequential; it alone reads
    the columns as lists, one element at a time.
    """
    count = params.population
    link = SharedLink(capacity_bps=params.link_capacity_bps, tick_s=params.tick_s)
    # A mean rate of population / window: a bigger population over the
    # same window is proportionally heavier load.
    raw_arrivals = poisson_times(count, count / params.window_s, rng)
    # max(1, int(rng.expovariate(1 / mean))) per session; int() truncates.
    size_column = np.maximum(expovariate_block(rng, count, 1.0 / params.transfer_bytes).astype(np.int64), 1)
    # Arrivals live on the tick lattice: an arrival mid-tick takes effect
    # at the next boundary, like every other state change.
    arrival_column = link.quantize_up_array(raw_arrivals)
    cap = lane.cap_bps
    admit_at, fluid_end, peak_active, peak_queue = _admission_walk(
        arrival_column.tolist(), size_column.tolist(), params.edge_concurrency, cap, link.capacity_bps, link.tick_s
    )

    admit_column = np.array(admit_at)
    end_column = np.array(fluid_end)
    latency = (HANDSHAKE_RTTS * lane.rtt + lane.server_processing) + slow_start_penalties(size_column, cap, lane.rtt)
    queue_waits = admit_column - arrival_column
    transfers = end_column - admit_column
    return LoadResult(
        arrivals=arrival_column,
        queue_waits=queue_waits,
        completions=queue_waits + latency + transfers,
        goodputs_bps=size_column * 8.0 / (latency + transfers),
        total_bytes=int(size_column.sum()),
        makespan_s=float(np.max(end_column + latency, initial=0.0)),
        peak_active=peak_active,
        peak_queue=peak_queue,
    )


def _round6(value: float) -> float:
    return round(float(value), 6)


@dataclass(frozen=True)
class LoadCellSummary:
    """Reduced tail/fairness/saturation metrics of one (service, population)."""

    service: str
    population: int
    sessions: int
    completion: TailSummary
    queue: TailSummary
    goodput: TailSummary
    jain: float
    offered_ratio: float
    utilization: float
    queued_fraction: float
    peak_active: int
    peak_queue: int
    makespan_s: float

    @property
    def unit(self) -> str:
        """The campaign unit label this cell ran as (``1k``/``10k``/…)."""
        return format_population(self.population)

    def row(self) -> dict:
        """Flat report row; all floats rounded to 6 decimals."""
        return {
            "service": self.service,
            "population": self.unit,
            "sessions": self.sessions,
            "completion_p50_s": _round6(self.completion.p50),
            "completion_p95_s": _round6(self.completion.p95),
            "completion_p99_s": _round6(self.completion.p99),
            "completion_p999_s": _round6(self.completion.p999),
            "queue_p99_s": _round6(self.queue.p99),
            "queue_p999_s": _round6(self.queue.p999),
            "goodput_mbps": _round6(self.goodput.mean / 1e6),
            "jain": _round6(self.jain),
            "offered_x": _round6(self.offered_ratio),
            "utilization": _round6(self.utilization),
            "queued_fraction": _round6(self.queued_fraction),
            "peak_active": self.peak_active,
        }


def reduce_load(service: str, params: LoadParameters, result: LoadResult) -> LoadCellSummary:
    """Reduce raw session columns to the cell's summary (order-independent)."""
    queue_waits = np.asarray(result.queue_waits)
    goodputs = np.asarray(result.goodputs_bps)
    queued = int(np.count_nonzero(queue_waits > 0.0))
    offered_bps = result.total_bytes * 8.0 / params.window_s
    makespan = result.makespan_s
    utilization = (
        result.total_bytes * 8.0 / (makespan * params.link_capacity_bps) if makespan > 0.0 else 0.0
    )
    return LoadCellSummary(
        service=service,
        population=params.population,
        sessions=result.sessions,
        completion=TailSummary.from_values(result.completions),
        queue=TailSummary.from_values(queue_waits),
        goodput=TailSummary.from_values(goodputs),
        jain=jain_index(goodputs),
        offered_ratio=offered_bps / params.link_capacity_bps,
        utilization=utilization,
        queued_fraction=queued / result.sessions,
        peak_active=result.peak_active,
        peak_queue=result.peak_queue,
        makespan_s=makespan,
    )


def run_load_cell(service: str, params: LoadParameters, *, seed: int, scenario: ScenarioSpec) -> LoadCellSummary:
    """Run one load cell: a pure function of (service, params, seed, scenario).

    The rng is derived from ``(seed, "load", service, population)`` so
    each (service, population) cell of a seed sweeps independently, and
    the same cell recomputed anywhere reproduces bit-identical columns.
    """
    lane = lane_for(service, scenario, seed)
    rng = make_rng(seed, "load", service, params.population)
    result = simulate_population(params, lane, rng)
    summary = reduce_load(service, params, result)
    tracer = current_tracer()
    if tracer.enabled:
        tracer.sim_span(
            "load.window",
            0.0,
            params.window_s,
            service=service,
            population=summary.unit,
            sessions=summary.sessions,
        )
        if summary.makespan_s > params.window_s:
            tracer.sim_span(
                "load.drain",
                params.window_s,
                summary.makespan_s,
                service=service,
                population=summary.unit,
            )
        tracer.count("load.sessions", summary.sessions)
        tracer.gauge_set("load.peak_active", summary.peak_active)
        tracer.gauge_set("load.peak_queue", summary.peak_queue)
    return summary

"""Tests for the open-workload population engine (``repro.load``).

Covers the allocator's conservation/order-invariance properties
(hypothesis), shuffle-bit-identity of the tail reductions, engine sanity
against closed-form expectations, the campaign ``load`` stage (plan
order, caching, sweep aggregation) and end-to-end byte-identity of the
CLI documents across jobs and a 2-worker shard+merge.

The engine's array code is held bit-identical to the per-session loops
it stands for: the scalar loops are kept here as oracles (the draws, the
Poisson clock, the slow-start penalty, tick quantization, the
reductions), and SHA-256 pins of four cells were computed with them.
The boundary walk's oracle is the one-admission-per-boundary walk over a
minimal FIFO that the engine's same-instant batches replace.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import math
import random
from collections import deque

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.cli import main, store_listing_rows
from repro.core.campaign import CampaignCell, CampaignConfig, CampaignRunner, run_cell
from repro.core.metrics import quantile
from repro.core.store import ResultStore, cache_key
from repro.errors import ConfigurationError
from repro.load import (
    AccessLane,
    LoadParameters,
    SharedLink,
    TailSummary,
    arrival_times,
    diurnal_times,
    group_allocation,
    jain_index,
    lane_for,
    max_min_allocation,
    poisson_times,
    reduce_load,
    run_load_cell,
    simulate_population,
)
from repro.load.contention import TAG_EPSILON
from repro.load.population import _admission_walk
from repro.netsim.scenario import BASELINE, ScenarioSpec, get_scenario
from repro.netsim.tcp import INITIAL_CWND_BYTES, slow_start_penalties, slow_start_penalty
from repro.randomness import DEFAULT_SEED, expovariate_block, make_rng, random_block
from repro.specio import canonical_json
from repro.units import (
    format_population,
    mbps,
    parse_population,
    parse_populations,
    unit_sort_key,
)

caps_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=40,
)
capacities = st.floats(min_value=1.0, max_value=1e10, allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**64 - 1)


def _bits(values):
    """Exact float spellings, so -0.0 and 0.0 (equal under ==) differ."""
    return [float(value).hex() for value in values]


def _used_rng(seed, warmup):
    """An rng part-way through an MT19937 block, with a cached ``gauss`` value."""
    rng = random.Random(seed)
    rng.getrandbits(32 * warmup + 1)
    rng.gauss(0.0, 1.0)
    assert rng.getstate()[2] is not None
    return rng


def _copy_rng(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def _result_document(result):
    """A :class:`LoadResult` as a plain dict, its float64 columns as lists."""
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in dataclasses.asdict(result).items()
    }


def _poisson_times_loop(count, rate, rng):
    """The per-draw clock :func:`poisson_times` replays in bulk: the oracle."""
    times = []
    clock = 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        times.append(clock)
    return times


class _Fifo:
    """Minimal service edge: a concurrency limit, a FIFO queue and their peaks."""

    def __init__(self, concurrency):
        self.concurrency = concurrency
        self.in_service = self.peak_active = self.peak_queue = 0
        self.queue = deque()

    def has_capacity(self):
        return self.in_service < self.concurrency and not self.queue

    def offer(self, session):
        if self.has_capacity():
            self.in_service += 1
            self.peak_active = max(self.peak_active, self.in_service)
        else:
            self.queue.append(session)
            self.peak_queue = max(self.peak_queue, len(self.queue))

    def release(self):
        """Free one slot; hand it to the head of the queue, whose id is returned."""
        if self.queue:
            return self.queue.popleft()
        self.in_service -= 1
        return None


def _admission_walk_oracle(arrivals, sizes, concurrency, cap, capacity, tick):
    """The walk :func:`_admission_walk` batches: one admission per boundary.

    Every admission is its own boundary: the next completion boundary
    (through :meth:`SharedLink.quantize_up`) and the rate are recomputed
    after each one, even when the next arrival shares its timestamp.
    """
    link = SharedLink(capacity_bps=capacity, tick_s=tick)
    edge = _Fifo(concurrency)
    count = len(arrivals)
    admit_at = [0.0] * count
    fluid_end = [0.0] * count
    heap = []
    pointer = 0
    now = service_level = byte_rate = 0.0
    while pointer < count or heap:
        if heap:
            completion_at = link.quantize_up(now + (heap[0][0] - service_level) / byte_rate)
            if completion_at <= now:
                completion_at = now + tick
        else:
            completion_at = None
        arrival_at = arrivals[pointer] if pointer < count and edge.has_capacity() else None
        if arrival_at is not None and (completion_at is None or arrival_at <= completion_at):
            if heap:
                service_level += (arrival_at - now) * byte_rate
            now = arrival_at
            edge.offer(pointer)
            admit_at[pointer] = now
            heapq.heappush(heap, (service_level + sizes[pointer], pointer))
            pointer += 1
        else:
            service_level += (completion_at - now) * byte_rate
            now = completion_at
            while pointer < count and arrivals[pointer] <= now:
                edge.offer(pointer)
                pointer += 1
            slack = TAG_EPSILON * (service_level + 1.0)
            while heap and heap[0][0] <= service_level + slack:
                tag, index = heapq.heappop(heap)
                exact = now - (service_level - tag) / byte_rate
                fluid_end[index] = exact if exact > admit_at[index] else admit_at[index]
                admitted = edge.release()
                if admitted is not None:
                    admit_at[admitted] = now
                    heapq.heappush(heap, (service_level + sizes[admitted], admitted))
        if heap:
            share = capacity / len(heap)
            byte_rate = (cap if cap < share else share) / 8.0
        else:
            byte_rate = 0.0
    return admit_at, fluid_end, edge.peak_active, edge.peak_queue


def _walk_bits(walk):
    admit_at, fluid_end, peak_active, peak_queue = walk
    return _bits(admit_at), _bits(fluid_end), peak_active, peak_queue


@st.composite
def walk_cells(draw):
    """Sorted lattice arrivals over a few ticks, so same-instant bursts are common."""
    tick = draw(st.sampled_from([0.01, 0.001, 0.05, 0.3]))
    window = tick * draw(st.integers(min_value=1, max_value=6))
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=window), min_size=1, max_size=80))
    arrivals = SharedLink(capacity_bps=1.0, tick_s=tick).quantize_up_array(np.sort(np.array(raw))).tolist()
    sizes = draw(st.lists(st.integers(min_value=1, max_value=2_000_000), min_size=len(raw), max_size=len(raw)))
    concurrency = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64]))
    capacity = draw(st.sampled_from([mbps(1.0), mbps(50.0), mbps(400.0)]))
    # A per-session cap below or above the fair share capacity / active.
    active = draw(st.integers(min_value=1, max_value=concurrency))
    cap = capacity / active * draw(st.sampled_from([0.25, 0.9, 1.0, 1.1, 4.0]))
    return arrivals, sizes, concurrency, cap, capacity, tick


class TestAllocatorProperties:
    @given(caps=caps_lists, capacity=capacities)
    @settings(max_examples=120, deadline=None)
    def test_conserves_bandwidth_and_respects_caps(self, caps, capacity):
        rates = max_min_allocation(caps, capacity)
        assert len(rates) == len(caps)
        # Conservation: allocations never exceed the capacity (beyond
        # float accumulation noise) and each session stays under its cap.
        assert sum(rates) <= capacity * (1.0 + 1e-9) + 1e-9
        for rate, cap in zip(rates, caps):
            assert 0.0 <= rate <= cap * (1.0 + 1e-12) + 1e-12

    @given(caps=caps_lists, capacity=capacities, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=120, deadline=None)
    def test_order_invariant_bit_exact(self, caps, capacity, seed):
        rates = max_min_allocation(caps, capacity)
        order = list(range(len(caps)))
        random.Random(seed).shuffle(order)
        shuffled_rates = max_min_allocation([caps[i] for i in order], capacity)
        # The multiset of allocations is independent of session order —
        # bit for bit, so arrival order can never leak into the results.
        assert sorted(shuffled_rates) == sorted(rates)
        if len(set(caps)) == len(caps):
            # With distinct caps the mapping itself is equivariant too.
            assert [shuffled_rates[order.index(i)] for i in range(len(caps))] == rates

    @given(caps=caps_lists, capacity=capacities)
    @settings(max_examples=80, deadline=None)
    def test_work_conserving_when_demand_exceeds_capacity(self, caps, capacity):
        rates = max_min_allocation(caps, capacity)
        if sum(caps) >= capacity and caps:
            assert sum(rates) == pytest.approx(capacity, rel=1e-9)
        else:
            for rate, cap in zip(rates, caps):
                assert rate == pytest.approx(cap, rel=1e-12, abs=1e-12)

    @given(
        cap=st.floats(min_value=0.1, max_value=1e8, allow_nan=False),
        count=st.integers(min_value=1, max_value=1000),
        capacity=capacities,
    )
    @settings(max_examples=80, deadline=None)
    def test_group_form_matches_flat_allocation(self, cap, count, capacity):
        per_session = group_allocation(((cap, count),), capacity)[0]
        flat = max_min_allocation([cap] * count, capacity)
        # The grouped form hands every member the first member's share in
        # one step; the flat form recomputes shares from a decremented
        # remainder, so later members can drift by an ulp — the grouped
        # rate is pinned to the flat head and the totals agree.
        assert per_session == flat[0]
        assert sum(flat) == pytest.approx(per_session * count, rel=1e-9)

    def test_single_group_is_min_of_cap_and_fair_share(self):
        # The engine inlines this identity; pin it against the allocator.
        link = SharedLink(capacity_bps=mbps(400.0))
        for active in (1, 3, 64, 1000):
            expected = min(mbps(10.0), mbps(400.0) / active)
            assert link.per_session_rate(mbps(10.0), active) == expected

    def test_quantize_up_lands_on_tick_lattice(self):
        link = SharedLink(capacity_bps=1.0, tick_s=0.01)
        assert link.quantize_up(0.0) == 0.0
        assert link.quantize_up(0.010000000000000002) == pytest.approx(0.01)
        assert link.quantize_up(0.0101) == pytest.approx(0.02)
        assert link.quantize_up(1.234) == pytest.approx(1.24, abs=1e-12)

    @given(
        tick=st.sampled_from([0.01, 0.001, 0.05, 0.1, 0.3]),
        ticks=st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=30),
        others=st.lists(st.floats(min_value=0.0, max_value=1e5), max_size=30),
    )
    @example(tick=0.01, ticks=[0, 1, 3, 7, 100, 12345], others=[0.0, 1e-12, 0.010000000000000002, 0.0101])
    @settings(max_examples=80, deadline=None)
    def test_array_quantization_matches_scalar_bit_for_bit(self, tick, ticks, others):
        link = SharedLink(capacity_bps=1.0, tick_s=tick)
        values = list(others)
        for count in ticks:
            boundary = count * tick
            # On the boundary, one ulp either side, and either side of
            # the TAG_EPSILON fuzz that keeps float noise off the next tick.
            values += [boundary, math.nextafter(boundary, math.inf), math.nextafter(boundary, -math.inf)]
            values += [boundary + tick * TAG_EPSILON * 0.5, boundary + tick * TAG_EPSILON * 2.0]
            values += [(count + 0.5) * tick]
        values = [value for value in values if value >= 0.0]
        expected = [link.quantize_up(value) for value in values]
        assert _bits(link.quantize_up_array(np.array(values))) == _bits(expected)


class TestArrivals:
    def test_poisson_schedule_is_sorted_and_deterministic(self):
        first = poisson_times(500, 10.0, make_rng(7, "arrivals"))
        second = poisson_times(500, 10.0, make_rng(7, "arrivals"))
        assert np.array_equal(first, second)
        assert first.tolist() == sorted(first.tolist())
        assert len(first) == 500

    def test_diurnal_schedule_is_sorted_and_deterministic(self):
        first = diurnal_times(500, 10.0, make_rng(7, "arrivals"), period=60.0)
        second = diurnal_times(500, 10.0, make_rng(7, "arrivals"), period=60.0)
        assert np.array_equal(first, second)
        assert first.tolist() == sorted(first.tolist())
        assert len(first) == 500

    @pytest.mark.parametrize("kind", ["poisson", "diurnal"])
    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_schedules_are_float64_arrays(self, kind, count):
        times = arrival_times(kind, count, 30.0, make_rng(7, "dtype"))
        assert isinstance(times, np.ndarray) and times.dtype == np.float64
        assert times.shape == (count,)

    @given(
        seed=seeds,
        warmup=st.integers(min_value=0, max_value=700),
        count=st.integers(min_value=0, max_value=3000),
        rate=st.floats(min_value=1e-3, max_value=1e6),
    )
    @example(seed=7, warmup=0, count=0, rate=10.0)
    @example(seed=7, warmup=0, count=1, rate=10.0)
    @settings(max_examples=60, deadline=None)
    def test_poisson_times_match_the_per_draw_loop(self, seed, warmup, count, rate):
        expected_rng = _used_rng(seed, warmup)
        actual_rng = _copy_rng(expected_rng)
        times = poisson_times(count, rate, actual_rng)
        assert isinstance(times, np.ndarray) and times.dtype == np.float64
        assert _bits(times) == _bits(_poisson_times_loop(count, rate, expected_rng))
        assert actual_rng.getstate() == expected_rng.getstate()

    def test_dispatcher_validates_kind(self):
        with pytest.raises(ValueError):
            arrival_times("bursty", 10, 60.0, make_rng(7))

    def test_mean_rate_tracks_population_over_window(self):
        times = arrival_times("poisson", 5000, 50.0, make_rng(7, "rate"))
        # 5000 arrivals at rate 100/s should span roughly the 50 s window.
        assert times[-1] == pytest.approx(50.0, rel=0.2)


class TestBulkDraws:
    @given(
        seed=seeds,
        warmup=st.integers(min_value=0, max_value=700),
        count=st.integers(min_value=0, max_value=3000),
        lambd=st.floats(min_value=1e-6, max_value=1e6),
    )
    @example(seed=0, warmup=0, count=0, lambd=1.0)
    @example(seed=0, warmup=0, count=1, lambd=1.0)
    @example(seed=DEFAULT_SEED, warmup=623, count=1, lambd=1e-5)
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_per_draw_loops(self, seed, warmup, count, lambd):
        expected_rng = _used_rng(seed, warmup)
        actual_rng = _copy_rng(expected_rng)
        uniforms = random_block(actual_rng, count)
        assert _bits(uniforms) == _bits(expected_rng.random() for _ in range(count))
        assert actual_rng.getstate() == expected_rng.getstate()
        gaps = expovariate_block(actual_rng, count, lambd)
        assert _bits(gaps) == _bits(expected_rng.expovariate(lambd) for _ in range(count))
        assert actual_rng.getstate() == expected_rng.getstate()
        # The cached gauss value survives: both continue identically.
        assert actual_rng.gauss(0.0, 1.0) == expected_rng.gauss(0.0, 1.0)
        assert actual_rng.random() == expected_rng.random()


class TestSlowStartTable:
    @staticmethod
    def _boundary_sizes():
        # Where the size bound steps: C0 * (2**k - 1), and a byte either side.
        sizes = [-5, 0, 1, 2]
        for k in range(0, 24):
            edge = INITIAL_CWND_BYTES * (2**k - 1)
            sizes += [edge - 1, edge, edge + 1]
        return sorted(set(sizes))

    @given(
        rtt=st.floats(min_value=0.0001, max_value=2.0),
        rate_mbps=st.floats(min_value=0.05, max_value=1000.0),
        extra=st.lists(st.integers(min_value=1, max_value=50_000_000), max_size=20),
    )
    # Two bandwidth-delay products below the initial window (no round
    # pays), then the largest one in range.
    @example(rtt=0.001, rate_mbps=1.0, extra=[])
    @example(rtt=0.01, rate_mbps=10.0, extra=[])
    @example(rtt=2.0, rate_mbps=1000.0, extra=[50_000_000])
    @settings(max_examples=150, deadline=None)
    def test_tabled_penalty_matches_closed_form(self, rtt, rate_mbps, extra):
        rate = mbps(rate_mbps)
        sizes = self._boundary_sizes() + extra
        tabled = slow_start_penalties(np.array(sizes, dtype=np.int64), rate, rtt)
        assert _bits(tabled) == _bits(slow_start_penalty(size, rate, rtt) for size in sizes)

    def test_bdp_below_initial_window_pays_nothing(self):
        rate, rtt = mbps(1.0), 0.01
        assert rate * rtt / 8.0 < INITIAL_CWND_BYTES
        sizes = np.array(self._boundary_sizes(), dtype=np.int64)
        assert slow_start_penalties(sizes, rate, rtt).tolist() == [0.0] * len(sizes)
        assert slow_start_penalties(sizes, mbps(10.0), 0.0).tolist() == [0.0] * len(sizes)


class TestTailReductions:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=200,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_summary_bit_identical_under_shuffle(self, values, seed):
        shuffled = list(values)
        random.Random(seed).shuffle(shuffled)
        assert TailSummary.from_values(shuffled) == TailSummary.from_values(values)
        assert jain_index(shuffled) == jain_index(values)

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=400,
        )
    )
    @example(values=[0.1] * 300 + [1e12, 3.0])
    @settings(max_examples=100, deadline=None)
    def test_reductions_match_the_sequential_loops(self, values):
        # The oracle: sort, then add left to right from 0.0.
        ordered = sorted(values)
        linear = squared = 0.0
        for value in ordered:
            linear += value
            squared += value * value
        summary = TailSummary.from_values(values)
        assert _bits([summary.mean]) == _bits([linear / len(ordered)])
        for fraction, computed in ((0.5, summary.p50), (0.99, summary.p99), (0.999, summary.p999)):
            assert _bits([computed]) == _bits([quantile(ordered, fraction)])
        assert (summary.minimum, summary.maximum, summary.count) == (ordered[0], ordered[-1], len(ordered))
        jain = 1.0 if squared == 0.0 else (linear * linear) / (len(ordered) * squared)
        assert _bits([jain_index(values)]) == _bits([jain])
        assert all(type(value) is float for value in dataclasses.astuple(summary)[:-1])

    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_jain_bounds(self, values):
        index = jain_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9

    def test_jain_extremes(self):
        assert jain_index([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_quantiles_match_metric_aggregate_convention(self):
        from repro.core.metrics import MetricAggregate

        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        summary = TailSummary.from_values(values)
        aggregate = MetricAggregate.from_values(values)
        assert summary.p50 == aggregate.median
        assert summary.mean == pytest.approx(aggregate.mean)
        assert summary.minimum == aggregate.minimum and summary.maximum == aggregate.maximum


class TestAdmissionWalk:
    @given(cell=walk_cells())
    @example(cell=([0.01] * 50, [100_000] * 50, 4, mbps(10.0), mbps(400.0), 0.01))
    @example(cell=([0.0, 0.0, 0.01, 0.01, 0.01], [1, 1, 1, 1, 1], 2, mbps(400.0), mbps(400.0), 0.01))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_session_oracle(self, cell):
        assert _walk_bits(_admission_walk(*cell)) == _walk_bits(_admission_walk_oracle(*cell))

    def test_fifo_admission_and_peaks(self):
        # Four sessions at one instant, two slots, each session at its own
        # 8 Mb/s (1 MB/s) cap: 0 and 1 go straight in, 2 and 3 wait, and
        # the slot 0 frees at +0.1 s goes to 2 before 3 — though 3 is
        # smaller — and 3 takes the slot 2 frees at +0.2 s.
        link = SharedLink(capacity_bps=mbps(400.0))
        start = link.quantize_up(0.05)
        sizes = [100_000, 300_000, 100_000, 50_000]
        admit_at, fluid_end, peak_active, peak_queue = _admission_walk(
            [start] * 4, sizes, 2, mbps(8.0), mbps(400.0), link.tick_s
        )
        assert (peak_active, peak_queue) == (2, 2)
        assert admit_at[:2] == [start, start]
        assert admit_at[2] == pytest.approx(start + 0.1)
        assert admit_at[3] == pytest.approx(start + 0.2)
        assert fluid_end == pytest.approx([start + 0.1, start + 0.3, start + 0.2, start + 0.25])

    def test_same_instant_burst_fills_the_edge_then_queues_fifo(self):
        # Fifty arrivals on one tick, four slots: the batch stops at the
        # fourth; the rest are admitted in arrival order as slots free,
        # never more than four in service.  Sizes shrink with arrival
        # order, so any non-FIFO discipline would reorder admissions.
        tick = 0.01
        start = SharedLink(capacity_bps=1.0, tick_s=tick).quantize_up(0.05)
        arrivals = [start] * 50
        sizes = [100_000 - 1_000 * index for index in range(50)]
        walk = _admission_walk(arrivals, sizes, 4, mbps(10.0), mbps(400.0), tick)
        admit_at, fluid_end, peak_active, peak_queue = walk
        assert admit_at[:4] == [start] * 4
        assert all(admitted > start for admitted in admit_at[4:])
        assert admit_at[4:] == sorted(admit_at[4:])
        assert (peak_active, peak_queue) == (4, 46)
        for instant in admit_at:
            in_service = sum(1 for admitted, end in zip(admit_at, fluid_end) if admitted <= instant < end)
            assert in_service <= 4
        assert _walk_bits(walk) == _walk_bits(_admission_walk_oracle(arrivals, sizes, 4, mbps(10.0), mbps(400.0), tick))

    @pytest.mark.parametrize("tick", [0.01, 0.001, 0.05, 0.1, 0.3])
    def test_inlined_quantization_matches_quantize_up(self, tick):
        # Session 1 waits behind session 0, which runs alone at exactly
        # 1000 B/s: it is admitted at the walk's quantization of session
        # 0's finish, which must be quantize_up's boundary bit for bit.
        link = SharedLink(capacity_bps=1e9, tick_s=tick)
        rate = 1000.0
        for ticks in (1, 2, 3, 7, 100, 12345, 10**6):
            boundary = ticks * tick
            finishes = [boundary, math.nextafter(boundary, math.inf), math.nextafter(boundary, -math.inf)]
            finishes += [boundary + tick * TAG_EPSILON * 0.5, boundary - tick * TAG_EPSILON * 0.5]
            finishes += [boundary + tick * TAG_EPSILON * 2.0, (ticks + 0.5) * tick]
            for finish in finishes:
                size = finish * rate
                admit_at, _, _, _ = _admission_walk([0.0, 0.0], [size, 1], 1, 8.0 * rate, 1e9, tick)
                assert _bits([admit_at[1]]) == _bits([link.quantize_up(size / rate)])


class TestPopulationEngine:
    LANE = AccessLane(cap_bps=mbps(10.0), rtt=0.030, server_processing=0.015)

    def test_uncontended_session_matches_closed_form(self):
        # One session on an idle 400 Mb/s link: the fluid phase is pure
        # serialization at its own cap, no queueing.
        params = LoadParameters(population=1, window_s=1.0, link_capacity_bps=mbps(400.0))
        result = simulate_population(params, self.LANE, make_rng(7, "solo"))
        assert result.queue_waits.tolist() == [0.0]
        from repro.netsim.tcp import slow_start_penalty

        size = result.total_bytes
        latency = 3.0 * 0.030 + 0.015 + slow_start_penalty(size, mbps(10.0), 0.030)
        solo = latency + size * 8.0 / mbps(10.0)
        # Completion matches the closed form up to one tick of quantization.
        assert result.completions[0] == pytest.approx(solo, abs=2 * 0.01)

    def test_edge_concurrency_one_serializes(self):
        params = LoadParameters(
            population=20, window_s=0.1, edge_concurrency=1, link_capacity_bps=mbps(400.0)
        )
        result = simulate_population(params, self.LANE, make_rng(7, "serial"))
        assert result.peak_active == 1
        # Everyone after the first waits: with all 20 offered in 100 ms,
        # at least 18 sessions must see a positive queue wait.
        assert sum(1 for wait in result.queue_waits if wait > 0.0) >= 18

    def test_engine_is_deterministic(self):
        params = LoadParameters(population=2000)
        first = simulate_population(params, self.LANE, make_rng(11, "det"))
        second = simulate_population(params, self.LANE, make_rng(11, "det"))
        assert _result_document(first) == _result_document(second)

    @pytest.mark.parametrize("arrival", ["poisson", "diurnal"])
    def test_session_columns_are_float64_arrays(self, arrival):
        params = LoadParameters(population=300, arrival=arrival)
        result = simulate_population(params, self.LANE, make_rng(7, "columns"))
        for column in (result.arrivals, result.queue_waits, result.completions, result.goodputs_bps):
            assert isinstance(column, np.ndarray) and column.dtype == np.float64
            assert column.shape == (300,)

    def test_saturation_bounds(self):
        # 50k sessions * ~100 kB over 10 s >> 400 Mb/s: the link saturates
        # and utilization approaches (but never exceeds) 1.
        params = LoadParameters(population=50_000, window_s=10.0)
        result = simulate_population(params, self.LANE, make_rng(7, "sat"))
        utilization = result.total_bytes * 8.0 / (result.makespan_s * mbps(400.0))
        assert 0.5 < utilization <= 1.0 + 1e-9
        assert result.peak_active == 64
        summary_waits = TailSummary.from_values(result.queue_waits)
        assert summary_waits.p99 > 1.0

    def test_diurnal_cell_runs(self):
        params = LoadParameters(population=2000, arrival="diurnal")
        result = simulate_population(params, self.LANE, make_rng(7, "diurnal"))
        assert result.sessions == 2000

    def test_rejects_unknown_arrival(self):
        with pytest.raises(ValueError):
            LoadParameters(population=10, arrival="bursty")

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("window_s", 0.0),
            ("window_s", -60.0),
            ("edge_concurrency", 0),
            ("edge_concurrency", -1),
            ("link_capacity_bps", 0.0),
            ("link_capacity_bps", -mbps(400.0)),
            ("link_capacity_bps", math.nan),
            ("transfer_bytes", 0),
            ("transfer_bytes", -100_000),
            ("tick_s", 0.0),
            ("tick_s", -0.01),
        ],
    )
    def test_rejects_non_positive_knobs_at_construction(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            LoadParameters(population=10, **{knob: value})

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("population", 2.5),
            ("population", True),
            ("population", 0),
            ("edge_concurrency", 2.5),
            ("edge_concurrency", 64.0),
            ("edge_concurrency", True),
            ("window_s", math.inf),
            ("window_s", math.nan),
            ("link_capacity_bps", math.inf),
            ("transfer_bytes", math.inf),
            ("transfer_bytes", math.nan),
            ("tick_s", math.inf),
            ("tick_s", math.nan),
        ],
    )
    def test_rejects_non_finite_knobs_and_fractional_counts(self, knob, value):
        knobs = {"population": 10, knob: value}
        with pytest.raises(ValueError, match=knob):
            LoadParameters(**knobs)

    def test_accepts_integer_like_counts(self):
        params = LoadParameters(population=np.int64(10), edge_concurrency=np.int32(4))
        result = simulate_population(params, self.LANE, make_rng(7, "numpy-counts"))
        assert result.sessions == 10 and result.peak_active <= 4

    def test_run_load_cell_is_pure(self):
        params = LoadParameters(population=3000)
        first = run_load_cell("dropbox", params, seed=7, scenario=BASELINE)
        second = run_load_cell("dropbox", params, seed=7, scenario=BASELINE)
        assert first == second
        assert first.row()["population"] == "3k"
        assert first != run_load_cell("dropbox", params, seed=8, scenario=BASELINE)
        assert first != run_load_cell("googledrive", params, seed=7, scenario=BASELINE)


#: Cells whose outcome is pinned: (service, params, lane, rng labels).  A
#: ``None`` lane is the service's baseline lane at seed 7.
PINNED_CELLS = {
    "dropbox-20k-poisson": (
        "dropbox", LoadParameters(population=20_000), None, (7, "load", "dropbox", 20_000),
    ),
    "googledrive-10k-diurnal": (
        "googledrive", LoadParameters(population=10_000, arrival="diurnal"), None, (7, "load", "googledrive", 10_000),
    ),
    # bench_load's saturated cell (repro.perf.benchmarks).
    "bench-saturated": (
        "bench",
        LoadParameters(
            population=20_000, window_s=20.0, edge_concurrency=64,
            link_capacity_bps=mbps(400.0), transfer_bytes=100_000,
        ),
        TestPopulationEngine.LANE,
        (DEFAULT_SEED, "bench", "load"),
    ),
    "edge-serial": (
        "bench",
        LoadParameters(population=500, window_s=5.0, edge_concurrency=1),
        TestPopulationEngine.LANE,
        (7, "serial"),
    ),
}

#: SHA-256 of the canonical JSON of each pinned cell's LoadResult, its
#: reduced row and the rng's next 64 bits, as the per-session loops
#: computed them.  Any change shifts every load result.
PINNED_DIGESTS = {
    "dropbox-20k-poisson": "7bb27c09df7592d92976f5ccd65132a587e59864ef37bc0d36eda366b72a43ff",
    "googledrive-10k-diurnal": "22a289ed324ead1f84e34d51bc551873a3778b978826716824d2aee04035110b",
    "bench-saturated": "461f308ff528101194f84ccb4200ccccd674e636875002741b81402b5bfd9c84",
    "edge-serial": "fcc2f54bbcb951476725cbae1513edadaee74a6dacc7f063c49bba280e91461f",
}


@pytest.mark.parametrize("name", sorted(PINNED_CELLS))
def test_population_outcome_is_pinned(name):
    service, params, lane, labels = PINNED_CELLS[name]
    lane = lane if lane is not None else lane_for(service, BASELINE, 7)
    rng = make_rng(*labels)
    result = simulate_population(params, lane, rng)
    document = {
        "result": _result_document(result),
        "row": reduce_load(service, params, result).row(),
        "rng_after": rng.getrandbits(64),
    }
    assert hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest() == PINNED_DIGESTS[name]


class TestPopulationGrammar:
    def test_parse_population(self):
        assert parse_population("1k") == 1000
        assert parse_population("10K") == 10_000
        assert parse_population("1M") == 1_000_000
        assert parse_population("500") == 500
        assert parse_population(2500) == 2500
        for bad in ("", "k", "1.5k", "-3", "0", True):
            with pytest.raises(ConfigurationError):
                parse_population(bad)

    def test_parse_populations_sorts_and_dedupes(self):
        assert parse_populations("1M,10k,1k,10k") == [1000, 10_000, 1_000_000]
        with pytest.raises(ConfigurationError):
            parse_populations(",,")

    def test_format_population_round_trips(self):
        for value in (1, 500, 1000, 2500, 10_000, 100_000, 1_000_000, 3_000_000):
            assert parse_population(format_population(value)) == value
        assert format_population(1_000_000) == "1M"
        assert format_population(100_000) == "100k"

    def test_unit_sort_key_orders_populations_numerically(self):
        labels = ["1M", "100k", "10k", "1k"]
        assert sorted(labels, key=unit_sort_key) == ["1k", "10k", "100k", "1M"]
        # Lexical sorting would interleave: exactly the bug this guards.
        assert sorted(labels) != sorted(labels, key=unit_sort_key)

    def test_unit_sort_key_orders_repetition_units(self):
        labels = ["upload#r10", "upload#r2", "upload#r0", "download#r1"]
        assert sorted(labels, key=unit_sort_key) == [
            "download#r1",
            "upload#r0",
            "upload#r2",
            "upload#r10",
        ]


class TestLoadStage:
    CONFIG = CampaignConfig(load_populations=(1000, 200), load_window=10.0)

    def test_plan_units_sort_numerically_ascending(self):
        runner = CampaignRunner(
            ["dropbox"], ["load"], seed=7,
            config=CampaignConfig(load_populations=(1_000_000, 100_000, 1000, 10_000)),
        )
        assert [cell.unit for cell in runner.cells()] == ["1k", "10k", "100k", "1M"]

    def test_stage_rows_report_tails_and_fairness(self):
        runner = CampaignRunner(["dropbox", "googledrive"], ["load"], seed=7, jobs=1, config=self.CONFIG)
        campaign = runner.run().campaigns[0]
        rows = campaign.suite.rows("load")
        assert [(row["service"], row["population"]) for row in rows] == [
            ("dropbox", "200"),
            ("dropbox", "1k"),
            ("googledrive", "200"),
            ("googledrive", "1k"),
        ]
        for row in rows:
            for column in ("completion_p99_s", "completion_p999_s", "queue_p99_s", "jain"):
                assert column in row
            assert 0.0 < row["jain"] <= 1.0

    @pytest.mark.parametrize("field", dataclasses.fields(CampaignConfig), ids=lambda field: field.name)
    def test_cache_key_covers_every_config_field(self, field):
        # Changing any one CampaignConfig field changes the key, so a new
        # field can never alias the store entries of existing campaigns.
        # The cases come from the dataclass itself: a new field is covered
        # without a test edit, or fails here for want of a variant rule.
        config = CampaignConfig()
        base = CampaignCell(stage="load", service="dropbox", seed=7, unit="1k", config=config)
        value = getattr(config, field.name)
        if isinstance(value, bool):
            variant = not value
        elif isinstance(value, int):
            variant = value + 1
        elif isinstance(value, float):
            variant = value * 2
        elif isinstance(value, tuple):
            variant = value + value[-1:]
        elif isinstance(value, str):
            variant = value + "-variant"
        elif isinstance(value, ScenarioSpec):
            variant = get_scenario("lossy-dsl")
        else:
            pytest.fail(f"CampaignConfig.{field.name}: no variant rule for {type(value).__name__}")
        cell = dataclasses.replace(base, config=dataclasses.replace(config, **{field.name: variant}))
        assert cache_key(cell) != cache_key(base), field.name

    def test_store_round_trip_and_listing_order(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        config = CampaignConfig(load_populations=(1000, 10_000, 100_000), load_window=5.0)
        for unit in ("1k", "10k", "100k"):
            store.save(
                run_cell(CampaignCell(stage="load", service="dropbox", seed=7, unit=unit, config=config))
            )
        listed = [row["unit"] for row in store_listing_rows(store)]
        assert listed == ["1k", "10k", "100k"]
        cell = CampaignCell(stage="load", service="dropbox", seed=7, unit="10k", config=config)
        hit = store.load(cell)
        assert hit is not None and hit.cached
        assert hit.records == run_cell(cell).records

    def test_sweep_aggregates_include_ci95(self):
        runner = CampaignRunner(["dropbox"], ["load"], seeds=[7, 8], jobs=1, config=self.CONFIG)
        sweep = runner.run()
        rows = sweep.aggregate_rows()["load"]
        assert rows, "load stage must aggregate across seeds"
        for row in rows:
            assert "ci95" in row and row["n"] == 2
        document = sweep.document()
        assert document["schema"] == 3


class TestRepetitionCells:
    def test_rep_cells_plan_and_merged_rows_identical(self):
        coarse = CampaignRunner(
            ["dropbox"], ["performance"], seed=7, jobs=1, config=CampaignConfig(repetitions=2)
        ).run().campaigns[0]
        fine = CampaignRunner(
            ["dropbox"], ["performance"], seed=7, jobs=1,
            config=CampaignConfig(repetitions=2, rep_cells=True),
        ).run().campaigns[0]
        assert len(fine.cells) == 2 * len(coarse.cells)
        assert {cell.cell.unit.rpartition("#r")[2] for cell in fine.cells} == {"0", "1"}
        assert fine.suite.records["performance"] == coarse.suite.records["performance"]
        assert fine.suite.rows("performance") == coarse.suite.rows("performance")


class TestLoadCLI:
    ARGS = ["--stages", "load", "--populations", "500,10k", "--seeds", "7,8"]

    def test_json_byte_identical_across_jobs(self, tmp_path, capsys):
        first, second = tmp_path / "j1.json", tmp_path / "j2.json"
        base = ["--services", "dropbox", "all", *self.ARGS]
        assert main(base + ["--jobs", "1", "--json", str(first)]) == 0
        assert main(base + ["--jobs", "2", "--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        rows = payload["per_seed"][0]["cells"][-1]["rows"]
        assert {row["population"] for row in rows} == {"10k"}

    def test_sharded_merge_byte_identical(self, tmp_path, capsys):
        sequential = tmp_path / "seq.json"
        base = ["--services", "dropbox"]
        assert main(base + ["all", *self.ARGS, "--jobs", "1", "--json", str(sequential)]) == 0
        store = str(tmp_path / "store")
        for runner_id in ("w1", "w2"):
            assert main(base + ["shard", *self.ARGS, "--store", store, "--jobs", "1", "--runner-id", runner_id]) == 0
        merged = tmp_path / "merged.json"
        assert main(base + ["merge", *self.ARGS, "--store", store, "--json", str(merged)]) == 0
        capsys.readouterr()
        assert merged.read_bytes() == sequential.read_bytes()

    def test_rejects_bad_populations(self):
        with pytest.raises(SystemExit):
            main(["--services", "dropbox", "all", "--stages", "load", "--populations", "zero"])

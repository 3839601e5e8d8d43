"""Benchmark definitions: deterministic workloads over the engine's hot paths.

Micro-benchmarks exercise exactly the paths the columnar rework targets —
batched packet emission into the sniffer, trace query filters, memoized
TCP transfer math, short TLS connection cycles, the event queue's
schedule/cancel/poll pattern — plus
the open-population engine, dictionary text and random binary generation
and the zlib compressor, and one macro-benchmark runs the default campaign
grid end to end.

Every workload is a pure function of its parameters (fixed endpoints,
fixed sizes, fixed seed), so two runs measure the *same* computation and
any rate difference is the machine or the code, never the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.campaign import CampaignConfig, CampaignRunner
from repro.netsim.endpoint import Endpoint
from repro.netsim.link import NetworkPath
from repro.netsim.packet import PacketDirection
from repro.netsim.scenario import BASELINE, ScenarioSpec
from repro.capture.sniffer import Sniffer
from repro.perf.timer import measure_rate, measure_seconds
from repro.randomness import DEFAULT_SEED
from repro.services.registry import SERVICE_NAMES
from repro.units import mbps, minutes

__all__ = ["BenchmarkResult", "run_benchmarks"]

#: Fixed far end of every micro-benchmark connection.
_SERVER = Endpoint(hostname="bench.storage.example.com", ip="192.0.2.10", port=443)
#: Fixed path: 20 ms RTT, 50/100 Mbit/s — the paper's campus-like network.
_PATH = NetworkPath(rtt=0.020, uplink_bps=mbps(50), downlink_bps=mbps(100))
#: Data records per burst in the emission and trace benchmarks (one
#: ``_emit_data`` call; the batched path turns it into column extends).
_RECORDS_PER_BURST = 1000
#: Request body posted per connection cycle: one 10 kB chunk, the Fig. 6
#: 100 x 10 kB batch's file size.
_CYCLE_CHUNK_BYTES = 10_000


@dataclass(frozen=True)
class BenchmarkResult:
    """One measured metric, ready for the benchmark document."""

    name: str
    unit: str
    higher_is_better: bool
    #: Workload parameters; comparison only matches metrics whose params
    #: are identical, so a quick run never gates against a full baseline.
    params: Dict[str, object]
    #: Reported value (best across repeats).
    value: float
    #: Per-repeat values, in execution order.
    samples: Tuple[float, ...]


def _bench_connection():
    """A fresh simulator + sniffer + established connection triple."""
    from repro.netsim.simulator import NetworkSimulator

    simulator = NetworkSimulator()
    sniffer = Sniffer(simulator)
    connection = simulator.open_connection(_SERVER, _PATH)
    return simulator, sniffer, connection


def _emit_burst(connection, start: float, end: float) -> None:
    """One ``_RECORDS_PER_BURST``-record data burst, delivered through ``emit_batch`` to the sniffer.

    ``_emit_data`` only queues rows for the running operation; the flush
    delivers them as that operation's batch would leave.
    """
    connection._emit_data(start, end, _RECORDS_PER_BURST * 1460, PacketDirection.OUT, note="bench")
    connection._flush()


def _burst_workload(bursts: int, elide: bool):
    """``make_workload`` for :func:`measure_rate`: ``bursts`` bursts on a fresh connection.

    ``elide`` sets flow elision for the timed bursts only, whatever the
    process-wide setting.
    """
    from repro.netsim.tcp import set_flow_elision

    def make_workload():
        _, _, connection = _bench_connection()

        def workload() -> None:
            previous = set_flow_elision(elide)
            try:
                for _ in range(bursts):
                    _emit_burst(connection, 0.0, 1.0)
            finally:
                set_flow_elision(previous)

        return workload

    return make_workload


def bench_sniffer(packets: int, repeats: int) -> BenchmarkResult:
    """Packets/second through packet-level emission and capture.

    Flow elision is off, so each burst reaches the sniffer as
    ``_RECORDS_PER_BURST`` plain rows in one batch.
    :func:`bench_flow_segments` times the elided path.
    """
    bursts = max(1, packets // _RECORDS_PER_BURST)
    total = bursts * _RECORDS_PER_BURST
    measured = measure_rate(_burst_workload(bursts, elide=False), total, repeats)
    return BenchmarkResult(
        name="sniffer_packets_per_s",
        unit="packets/s",
        higher_is_better=True,
        params={"packets": total, "records_per_burst": _RECORDS_PER_BURST, "flow_elision": False},
        value=round(measured.best, 3),
        samples=tuple(round(sample, 3) for sample in measured.samples),
    )


def bench_flow_segments(segments: int, repeats: int) -> BenchmarkResult:
    """Flow segments/second through elided emission and capture.

    Each burst is large enough to take the flow-elision fast path, so it
    emits a handful of head/tail packet rows plus exactly one
    :class:`~repro.netsim.packet.FlowSegment`; the rate counts the segments
    (i.e. the elided bursts) the sniffer absorbs per second.
    """
    measured = measure_rate(_burst_workload(segments, elide=True), segments, repeats)
    return BenchmarkResult(
        name="flow_segments_per_s",
        unit="segments/s",
        higher_is_better=True,
        params={"segments": segments, "records_per_segment": _RECORDS_PER_BURST},
        value=round(measured.best, 3),
        samples=tuple(round(sample, 3) for sample in measured.samples),
    )


def bench_trace_queries(packets: int, rounds: int, repeats: int) -> BenchmarkResult:
    """Filter queries/second against a captured trace (bisect + index maps)."""
    bursts = max(1, packets // _RECORDS_PER_BURST)

    def make_workload():
        _, sniffer, connection = _bench_connection()
        for index in range(bursts):
            _emit_burst(connection, float(index), float(index) + 0.5)
        trace = sniffer.trace

        def workload() -> None:
            for _ in range(rounds):
                trace.between(5.0, 25.0)
                trace.after(10.0)
                trace.for_connection(1)
                trace.to_hosts([_SERVER.hostname])

        return workload

    measured = measure_rate(make_workload, 4 * rounds, repeats)
    return BenchmarkResult(
        name="trace_queries_per_s",
        unit="queries/s",
        higher_is_better=True,
        params={"packets": bursts * _RECORDS_PER_BURST, "rounds": rounds, "queries_per_round": 4},
        value=round(measured.best, 3),
        samples=tuple(round(sample, 3) for sample in measured.samples),
    )


def bench_transfers(transfers: int, repeats: int) -> BenchmarkResult:
    """Uploads/second through ``TCPConnection.send`` (memoized transfer math)."""

    def make_workload():
        _, _, connection = _bench_connection()

        def workload() -> None:
            for _ in range(transfers):
                connection.send(100_000, upstream=True)

        return workload

    measured = measure_rate(make_workload, transfers, repeats)
    return BenchmarkResult(
        name="tcp_transfers_per_s",
        unit="transfers/s",
        higher_is_better=True,
        params={"transfers": transfers, "bytes_per_transfer": 100_000},
        value=round(measured.best, 3),
        samples=tuple(round(sample, 3) for sample in measured.samples),
    )


def bench_connection_cycles(cycles: int, repeats: int) -> BenchmarkResult:
    """Cycles/second: open a TLS connection, post one 10 kB chunk, close it.

    Cloud Drive's per-file pattern.  A cycle is three small batches — the
    TCP and TLS handshakes, the request and its response, the teardown —
    the small-burst regime the 1000-record sniffer benchmark never reaches.
    """
    from repro.netsim.http import HTTPChannel
    from repro.netsim.simulator import NetworkSimulator
    from repro.netsim.tls import TLSParameters

    tls = TLSParameters()

    def make_workload():
        simulator = NetworkSimulator()
        Sniffer(simulator)

        def workload() -> None:
            for _ in range(cycles):
                channel = HTTPChannel(simulator.open_connection(_SERVER, _PATH, tls=tls))
                channel.post(_CYCLE_CHUNK_BYTES, note="chunk-put")
                channel.close()

        return workload

    measured = measure_rate(make_workload, cycles, repeats)
    return BenchmarkResult(
        name="connection_cycles_per_s",
        unit="cycles/s",
        higher_is_better=True,
        params={"cycles": cycles, "chunk_bytes": _CYCLE_CHUNK_BYTES, "tls_handshake_rtts": tls.handshake_rtts},
        value=round(measured.best, 3),
        samples=tuple(round(sample, 3) for sample in measured.samples),
    )


def bench_events(events: int, repeats: int) -> BenchmarkResult:
    """Events/second through schedule, 80% cancel, length polls and a drain.

    This is the polling-simulation pattern the O(1) live counter and heap
    compaction exist for.
    """

    def make_workload():
        from repro.netsim.simulator import NetworkSimulator

        simulator = NetworkSimulator()

        def workload() -> None:
            scheduled = [
                simulator.schedule_in(float(index % 977) + 1.0, _noop) for index in range(events)
            ]
            for index, event in enumerate(scheduled):
                if index % 5 != 0:
                    event.cancel()
            for _ in range(100):
                len(simulator.events)
            simulator.run_for(2000.0)

        return workload

    measured = measure_rate(make_workload, events, repeats)
    return BenchmarkResult(
        name="event_queue_events_per_s",
        unit="events/s",
        higher_is_better=True,
        params={"events": events, "cancelled_per_5": 4, "length_polls": 100},
        value=round(measured.best, 3),
        samples=tuple(round(sample, 3) for sample in measured.samples),
    )


def _noop() -> None:
    return None


def bench_load(sessions: int, repeats: int) -> BenchmarkResult:
    """Sessions/second through the open-population fluid engine.

    A deliberately *saturated* cell (offered load well above the shared
    link) so the benchmark exercises the engine's expensive regime —
    queue churn at the edge plus completion/arrival boundary hopping —
    rather than the trivial uncontended path.
    """
    from repro.load import AccessLane, LoadParameters, simulate_population
    from repro.randomness import make_rng

    params = LoadParameters(
        population=sessions,
        window_s=20.0,
        edge_concurrency=64,
        link_capacity_bps=mbps(400.0),
        transfer_bytes=100_000,
    )
    lane = AccessLane(cap_bps=mbps(10.0), rtt=0.030, server_processing=0.015)

    def make_workload():
        def workload() -> None:
            simulate_population(params, lane, make_rng(DEFAULT_SEED, "bench", "load"))

        return workload

    measured = measure_rate(make_workload, sessions, repeats)
    return BenchmarkResult(
        name="load_sessions_per_s",
        unit="sessions/s",
        higher_is_better=True,
        params={
            "sessions": sessions,
            "window_s": 20.0,
            "edge_concurrency": 64,
            "link_capacity_mbps": 400,
            "transfer_bytes": 100_000,
        },
        value=round(measured.best, 3),
        samples=tuple(round(sample, 3) for sample in measured.samples),
    )


def bench_filegen_text(repeats: int) -> BenchmarkResult:
    """Bytes/second of dictionary text, over the file sizes of one Fig. 5 text cell.

    Times the bulk paragraph decoder behind every text and fake-JPEG
    file, which is most of the compression stage's file generation.
    """
    from repro.core.workloads import COMPRESSION_SIZES
    from repro.filegen.text import generate_text

    sizes = tuple(COMPRESSION_SIZES)

    def make_workload():
        def workload() -> None:
            for size in sizes:
                generate_text(size, seed=DEFAULT_SEED)

        return workload

    measured = measure_rate(make_workload, sum(sizes), repeats)
    return BenchmarkResult(
        name="filegen_text_bytes_per_s",
        unit="bytes/s",
        higher_is_better=True,
        params={"sizes": ",".join(str(size) for size in sizes), "seed": DEFAULT_SEED},
        value=round(measured.best, 3),
        samples=tuple(round(sample, 3) for sample in measured.samples),
    )


def bench_filegen_binary(repeats: int) -> BenchmarkResult:
    """Bytes/second of random binary files, over the four Fig. 6 upload batches.

    Times :meth:`WorkloadSpec.generate` on each of ``PAPER_WORKLOADS``
    (3.1 MB in 112 files), the bulk MT19937 draw behind every binary file.
    """
    from repro.core.workloads import PAPER_WORKLOADS

    workloads = tuple(PAPER_WORKLOADS)

    def make_workload():
        def workload() -> None:
            for spec in workloads:
                spec.generate(seed=DEFAULT_SEED)

        return workload

    total = sum(spec.total_bytes for spec in workloads)
    measured = measure_rate(make_workload, total, repeats)
    return BenchmarkResult(
        name="filegen_binary_bytes_per_s",
        unit="bytes/s",
        higher_is_better=True,
        params={
            "workloads": ",".join(spec.name for spec in workloads),
            "files": sum(spec.file_count for spec in workloads),
            "bytes": total,
            "seed": DEFAULT_SEED,
        },
        value=round(measured.best, 3),
        samples=tuple(round(sample, 3) for sample in measured.samples),
    )


def bench_compressor(repeats: int) -> BenchmarkResult:
    """Bytes/second through ``Compressor(ALWAYS).process``, over one Fig. 5 text cell's files.

    zlib is the compression stage's largest layer once text generation is
    bulk-decoded.  The files are generated at ``DEFAULT_SEED`` before the
    clock starts, so only the compressor is timed.
    """
    from repro.core.workloads import COMPRESSION_SIZES
    from repro.filegen.text import generate_text
    from repro.sync.compression import COMPRESSION_LEVEL, CompressionPolicy, Compressor

    sizes = tuple(COMPRESSION_SIZES)
    contents = [generate_text(size, seed=DEFAULT_SEED).content for size in sizes]
    compressor = Compressor(CompressionPolicy.ALWAYS)

    def make_workload():
        def workload() -> None:
            for content in contents:
                compressor.process(content)

        return workload

    measured = measure_rate(make_workload, sum(sizes), repeats)
    return BenchmarkResult(
        name="compressor_bytes_per_s",
        unit="bytes/s",
        higher_is_better=True,
        params={
            "sizes": ",".join(str(size) for size in sizes),
            "seed": DEFAULT_SEED,
            "policy": compressor.policy.value,
            "level": COMPRESSION_LEVEL,
        },
        value=round(measured.best, 3),
        samples=tuple(round(sample, 3) for sample in measured.samples),
    )


def bench_campaign(
    *,
    services: Sequence[str],
    repetitions: float,
    idle_minutes: float,
    resolvers: int,
    seed: int,
    scenario: ScenarioSpec,
) -> List[BenchmarkResult]:
    """Wall-clock and cells/second for one sequential campaign run.

    The macro-benchmark runs the exact grid ``cloudbench all`` plans for
    the given knobs, with ``jobs=1`` so the number measures the engine,
    not the process pool.
    """
    runner = CampaignRunner(
        list(services),
        None,
        seed=seed,
        jobs=1,
        config=CampaignConfig(
            repetitions=int(repetitions),
            idle_duration=minutes(idle_minutes),
            resolver_count=resolvers,
            scenario=scenario,
        ),
    )
    holder: Dict[str, object] = {}

    def workload() -> None:
        holder["sweep"] = runner.run()

    wall = measure_seconds(workload)
    cell_count = len(holder["sweep"].cells())
    params: Dict[str, object] = {
        "services": ",".join(services),
        "repetitions": int(repetitions),
        "idle_minutes": idle_minutes,
        "resolvers": resolvers,
        "seed": seed,
        "scenario": scenario.name,
        "jobs": 1,
        "cells": cell_count,
    }
    return [
        BenchmarkResult(
            name="campaign_wall_s",
            unit="s",
            higher_is_better=False,
            params=dict(params),
            value=round(wall, 3),
            samples=(round(wall, 3),),
        ),
        BenchmarkResult(
            name="campaign_cells_per_s",
            unit="cells/s",
            higher_is_better=True,
            params=dict(params),
            value=round(cell_count / wall, 3),
            samples=(round(cell_count / wall, 3),),
        ),
    ]


def run_benchmarks(
    *,
    quick: bool = False,
    repeats: int = 3,
    services: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
    scenario: Optional[ScenarioSpec] = None,
    include_campaign: bool = True,
) -> List[BenchmarkResult]:
    """Run the benchmark suite and return its metrics in a fixed order.

    The micro workloads are identical in both modes — they cost seconds,
    and identical params are what lets a ``--quick`` CI run gate against
    the committed full-suite baseline.  ``quick`` only shrinks the
    expensive campaign macro-benchmark; its params then differ from the
    baseline's, so comparison skips (rather than misjudges) it.
    """
    scenario = scenario if scenario is not None else BASELINE
    services = list(services) if services is not None else list(SERVICE_NAMES)
    results = [
        bench_sniffer(200_000, repeats),
        bench_flow_segments(5_000, repeats),
        bench_trace_queries(50_000, 50, repeats),
        bench_transfers(2_000, repeats),
        bench_connection_cycles(2_000, repeats),
        bench_events(100_000, repeats),
        bench_load(20_000, repeats),
        bench_filegen_text(repeats),
        bench_filegen_binary(repeats),
        bench_compressor(repeats),
    ]
    if quick:
        # Two services and one repetition: the macro path end to end in a
        # few seconds, not the full half-minute grid.
        campaign_knobs = dict(repetitions=1, idle_minutes=4.0, resolvers=100)
        campaign_services = services[:2]
    else:
        # The full suite times the grid `cloudbench all` runs by default.
        defaults = CampaignConfig()
        campaign_knobs = dict(
            repetitions=defaults.repetitions,
            idle_minutes=defaults.idle_duration / minutes(1),
            resolvers=defaults.resolver_count,
        )
        campaign_services = services
    if include_campaign:
        results.extend(
            bench_campaign(
                services=campaign_services,
                repetitions=campaign_knobs["repetitions"],
                idle_minutes=campaign_knobs["idle_minutes"],
                resolvers=campaign_knobs["resolvers"],
                seed=seed,
                scenario=scenario,
            )
        )
    return results

#!/usr/bin/env python3
"""Campaign benchmark for the cloudbench reproduction.

Each run times rounds of real campaign cells, executed one after another
through ``repro.core.campaign.run_cell`` exactly as ``cloudbench all
--jobs 1`` executes them, for one workload:

* ``content``    Fig. 5 compression cells: file generation, chunking, zlib
                 and client-side encryption.
* ``traffic``    Fig. 6 performance cells (the paper's four upload batches on
                 the services that never compress): the TCP/TLS packet model,
                 capture and trace analysis.
* ``population`` load cells (an open population of sessions per service):
                 the fluid engine and its tail reductions.

Every round plans the workload's cells under a fresh campaign seed drawn from
``--seed``, so the inputs are a pure function of the arguments.  Every cell
result is checked against the paper's qualitative claims, and one cell is
run twice to check that results are a pure function of the cell.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload traffic --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, measured with nothing wrapped: the latency
of a round of cells and the set-up time of a fresh process.  ``--trace 1`` wraps
the entry points of each layer with timers (:class:`LayerTimer`) and reports
every layer's median self time and work counts per round instead.  Every
time is rescaled to a quiet machine's speed (:func:`reference_seconds`).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: Rounds every run completes, however short ``--seconds`` is.
MIN_ROUNDS = 3

#: The reference loop that gauges the machine's momentary speed: the best of
#: REFERENCE_REPEATS passes of REFERENCE_DRAWS draws.
REFERENCE_DRAWS = 1000
REFERENCE_REPEATS = 5
#: What one pass takes on a quiet machine (an x86-64 cloud vCPU).  Reported
#: times are rescaled to that speed.
REFERENCE_SECONDS = 0.00026
_REFERENCE_WORDS = ["sync", "chunk", "bundle", "delta", "packet", "flow", "login", "poll"] * 8

ALL_SERVICES = ("dropbox", "skydrive", "wuala", "clouddrive", "googledrive")

#: One round of each workload: a campaign stage, its services, the
#: ``CampaignConfig`` knobs that shape its grid and, where a round runs only
#: part of that grid, the (service, unit) cells it keeps, in run order.
WORKLOADS = {
    # One Fig. 5 cell per compression policy (never, smart, always): the
    # whole grid costs seconds per round, nearly all of it file generation.
    "content": {
        "stage": "compression",
        "services": ("wuala", "googledrive", "dropbox"),
        "config": {},
        "cells": (("wuala", "binary"), ("googledrive", "fake_jpeg"), ("dropbox", "text")),
    },
    # The services that never compress, so the packet model, capture and
    # trace analysis carry the round; zlib is the content workload's.
    "traffic": {"stage": "performance", "services": ("skydrive", "wuala", "clouddrive"), "config": {}, "cells": None},
    "population": {
        "stage": "load",
        "services": ALL_SERVICES,
        "config": {"load_populations": (20_000,)},
        "cells": None,
    },
}

#: Layer -> entry points wrapped in trace mode, as (module, class or None
#: for module functions, attribute names).  A layer is charged its self
#: time: time inside nested entry points goes to their own layer.
LAYER_ENTRY_POINTS = {
    "filegen": [
        ("repro.filegen.text", "RandomTextGenerator", ("generate",)),
        ("repro.filegen.binary", "RandomBinaryGenerator", ("generate",)),
        ("repro.filegen.jpeg", "FakeJPEGGenerator", ("generate",)),
        ("repro.filegen.jpeg", "RandomImageGenerator", ("generate",)),
    ],
    "chunk": [
        ("repro.sync.chunking", "FixedChunker", ("chunk",)),
        ("repro.sync.chunking", "VariableChunker", ("chunk",)),
        ("repro.sync.chunking", "NoChunker", ("chunk",)),
    ],
    "compress": [("repro.sync.compression", "Compressor", ("process",))],
    "encrypt": [("repro.sync.encryption", "ConvergentEncryptor", ("encrypt",))],
    "netsim": [
        ("repro.netsim.tcp", "TCPConnection", ("connect", "send", "request", "close")),
        ("repro.netsim.simulator", "NetworkSimulator", ("run_until",)),
    ],
    "capture": [("repro.capture.sniffer", "Sniffer", ("__call__", "accept_batch", "accept_flow"))],
    "analysis": [
        (
            "repro.capture.trace",
            "PacketTrace",
            (
                "between",
                "after",
                "to_hosts",
                "for_connection",
                "payload_packets",
                "outgoing",
                "incoming",
                "total_bytes",
                "payload_bytes",
                "uploaded_payload_bytes",
                "first_timestamp",
                "last_timestamp",
                "duration",
            ),
        ),
        (
            "repro.capture.analysis",
            None,
            ("startup_time", "completion_time", "overhead_fraction", "upload_throughput_bps"),
        ),
    ],
    "load_engine": [("repro.load.population", None, ("simulate_population",))],
    "load_reduce": [("repro.load.population", None, ("reduce_load",))],
}


def _count_file(args, result):
    return "filegen_mb", result.size / 1e6


def _count_connection(args, result):
    return "tcp_connections", 1


def _count_packet(args, result):
    return "packets", 1


def _count_batch(args, result):
    return "packets", len(args[1].timestamps)


def _count_flow(args, result):
    return "flow_segments", 1


def _count_sessions(args, result):
    return "load_sessions", args[0].population


#: (class or module name, attribute) -> work count taken from each call.
WORK_COUNTS = {
    ("RandomTextGenerator", "generate"): _count_file,
    ("RandomBinaryGenerator", "generate"): _count_file,
    ("FakeJPEGGenerator", "generate"): _count_file,
    ("RandomImageGenerator", "generate"): _count_file,
    ("TCPConnection", "connect"): _count_connection,
    ("Sniffer", "__call__"): _count_packet,
    ("Sniffer", "accept_batch"): _count_batch,
    ("Sniffer", "accept_flow"): _count_flow,
    ("repro.load.population", "simulate_population"): _count_sessions,
}

COUNT_NAMES = ("filegen_mb", "zlib_mb", "tcp_connections", "packets", "flow_segments", "load_sessions")


class _CountingZlib:
    """Stands in for the ``zlib`` module of the compression layer to count its input."""

    def __init__(self, zlib, counts):
        self._zlib = zlib
        self._counts = counts

    def compress(self, data, *args):
        self._counts["zlib_mb"] += len(data) / 1e6
        return self._zlib.compress(data, *args)

    def __getattr__(self, name):
        return getattr(self._zlib, name)


class LayerTimer:
    """Self time and work counts per layer, from wrappers around its entry points.

    Each call into an entry point is a span.  The time a span spends inside
    spans opened during it is charged to those spans, so a layer is charged
    only its self time, and the self times of all layers plus the time
    outside every span add up to the wall time of a round.
    """

    def __init__(self):
        self.self_seconds = dict.fromkeys(LAYER_ENTRY_POINTS, 0.0)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._nested = []  # per open span: seconds spent in spans nested in it

    def install(self):
        for layer, entry_points in LAYER_ENTRY_POINTS.items():
            for module_name, owner_name, names in entry_points:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                for name in names:
                    count = WORK_COUNTS.get((owner_name or module_name, name))
                    setattr(owner, name, self._timed(layer, getattr(owner, name), count))
        compression = importlib.import_module("repro.sync.compression")
        compression.zlib = _CountingZlib(compression.zlib, self.counts)

    def _timed(self, layer, function, count):
        nested = self._nested
        self_seconds = self.self_seconds
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(function)
        def timed(*args, **kwargs):
            nested.append(0.0)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_seconds[layer] += elapsed - nested.pop()
                if nested:
                    nested[-1] += elapsed
            if count is not None:
                name, amount = count(args, result)
                counts[name] += amount
            return result

        return timed

    def snapshot(self):
        return dict(self.self_seconds), dict(self.counts)


def reference_seconds():
    """Wall time of a fixed interpreter-bound loop: the machine's momentary speed.

    The machines this runs on are shared, and neighbours slow a core down by
    up to half for anything from a fraction of a second to minutes.  Every
    measured interval is bracketed by this loop and rescaled by
    ``REFERENCE_SECONDS / (mean of the two brackets)``, which cancels that
    slowdown while leaving any change in the program's own work in full.
    The best of several short passes ignores an interruption of one pass.
    """
    choice = random.Random(0).choice
    words = _REFERENCE_WORDS
    clock = time.perf_counter
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        started = clock()
        for _ in range(REFERENCE_DRAWS):
            choice(words)
        best = min(best, clock() - started)
    return best


def import_repro():
    """Put the checkout's sources first on the import path; exit if they are missing."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no package sources under {SRC}; run from the root of a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def plan(workload, seed, label):
    """The cells of one round, under the campaign seed derived from ``label``."""
    from repro.core.campaign import CampaignConfig, CampaignRunner

    spec = WORKLOADS[workload]
    campaign_seed = random.Random(f"{workload}:{seed}:{label}").getrandbits(32)
    config = CampaignConfig(repetitions=1, **spec["config"])
    runner = CampaignRunner(spec["services"], [spec["stage"]], seed=campaign_seed, jobs=1, config=config)
    cells = runner.cells()
    if spec["cells"] is None:
        return cells
    by_coordinates = {(cell.service, cell.unit): cell for cell in cells}
    return [by_coordinates[coordinates] for coordinates in spec["cells"]]


def first_result(workload, seed):
    """What every fresh ``cloudbench`` process pays: import, plan, run the first cell."""
    import_repro()
    from repro.core.campaign import run_cell

    result = run_cell(plan(workload, seed, "setup")[0])
    if result.failure is not None:
        sys.exit(result.failure.summary())


def setup_seconds(workload, seed):
    """Median rescaled wall time of :func:`first_result` in fresh interpreters."""
    command = [
        sys.executable,
        "-c",
        "import sys; sys.path.insert(0, sys.argv[1]); import run; run.first_result(sys.argv[2], int(sys.argv[3]))",
        HERE,
        workload,
        str(seed),
    ]
    samples = []
    before = reference_seconds()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        wall = time.perf_counter() - started
        after = reference_seconds()
        samples.append(wall * 2.0 * REFERENCE_SECONDS / (before + after))
        before = after
    return statistics.median(samples)


# --------------------------------------------------------------------------- #
# Correctness: every cell result against the paper's qualitative claims
# --------------------------------------------------------------------------- #
def check_compression(result):
    """Fig. 5: content shrinks exactly where the service's policy compresses it."""
    from repro.core.workloads import COMPRESSION_SIZES
    from repro.services.registry import get_profile
    from repro.sync.compression import CompressionPolicy

    policy = get_profile(result.cell.service).capabilities.compression
    errors = []
    if [point.file_size for point in result.payload] != list(COMPRESSION_SIZES):
        errors.append("file sizes differ from the Fig. 5 grid")
    for point in result.payload:
        if point.kind.value == "binary":
            shrinks = False
        elif point.kind.value == "text":
            shrinks = policy is not CompressionPolicy.NEVER
        else:  # a fake JPEG: only an indiscriminate compressor looks inside
            shrinks = policy is CompressionPolicy.ALWAYS
        ratio = point.compression_ratio
        if shrinks and not ratio < 0.7:
            errors.append(f"{point.kind.value} {point.file_size} B uploaded at ratio {ratio:.3f}, expected < 0.7")
        if not shrinks and not ratio >= 1.0:
            errors.append(f"{point.kind.value} {point.file_size} B uploaded at ratio {ratio:.3f}, expected >= 1")
    return errors


def check_performance(result):
    """Fig. 6: random payload arrives whole, after a positive sync delay."""
    from repro.core.workloads import workload_by_name

    workload = workload_by_name(result.cell.unit)
    errors = []
    for run in result.payload:
        if run.storage_payload_bytes < workload.total_bytes:
            errors.append(f"{run.storage_payload_bytes} B of storage payload for a {workload.total_bytes} B batch")
        if not run.completion_time > 0.0 or not run.startup_time >= 0.0:
            errors.append(f"start-up {run.startup_time} s, completion {run.completion_time} s")
        if not run.overhead_fraction >= 1.0:
            errors.append(f"overhead {run.overhead_fraction} below the batch size")
    return errors


def check_load(result):
    """Load stage: every session completes; tails are ordered; shares are bounded."""
    from repro.units import parse_population

    summary = result.payload
    tail = summary.completion
    errors = []
    if summary.sessions != parse_population(result.cell.unit):
        errors.append(f"{summary.sessions} sessions completed of {result.cell.unit}")
    if not 0.0 < tail.p50 <= tail.p95 <= tail.p99 <= tail.p999 <= tail.maximum:
        errors.append(f"completion tail out of order: {tail}")
    if not 0.0 < summary.jain <= 1.0 + 1e-9:
        errors.append(f"Jain index {summary.jain}")
    if not 0.0 < summary.utilization <= 1.0 + 1e-9:
        errors.append(f"link utilization {summary.utilization}")
    return errors


CHECKS = {"compression": check_compression, "performance": check_performance, "load": check_load}


def cell_errors(result):
    if result.failure is not None:
        return [result.failure.summary()]
    return CHECKS[result.cell.stage](result)


# --------------------------------------------------------------------------- #
# The measured loop
# --------------------------------------------------------------------------- #
def run_round(cells):
    """Run one round's cells in plan order.

    Returns each cell's wall seconds rescaled by the reference loop run
    before and after it (:func:`reference_seconds`), the factor the round's
    wall time was rescaled by overall, and the results.
    """
    from repro.core.campaign import run_cell

    walls, rescaled, results = [], [], []
    clock = time.perf_counter
    before = reference_seconds()
    for cell in cells:
        started = clock()
        result = run_cell(cell)
        wall = clock() - started
        after = reference_seconds()
        walls.append(wall)
        rescaled.append(wall * 2.0 * REFERENCE_SECONDS / (before + after))
        results.append(result)
        before = after
    return rescaled, sum(rescaled) / sum(walls), results


def measure(workload, seed, seconds, timer):
    """Rounds until ``seconds`` are used up; returns the run's samples and verdicts."""
    from repro.core.campaign import run_cell

    run_round(plan(workload, seed, "warmup"))  # fill lazy caches and memos before timing
    round_seconds, cell_seconds, layer_rounds = [], {}, []
    attempted, failed, errors, first = 0, 0, [], None
    started = time.perf_counter()
    for index in itertools.count():
        elapsed = time.perf_counter() - started
        if len(round_seconds) >= MIN_ROUNDS and elapsed + statistics.median(round_seconds) > seconds:
            break
        before = timer.snapshot() if timer is not None else None
        cells, scale, results = run_round(plan(workload, seed, index))
        if timer is not None:
            layer_rounds.append((before, timer.snapshot(), sum(cells), scale))
        round_seconds.append(sum(cells))
        for cell, result in zip(cells, results):
            cell_seconds.setdefault((result.cell.service, result.cell.unit), []).append(cell)
        for result in results:
            attempted += 1
            found = cell_errors(result)
            failed += bool(found)
            errors.extend(f"{result.cell.key}: {error}" for error in found)
        first = first or results[0]
    # Purity: the same cell computed again yields the same rows.
    attempted += 1
    if run_cell(first.cell).rows() != first.rows():
        failed += 1
        errors.append(f"{first.cell.key}: rows differ when the cell is run again")
    return len(round_seconds), cell_seconds, layer_rounds, attempted, failed, errors


def end_to_end_metrics(cell_seconds, setup):
    """A round's latency, built from each of its cells' lower-quartile time.

    Interference from other tenants only ever adds time, and a median over
    cells of different sizes jumps between them; the lower quartile of each
    cell's own times estimates its cost with the least interference without
    resting on a single sample.
    """
    round_seconds = sum(
        statistics.quantiles(samples, n=4, method="inclusive")[0] for samples in cell_seconds.values()
    )
    return {
        "round_ms": {"value": round_seconds * 1e3, "unit": "ms"},
        "setup_s": {"value": setup, "unit": "s"},
    }


def per_layer_metrics(layer_rounds):
    """Median over rounds of each layer's rescaled self time and of each work count."""
    per_round = []
    for (self_before, counts_before), (self_after, counts_after), wall, scale in layer_rounds:
        row = {f"{layer}_ms": (self_after[layer] - self_before[layer]) * scale * 1e3 for layer in self_after}
        row["other_ms"] = wall * 1e3 - sum(row.values())
        row.update({name: counts_after[name] - counts_before[name] for name in counts_after})
        per_round.append(row)
    metrics = {}
    for name in per_round[0]:
        unit = "ms" if name.endswith("_ms") else "MB" if name.endswith("_mb") else "count"
        metrics[name] = {"value": statistics.median(row[name] for row in per_round), "unit": unit}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Campaign benchmark for the cloudbench reproduction.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_repro()
    timer = None
    setup = None
    if args.trace:
        timer = LayerTimer()
        timer.install()
    else:
        setup = setup_seconds(args.workload, args.seed)
    rounds, cell_seconds, layer_rounds, attempted, failed, errors = measure(
        args.workload, args.seed, args.seconds, timer
    )
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    if timer is not None:
        metrics = per_layer_metrics(layer_rounds)
    else:
        metrics = end_to_end_metrics(cell_seconds, setup)
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds, {attempted} cells")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

"""Command line interface: ``cloudbench``.

Every campaign command runs through one engine
(:mod:`repro.core.campaign`).  ``all`` runs the whole campaign, and each
per-artifact subcommand is an alias for ``all --stages <stage> --jobs 1``
that accepts every flag of ``all``::

    cloudbench capabilities                 # Table 1
    cloudbench idle --minutes 16            # Fig. 1
    cloudbench datacenters --resolvers 300  # Fig. 2 / §3.2
    cloudbench connections                  # Fig. 3 (stage syn_series)
    cloudbench delta                        # Fig. 4
    cloudbench compression                  # Fig. 5
    cloudbench performance --repetitions 5  # Fig. 6
    cloudbench all                          # everything above, plus the load stage
    cloudbench bench --compare BENCH.json   # perf metrics of the engine itself

Their plan flags all default to one table: the field defaults of
:class:`~repro.core.campaign.CampaignConfig`.

Results are printed as ASCII tables; ``--csv PATH`` additionally writes the
raw rows, one stage-tagged CSV per stage (``results.csv`` becomes
``results.idle.csv``, ``results.performance.csv``, ...), or ``PATH`` itself
when the campaign plans a single stage.

Every (stage, service, unit) cell — e.g. *performance × dropbox × 1x100kB*
— is an independent simulation, fanned out over ``--jobs N`` worker
processes (for ``all``, one per CPU by default).  Results are
bit-identical for any ``--jobs`` value given the same ``--seed``; a
per-cell wall-clock table quantifies the speedup, ``--stages`` selects a
subset of campaign stages, and ``--json PATH`` writes the machine-readable
per-cell results.

``--cache-dir DIR`` attaches the persistent result store
(:mod:`repro.core.store`): cells already computed for the same (stage,
service, unit, seed, config) identity are loaded instead of re-run, fresh
cells are saved as they complete, and the timing table reports per-cell
hits.  ``--resume`` continues an interrupted or extended campaign from the
store (defaulting ``--cache-dir`` to ``.cloudbench-cache``): more seeds,
stages or repetitions only compute the missing cells, and cached plus
fresh cells merge into a bit-identical summary.

Distributed campaigns (:mod:`repro.dist`) split one campaign across N
cooperating runners that share nothing but a store directory.  Every
runner runs the same command and claims cells through lease files in the
store until none are left::

    cloudbench shard --store DIR   # on each runner (any machine, any count)
    cloudbench merge --store DIR   # merge the store into one report

``merge`` re-plans the same deterministic grid (so the campaign flags must
match the workers'), reads every cell back and prints the same tables —
and writes the same ``--json``/``--csv`` — as ``cloudbench all``, byte for
byte.  ``cloudbench cache ls``/``cloudbench cache rm`` inspect and prune a
store directory.

``--json`` (for ``all`` and ``merge``) writes the *deterministic results
document*: per-cell rows only, no wall clocks or cache provenance, so any
two executions of the same campaign — sequential, parallel, or sharded
across machines — serialize byte-identically.  ``all --timings-json``
writes the run-specific execution record (timings, worker count, cache
hits).

Every campaign is a seed sweep (:mod:`repro.core.sweep`):
``--seeds 7,8,10..12`` plans the same campaign grid once per seed and
reduces the per-seed results into cross-seed statistics — mean, stddev,
median, quartiles/IQR, extrema, n — per (stage, service, unit, metric).
A multi-seed campaign prints one aggregate table per stage, ``--csv``
writes per-stage aggregate CSVs and ``--json`` writes the deterministic
*sweep document* (per-seed documents plus aggregates), byte-identical
across ``--jobs N``, multi-runner ``shard`` + ``merge`` and cache-resumed
executions, and independent of seed order.  The default single ``--seed``
is a sweep of one: its tables, CSVs and document keep their single-seed
form.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro.core.campaign import STAGES, CampaignConfig, CampaignRunner
from repro.core.store import DEFAULT_CACHE_DIR, ResultStore
from repro.core.report import render_table, to_csv, write_json
from repro.core.sweep import SweepResult
from repro.dist import DEFAULT_LEASE_TIMEOUT, CampaignMerger, ShardWorker
from repro.errors import ConfigurationError, DistributionError
from repro.netsim.scenario import ScenarioSpec, get_scenario, register_scenarios_from_file, registered_scenarios
from repro.obs.logconfig import configure_logging
from repro.perf import (
    build_document,
    capture_environment,
    compare_documents,
    load_document,
    run_benchmarks,
    write_document,
)
from repro.randomness import DEFAULT_SEED
from repro.services.registry import SERVICE_NAMES, register_services_from_file
from repro.units import format_population, minutes, parse_duration, parse_populations, parse_seeds, unit_sort_key

__all__ = ["main", "build_parser"]

#: The one defaults table every campaign command's plan flags read.
_DEFAULTS = CampaignConfig()

#: Per-artifact subcommands: command -> (campaign stage, help).  Each is an
#: alias for ``all --stages <stage> --jobs 1``.
_STAGE_ALIASES = {
    "capabilities": ("capabilities", "Table 1: capability matrix"),
    "idle": ("idle", "Fig. 1: background traffic while idle"),
    "datacenters": ("datacenters", "Fig. 2 / Sec. 3.2: front-end discovery"),
    "connections": ("syn_series", "Fig. 3: TCP connections for 100x10kB"),
    "delta": ("delta", "Fig. 4: delta encoding tests"),
    "compression": ("compression", "Fig. 5: compression tests"),
    "performance": ("performance", "Fig. 6: start-up, completion, overhead"),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the ``cloudbench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="cloudbench",
        description="Benchmark (simulated) personal cloud storage services, reproducing IMC'13.",
    )
    parser.add_argument(
        "--services",
        default=None,
        help=(
            "comma-separated list of services to benchmark "
            f"(default: every registered service; the paper's five are {','.join(SERVICE_NAMES)})"
        ),
    )
    parser.add_argument(
        "--services-file",
        dest="services_file",
        default=None,
        help=(
            "register every service defined in this TOML/JSON spec file "
            "([[service]] tables) before running; spec-defined services are "
            "addressable via --services and join the default service list"
        ),
    )
    parser.add_argument(
        "--scenario",
        default="baseline",
        help=(
            "network scenario every path runs under (RTT/bandwidth/loss/jitter "
            f"overrides); built-ins: {', '.join(registered_scenarios())} "
            "(default: baseline, the paper's campus network)"
        ),
    )
    parser.add_argument(
        "--scenario-file",
        dest="scenario_file",
        default=None,
        help="register every scenario defined in this TOML/JSON spec file ([[scenario]] tables)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log INFO messages to stderr (repeat for DEBUG); default shows warnings only",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="silence warnings (errors still print)",
    )
    parser.add_argument("--csv", default=None, help="also write the result rows to this CSV file")
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"campaign seed; identical seeds reproduce identical results (default: {DEFAULT_SEED})",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_campaign_options(sub: argparse.ArgumentParser, *, stages: bool = True) -> None:
        # Shared by all, its stage aliases, shard and merge: flags that
        # define the campaign *plan*.  Workers and the merger must agree on
        # these (and on --services / --seed) or they address different
        # store keys.
        sub.add_argument(
            "--repetitions", type=int, default=_DEFAULTS.repetitions, help="repetitions per (service, workload)"
        )
        sub.add_argument(
            "--minutes",
            type=float,
            default=_DEFAULTS.idle_duration / minutes(1),
            help="idle observation window (minutes)",
        )
        sub.add_argument(
            "--resolvers", type=int, default=_DEFAULTS.resolver_count, help="number of open resolvers to fan out over"
        )
        if stages:
            sub.add_argument(
                "--stages",
                default=None,
                help=f"comma-separated subset of campaign stages to run (default: all of {','.join(STAGES)})",
            )
        sub.add_argument(
            "--seeds",
            default=None,
            help=(
                "seed sweep: run the campaign grid once per seed and aggregate across "
                "seeds; accepts comma lists and inclusive ranges, e.g. '7,8,10..12' "
                "(default: the single --seed)"
            ),
        )
        sub.add_argument(
            "--populations",
            default=None,
            help=(
                "population sizes the `load` stage plans one cell per, e.g. "
                "'1k,10k,100k' or '500,1M' (default: "
                f"{','.join(format_population(size) for size in _DEFAULTS.load_populations)})"
            ),
        )
        sub.add_argument(
            "--rep-cells",
            dest="rep_cells",
            action="store_true",
            help=(
                "plan one performance cell per repetition (upload#r0, upload#r1, ...) "
                "instead of one per workload: finer shards and per-repetition caching, "
                "bit-identical merged results"
            ),
        )
        sub.add_argument(
            "--trace",
            dest="trace_path",
            metavar="FILE",
            default=None,
            help=(
                "record a flight recorder per cell and write the campaign trace "
                "document to FILE; inspect/convert it with `cloudbench trace`"
            ),
        )

    def add_run_options(sub: argparse.ArgumentParser) -> None:
        # `all` and its stage aliases: execution, store and output flags.
        sub.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes for the campaign cells (default: one per CPU; 1 for the stage aliases)",
        )
        sub.add_argument(
            "--json",
            dest="json_path",
            default=None,
            help=(
                "write the deterministic per-cell results document to this JSON file "
                "(byte-identical across --jobs values and across sharded runs merged "
                "with `cloudbench merge`)"
            ),
        )
        sub.add_argument(
            "--timings-json",
            dest="timings_json_path",
            default=None,
            help="write the run-specific execution record (wall clocks, cache hits) to this JSON file",
        )
        sub.add_argument(
            "--cache-dir",
            dest="cache_dir",
            default=None,
            help=(
                "persistent result store: cells already computed for the same "
                "(stage, service, unit, seed, config) are loaded instead of re-run, "
                "fresh cells are saved as they complete"
            ),
        )
        sub.add_argument(
            "--resume",
            action="store_true",
            help=(
                "resume an interrupted or extended campaign from the result store "
                f"(implies --cache-dir {DEFAULT_CACHE_DIR} when none is given)"
            ),
        )

    for command, (stage, help_text) in _STAGE_ALIASES.items():
        alias = subparsers.add_parser(command, help=f"{help_text} (alias for `all --stages {stage} --jobs 1`)")
        add_campaign_options(alias, stages=False)
        add_run_options(alias)
        alias.set_defaults(stages=stage, jobs=1)

    everything = subparsers.add_parser("all", help="run the whole campaign through the parallel engine")
    add_campaign_options(everything)
    add_run_options(everything)

    shard = subparsers.add_parser(
        "shard",
        help="claim and run the cells of a distributed campaign against a shared result store",
    )
    add_campaign_options(shard)
    shard.add_argument("--store", required=True, help="shared result store directory (all runners point here)")
    shard.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes inside this runner (default: one per CPU)",
    )
    shard.add_argument(
        "--runner-id",
        default=None,
        help="identity recorded on claims and store entries (default: <hostname>-<pid>)",
    )
    shard.add_argument(
        "--lease-timeout",
        type=float,
        default=DEFAULT_LEASE_TIMEOUT,
        help=f"seconds without a heartbeat before a claim counts as abandoned (default: {DEFAULT_LEASE_TIMEOUT:g})",
    )

    merge = subparsers.add_parser(
        "merge",
        help="merge a (possibly still filling) shared store into one campaign report",
    )
    add_campaign_options(merge)
    merge.add_argument("--store", required=True, help="shared result store directory to merge from")
    merge.add_argument(
        "--wait",
        action="store_true",
        help="poll the store until every campaign cell is present instead of failing fast",
    )
    merge.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up --wait after this many seconds (default: wait forever)",
    )
    merge.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="write the deterministic results document (byte-identical to `cloudbench all --json`)",
    )
    merge.set_defaults(jobs=1)

    bench = subparsers.add_parser(
        "bench",
        help="benchmark the benchmark: deterministic perf metrics of the simulation engine",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: same micro workloads, shrunken campaign macro-benchmark",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repetitions per micro-benchmark; the best rate is reported (default: 3)",
    )
    bench.add_argument(
        "--skip-campaign",
        dest="skip_campaign",
        action="store_true",
        help="skip the end-to-end campaign macro-benchmark (micro metrics only)",
    )
    bench.add_argument(
        "--json",
        dest="bench_json",
        default=None,
        help="write the canonical benchmark document (the BENCH_netsim.json format) to this file",
    )
    bench.add_argument(
        "--compare",
        dest="bench_compare",
        default=None,
        metavar="BASELINE",
        help="compare against a committed baseline document; exit nonzero on regression",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=25.0,
        help="allowed percentage slack per metric before --compare flags a regression (default: 25)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="static determinism analysis: DET AST rules over Python, SPEC checks over spec files",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["."],
        help=(
            "files or directories to lint (default: the current directory); .py files "
            "run the AST rules, .toml/.json files under a 'specs' directory are "
            "linted as ServiceSpec/ScenarioSpec documents"
        ),
    )
    lint.add_argument(
        "--specs",
        dest="lint_specs",
        action="append",
        default=[],
        metavar="FILE",
        help="additionally lint this ServiceSpec/ScenarioSpec TOML/JSON document (repeatable)",
    )
    lint.add_argument(
        "--json",
        dest="lint_json",
        action="store_true",
        help="emit the findings as a canonical JSON document instead of text",
    )
    lint.add_argument(
        "--list-rules",
        dest="lint_list_rules",
        action="store_true",
        help="print every rule id and title, then exit",
    )

    trace = subparsers.add_parser(
        "trace",
        help="inspect flight recorder traces, or export them for Perfetto",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_ls = trace_sub.add_parser("ls", help="list the flight-record sidecars of a result store")
    trace_ls.add_argument("--store", default=DEFAULT_CACHE_DIR, help=f"store directory (default: {DEFAULT_CACHE_DIR})")
    trace_show = trace_sub.add_parser("show", help="summarize a trace file, sidecar, or a whole store")
    trace_show.add_argument(
        "target",
        help="a campaign trace file (--trace output), one .trace.json sidecar, or a store directory",
    )
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a trace to Chrome trace-event JSON (Perfetto / chrome://tracing) or canonical JSON",
    )
    trace_export.add_argument(
        "--input",
        dest="trace_input",
        metavar="FILE",
        default=None,
        help="trace or flight-record JSON file to convert",
    )
    trace_export.add_argument(
        "--store",
        dest="trace_store",
        metavar="DIR",
        default=None,
        help="assemble the trace from a store's flight-record sidecars instead of a file",
    )
    trace_export.add_argument(
        "--output",
        dest="trace_output",
        metavar="FILE",
        default=None,
        help="write here instead of stdout",
    )
    trace_export.add_argument(
        "--format",
        dest="trace_format",
        choices=("chrome", "json"),
        default="chrome",
        help="chrome: trace-event form for Perfetto; json: canonical trace document (default: chrome)",
    )
    trace_export.add_argument(
        "--sim-only",
        dest="trace_sim_only",
        action="store_true",
        help="strip the run-specific wall half first (the byte-comparable deterministic form)",
    )

    cache = subparsers.add_parser("cache", help="inspect or prune a result store directory")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser("ls", help="list the store's cells (stage/service/unit/seed/runner)")
    cache_ls.add_argument("--store", default=DEFAULT_CACHE_DIR, help=f"store directory (default: {DEFAULT_CACHE_DIR})")
    cache_rm = cache_sub.add_parser("rm", help="delete store entries by stage/service/age/schema, or everything")
    cache_rm.add_argument("--store", default=DEFAULT_CACHE_DIR, help=f"store directory (default: {DEFAULT_CACHE_DIR})")
    cache_rm.add_argument("--stage", default=None, help="only remove entries of this campaign stage")
    cache_rm.add_argument("--service", default=None, help="only remove entries of this service")
    cache_rm.add_argument(
        "--older-than",
        dest="older_than",
        metavar="AGE",
        default=None,
        help="TTL GC: only remove entries last written more than AGE ago (e.g. 45s, 30m, 12h, 7d)",
    )
    cache_rm.add_argument(
        "--schema-foreign",
        dest="schema_foreign",
        action="store_true",
        help=(
            "remove entries written under a different store schema or model code, and .pkl files of "
            "earlier releases (not combinable with --stage/--service)"
        ),
    )
    cache_rm.add_argument("--all", action="store_true", help="remove every entry (and leftover claim files)")
    return parser


def _parse_stages(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Optional[List[str]]:
    """The --stages selection as a list, or None for all stages."""
    if args.stages is None:
        return None
    stages = [name.strip() for name in args.stages.split(",") if name.strip()]
    if not stages:
        parser.error(f"--stages selects no stage; valid stages: {', '.join(STAGES)}")
    return stages


def _campaign_seeds(parser: argparse.ArgumentParser, args: argparse.Namespace) -> List[int]:
    """The campaign's seed list: the --seeds sweep spec, or the single --seed.

    One shared grammar (:func:`repro.units.parse_seeds`) serves `all`,
    `shard` and `merge`, so cooperating runners cannot disagree on how a
    sweep spec expands.
    """
    if args.seeds is None:
        return [args.seed]
    try:
        return parse_seeds(args.seeds)
    except ConfigurationError as error:
        parser.error(str(error))


def _targets(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Tuple[List[str], ScenarioSpec]:
    """Register any spec files, then resolve ``--services`` and ``--scenario``.

    Spec-defined services and scenarios are registered first, so they are
    first-class citizens of both flags.
    """
    try:
        if args.scenario_file is not None:
            register_scenarios_from_file(args.scenario_file)
        if args.services_file is not None:
            register_services_from_file(args.services_file)
        scenario = get_scenario(args.scenario)
    except ConfigurationError as error:
        parser.error(str(error))
    if not args.services:
        return list(SERVICE_NAMES), scenario
    services = [name.strip().lower() for name in args.services.split(",") if name.strip()]
    unknown = [name for name in services if name not in SERVICE_NAMES]
    if unknown:
        parser.error(f"unknown service(s): {', '.join(unknown)}; choose from {', '.join(SERVICE_NAMES)}")
    return services, scenario


def _campaign_runner(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    services: List[str],
    scenario: ScenarioSpec,
    store: Optional[ResultStore],
) -> CampaignRunner:
    """The CampaignRunner a campaign command plans from its flags.

    ``all``, its stage aliases, ``shard`` and ``merge`` build the campaign
    *plan* from the same flags and defaults, so every cooperating runner
    (and the merger) addresses identical store keys — including the seed
    list of a sweep, the ``--scenario`` and any
    ``--services-file``/``--scenario-file`` registrations.
    """
    try:
        config_kwargs = {}
        if args.populations is not None:
            config_kwargs["load_populations"] = tuple(parse_populations(args.populations))
        return CampaignRunner(
            services,
            _parse_stages(parser, args),
            seeds=_campaign_seeds(parser, args),
            jobs=args.jobs,
            config=CampaignConfig(
                repetitions=args.repetitions,
                idle_duration=minutes(args.minutes),
                resolver_count=args.resolvers,
                scenario=scenario,
                rep_cells=args.rep_cells,
                **config_kwargs,
            ),
            store=store,
            trace=args.trace_path is not None,
        )
    except ConfigurationError as error:
        parser.error(str(error))


def store_listing_rows(store: ResultStore) -> List[dict]:
    """`cache ls` rows in deterministic order: (stage, service, unit, seed).

    Stages sort in campaign order (unknown stages last, alphabetically), so
    two listings of equal stores are byte-identical and diffable in CI like
    the results documents.  Units sort via
    :func:`repro.units.unit_sort_key`: the load stage's population labels
    compare numerically (1k < 10k < 100k < 1M, where lexical order would
    interleave them) and per-repetition performance units by repetition
    number.
    """
    rows = [
        {
            "stage": entry["stage"],
            "service": entry["service"],
            "unit": entry["unit"],
            "seed": entry["seed"],
            "runner": entry["runner"] if entry["runner"] is not None else "-",
            "wall_s": round(entry["wall_seconds"], 3),
        }
        for entry in store.native_entries()
    ]
    rows.sort(
        key=lambda row: (
            (STAGES.index(row["stage"]), "") if row["stage"] in STAGES else (len(STAGES), row["stage"]),
            row["service"],
            unit_sort_key(row["unit"]),
            row["seed"],
        )
    )
    return rows


def _emit_sweep_artifacts(sweep: SweepResult, args: argparse.Namespace) -> None:
    """Shared tail of `all` and `merge`: ``--csv`` and ``--json``.

    ``--csv`` writes the sweep's report rows (:meth:`SweepResult.report_rows
    <repro.core.sweep.SweepResult.report_rows>`), one file per stage:
    ``results.csv`` becomes ``results.idle.csv``, ... — unless the campaign
    plans a single stage, whose rows go to ``results.csv`` itself.
    ``--json`` writes the deterministic document.
    """
    if args.csv:
        single_stage = len(sweep.stages()) == 1
        base, extension = os.path.splitext(args.csv)
        for stage, rows in sweep.report_rows().items():
            path = args.csv if single_stage else f"{base}.{stage}{extension or '.csv'}"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(to_csv(rows) + "\n")
            print(f"CSV written to {path}")
    if args.json_path:
        write_json(args.json_path, sweep.document())
        print(f"JSON written to {args.json_path}")


def _write_trace_file(path: Optional[str], document: Optional[dict]) -> None:
    """Write a campaign trace document for `--trace FILE`, if both exist."""
    if path is None:
        return
    if document is None:
        print(f"no trace recorded; {path} not written", file=sys.stderr)
        return
    from repro.obs.export import write_trace

    write_trace(path, document)
    print(f"trace written to {path}")


def _report_failures(failures: List) -> int:
    """Print per-cell failure summaries; nonzero when any cell failed."""
    if not failures:
        return 0
    print()
    for failure in failures:
        print(f"FAILED {failure.summary()}", file=sys.stderr)
    print(f"{len(failures)} campaign cell(s) failed", file=sys.stderr)
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``cloudbench`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    if args.command == "trace":
        # Trace inspection is read-only tooling over JSON artifacts: no
        # scenario/service resolution, no simulator imports.
        from repro.obs.cli import execute_export, execute_ls, execute_show

        if args.trace_command == "ls":
            return execute_ls(args.store)
        if args.trace_command == "show":
            return execute_show(args.target, error=parser.error)
        if args.trace_command == "export":
            return execute_export(
                input_path=args.trace_input,
                store_dir=args.trace_store,
                output=args.trace_output,
                fmt=args.trace_format,
                sim_only=args.trace_sim_only,
                error=parser.error,
            )
        parser.error(f"unknown trace command {args.trace_command!r}")  # pragma: no cover
    if args.command == "lint":
        # Lint is self-contained static analysis: no scenario/service
        # resolution, no simulator imports beyond what the spec linter needs.
        from repro.analysis.cli import execute as lint_execute

        return lint_execute(
            args.paths,
            args.lint_specs,
            as_json=args.lint_json,
            list_rules=args.lint_list_rules,
            error=parser.error,
        )
    services, scenario = _targets(parser, args)
    if args.command == "all" or args.command in _STAGE_ALIASES:
        cache_dir = args.cache_dir
        if args.resume and cache_dir is None:
            cache_dir = DEFAULT_CACHE_DIR
        store = ResultStore(cache_dir) if cache_dir is not None else None
        sweep = _campaign_runner(parser, args, services, scenario, store).run()
        print(sweep.summary_text())
        print()
        print(sweep.timing_text())
        if cache_dir is not None:
            cells = len(sweep.cells())
            ratio = sweep.cache_hits() / cells if cells else 0.0
            print(
                f"result store {cache_dir}: {sweep.cache_hits()} hits, "
                f"{sweep.cache_misses()} misses ({ratio:.0%} cached)"
            )
        _emit_sweep_artifacts(sweep, args)
        if args.timings_json_path:
            write_json(args.timings_json_path, sweep.to_json_dict())
            print(f"Timings JSON written to {args.timings_json_path}")
        _write_trace_file(args.trace_path, sweep.trace)
        return _report_failures(sweep.failures())
    elif args.command == "bench":
        results = run_benchmarks(
            quick=args.quick,
            repeats=args.repeats,
            services=services,
            seed=args.seed,
            scenario=scenario,
            include_campaign=not args.skip_campaign,
        )
        document = build_document(results, environment=capture_environment())
        metric_rows = [
            {
                "metric": result.name,
                "value": f"{result.value:,.3f}",
                "unit": result.unit,
                "direction": "higher" if result.higher_is_better else "lower",
                "repeats": len(result.samples),
            }
            for result in sorted(results, key=lambda item: item.name)
        ]
        mode = "quick" if args.quick else "full"
        print(render_table(metric_rows, title=f"Engine benchmarks ({mode} suite)"))
        if args.bench_json:
            write_document(args.bench_json, document)
            print(f"Benchmark JSON written to {args.bench_json}")
        if args.bench_compare:
            try:
                baseline = load_document(args.bench_compare)
                report = compare_documents(document, baseline, tolerance_pct=args.tolerance)
            except ConfigurationError as error:
                parser.error(str(error))
            print()
            print(render_table(report.rows(), title=f"Baseline {args.bench_compare} (tolerance {args.tolerance:g}%)"))
            if not report.ok:
                names = ", ".join(delta.name for delta in report.regressions)
                print(f"PERFORMANCE REGRESSION: {names}", file=sys.stderr)
                return 1
            print("no regressions against the baseline")
    elif args.command == "shard":
        runner = _campaign_runner(parser, args, services, scenario, ResultStore(args.store))
        report = ShardWorker(runner, runner_id=args.runner_id, lease_timeout=args.lease_timeout).run()
        print(render_table(report.rows(), title=f"Shard worker {report.runner}"))
        if report.yielded:
            print(f"left to other live runners: {', '.join(report.yielded)}")
        print(
            f"store {args.store}: computed {len(report.computed)} cell(s), "
            f"{report.hits} already present; merge with `cloudbench merge --store {args.store}`"
        )
        if report.failed:
            print(f"FAILED cells (not stored): {', '.join(report.failed)}", file=sys.stderr)
        # A shard's per-cell flight records live in the store sidecars (the
        # merger reassembles them); the --trace file gets this worker's
        # harness half: claim/store counters and shard.cell wall spans.
        _write_trace_file(args.trace_path, runner.trace_document([]))
        if report.failed:
            return 1
    elif args.command == "merge":
        runner = _campaign_runner(parser, args, services, scenario, ResultStore(args.store))
        try:
            merged = CampaignMerger(runner).collect(wait=args.wait, timeout=args.timeout)
        except DistributionError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        sweep = merged.sweep
        print(sweep.summary_text())
        print()
        print(render_table(merged.runner_rows(), title="Per-runner accounting"))
        print(
            f"merged {len(sweep.cells())} cell(s) across {len(sweep.seeds)} seed(s), "
            f"{sweep.cpu_seconds():.2f} s of recorded cell work"
        )
        _emit_sweep_artifacts(sweep, args)
        _write_trace_file(args.trace_path, sweep.trace)
    elif args.command == "cache":
        store = ResultStore(args.store)
        if args.cache_command == "ls":
            rows = store_listing_rows(store)
            print(render_table(rows, title=f"Result store {args.store} ({len(rows)} cell(s))"))
        elif args.cache_command == "rm":
            selected = args.stage is not None or args.service is not None or args.older_than is not None or args.schema_foreign
            if args.all and selected:
                parser.error("cache rm: --all cannot be combined with --stage/--service/--older-than/--schema-foreign")
            if not args.all and not selected:
                parser.error("cache rm needs a selector: --stage, --service, --older-than, --schema-foreign or --all")
            if args.schema_foreign and (args.stage is not None or args.service is not None):
                parser.error(
                    "cache rm: --schema-foreign cannot be combined with --stage/--service "
                    "(a foreign entry's identity is not readable by this version)"
                )
            older_than = None
            if args.older_than is not None:
                try:
                    older_than = parse_duration(args.older_than)
                except ConfigurationError as error:
                    parser.error(str(error))
            removed = store.prune(
                stage=args.stage,
                service=args.service,
                older_than=older_than,
                schema_foreign=args.schema_foreign,
            )
            print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} from {args.store}")
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown cache command {args.cache_command!r}")
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| head``) closed the pipe; exit
        # quietly like other Unix filters instead of dumping a traceback.
        # Point stdout at devnull so the interpreter's shutdown flush
        # does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)

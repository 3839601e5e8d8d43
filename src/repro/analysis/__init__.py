"""Static determinism analysis for the benchmark code base.

Every result surface this repository ships — cache keys, results
documents, sweep documents, shard+merge output — is contractually
byte-identical across ``--jobs N``, seed order and worker topology.
This package enforces that contract *statically*: an AST rule engine
(:mod:`~repro.analysis.engine`) with determinism rules
(:mod:`~repro.analysis.rules.det`: unsorted filesystem enumeration,
global RNG use, wall clocks, implicit JSON key order, set iteration,
numpy's global RNG) and a spec-document linter
(:mod:`~repro.analysis.speclint`) that runs declarative
ServiceSpec/ScenarioSpec files through the real runtime loaders.

Entry points: ``cloudbench lint [paths] [--specs FILE]`` and
``python -m repro.analysis``.  The pass runs self-hosted over this
repository's own ``src``, ``tests`` and ``examples/specs`` in CI and
must come up clean; intentional violations carry inline
``# repro: disable=RULE`` suppressions
(:mod:`~repro.analysis.suppressions`).
"""

from repro.analysis.cli import lint_paths, run
from repro.analysis.engine import LintEngine, Rule, SourceModule, collect_targets
from repro.analysis.findings import Finding
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import all_rules, rule_catalogue
from repro.analysis.speclint import lint_spec_file
from repro.analysis.suppressions import scan_suppressions

__all__ = [
    "Finding",
    "LintEngine",
    "Rule",
    "SourceModule",
    "all_rules",
    "collect_targets",
    "lint_paths",
    "lint_spec_file",
    "render_json",
    "render_text",
    "rule_catalogue",
    "run",
    "scan_suppressions",
]

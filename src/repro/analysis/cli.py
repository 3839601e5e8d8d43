"""The lint front end shared by ``cloudbench lint`` and ``python -m repro.analysis``.

Exit codes: 0 for a clean tree, 1 when findings survive suppression, 2
for usage errors (argparse's convention).  Output is byte-identical
across runs of the same tree — the property the CI gate diffs on.
"""

from __future__ import annotations

import argparse
from typing import Callable, List, Optional, Sequence

from repro.analysis.engine import LintEngine, collect_targets
from repro.analysis.findings import Finding
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import all_rules, rule_catalogue
from repro.analysis.speclint import SPEC_RULES, lint_spec_file
from repro.errors import ConfigurationError

__all__ = ["DEFAULT_TARGETS", "build_parser", "execute", "lint_paths", "run"]

#: What ``cloudbench lint`` lints when no path is given.
DEFAULT_TARGETS = (".",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudbench lint",
        description=(
            "Static determinism analysis: AST rules (DET) over Python sources plus "
            "ServiceSpec/ScenarioSpec document checks (SPEC).  Directories are walked "
            "recursively; .py files are rule-checked and .toml/.json files under a "
            "'specs' directory are spec-linted."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_TARGETS),
        help="files or directories to lint (default: the current directory)",
    )
    parser.add_argument(
        "--specs",
        action="append",
        default=[],
        metavar="FILE",
        help="additionally lint this ServiceSpec/ScenarioSpec TOML/JSON document (repeatable)",
    )
    parser.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the findings as a canonical JSON document instead of text",
    )
    parser.add_argument(
        "--list-rules",
        dest="list_rules",
        action="store_true",
        help="print every rule id and title, then exit",
    )
    return parser


def lint_paths(paths: Sequence[str], spec_paths: Sequence[str] = ()) -> "LintRun":
    """Lint files/directories plus explicit spec documents; no I/O to stdout."""
    python_files, spec_files = collect_targets(paths)
    spec_files = list(spec_files) + [path for path in spec_paths if path not in spec_files]
    engine = LintEngine(all_rules())
    findings: List[Finding] = list(engine.lint_files(python_files))
    for spec_file in spec_files:
        findings.extend(lint_spec_file(spec_file))
    return LintRun(
        findings=sorted(set(findings)),
        files_linted=len(python_files) + len(spec_files),
    )


class LintRun:
    """The outcome of one lint invocation."""

    def __init__(self, findings: List[Finding], files_linted: int) -> None:
        self.findings = findings
        self.files_linted = files_linted

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self, *, as_json: bool = False) -> str:
        if as_json:
            return render_json(self.findings, files_linted=self.files_linted)
        return render_text(self.findings, files_linted=self.files_linted)


def execute(
    paths: Sequence[str],
    specs: Sequence[str],
    *,
    as_json: bool = False,
    list_rules: bool = False,
    error: Callable[[str], None],
) -> int:
    """Run one lint invocation and print its report; returns the exit code.

    Shared by ``python -m repro.analysis`` and ``cloudbench lint`` —
    ``error`` is the host parser's ``.error`` (prints usage and exits 2).
    """
    if list_rules:
        catalogue = dict(rule_catalogue())
        catalogue.update(SPEC_RULES)
        for rule_id in sorted(catalogue):
            print(f"{rule_id}  {catalogue[rule_id]}")
        return 0
    try:
        outcome = lint_paths(paths, specs)
    except ConfigurationError as failure:
        error(str(failure))
        return 2  # unreachable with argparse's .error, which raises SystemExit
    output = outcome.render(as_json=as_json)
    print(output, end="" if output.endswith("\n") else "\n")
    return 0 if outcome.clean else 1


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return execute(
        args.paths,
        args.specs,
        as_json=args.as_json,
        list_rules=args.list_rules,
        error=parser.error,
    )

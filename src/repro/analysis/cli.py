"""The lint front end behind ``cloudbench lint``.

Exit codes: 0 for a clean tree, 1 when findings survive suppression, 2
for usage errors (argparse's convention).  Output is byte-identical
across runs of the same tree — the property the CI gate diffs on.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.analysis.engine import LintEngine, collect_targets
from repro.analysis.findings import Finding
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import all_rules, rule_catalogue
from repro.analysis.speclint import SPEC_RULES, lint_spec_file
from repro.errors import ConfigurationError

__all__ = ["execute", "lint_paths"]


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

    ``error`` is ``cloudbench``'s parser ``.error`` (prints usage and
    exits 2).
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

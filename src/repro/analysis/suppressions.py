"""Inline lint suppressions: ``# repro: disable=DET001``.

A finding is deliberate sometimes — a test that *wants* a wall clock to
age a lease file, say.  Rather than an out-of-band baseline file, the
suppression lives on the offending line where a reviewer sees it::

    old = time.time() - 300.0  # repro: disable=DET003

Whole-file suppressions (for e.g. a fixture directory of intentionally
bad snippets) use ``disable-file`` on any line of the file::

    # repro: disable-file=DET001,DET004

Matching is purely textual on the physical line, so a suppression inside
a string literal also counts; that keeps the scanner trivial and the
failure mode (an unintended suppression) visible in review rather than
silent.
"""

from __future__ import annotations

import re
from typing import FrozenSet, Mapping

from repro.analysis.findings import Finding

__all__ = ["SuppressionIndex", "scan_suppressions"]

#: ``# repro: disable=RULE1,RULE2`` (same line) / ``disable-file=...`` (whole file).
_SUPPRESS = re.compile(r"#\s*repro:\s*disable(?P<scope>-file)?\s*=\s*(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)")


class SuppressionIndex:
    """The suppression comments of one file, queryable per finding."""

    def __init__(self, line_rules: Mapping[int, FrozenSet[str]], file_rules: FrozenSet[str]) -> None:
        self._line_rules = dict(line_rules)
        self._file_rules = file_rules

    def suppresses(self, finding: Finding) -> bool:
        """Whether this file's comments silence the given finding."""
        if finding.rule in self._file_rules:
            return True
        return finding.rule in self._line_rules.get(finding.line, frozenset())


def scan_suppressions(text: str) -> SuppressionIndex:
    """Build the :class:`SuppressionIndex` of one source file's text."""
    line_rules = {}
    file_rules = set()
    for number, line in enumerate(text.splitlines(), start=1):
        for match in _SUPPRESS.finditer(line):
            rules = frozenset(rule.strip() for rule in match.group("rules").split(","))
            if match.group("scope"):
                file_rules.update(rules)
            else:
                line_rules[number] = line_rules.get(number, frozenset()) | rules
    return SuppressionIndex(line_rules, frozenset(file_rules))

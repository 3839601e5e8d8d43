"""The rule registry: every built-in rule, addressable by id.

Rules register by being listed here; :func:`all_rules` returns fresh
instances in rule-id order, which is also the order the engine runs them
in (not that order matters — findings are globally sorted — but a
deterministic registry keeps ``--list-rules`` output stable).
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.analysis.engine import Rule
from repro.analysis.rules.det import (
    GlobalRandomRule,
    ImplicitJsonKeyOrderRule,
    NumpyGlobalRandomRule,
    SetIterationRule,
    UnsortedEnumerationRule,
    WallClockRule,
)

__all__ = ["RULE_CLASSES", "all_rules", "rule_catalogue"]

RULE_CLASSES: List[Type[Rule]] = [
    UnsortedEnumerationRule,
    GlobalRandomRule,
    WallClockRule,
    ImplicitJsonKeyOrderRule,
    SetIterationRule,
    NumpyGlobalRandomRule,
]


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by rule id."""
    return sorted((cls() for cls in RULE_CLASSES), key=lambda rule: rule.rule_id)


def rule_catalogue() -> Dict[str, str]:
    """``{rule_id: title}`` for listings and documentation."""
    return {rule.rule_id: rule.title for rule in all_rules()}

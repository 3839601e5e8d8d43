"""The lint engine: parse sources once, run every rule, report in order.

The engine is deliberately minimal: a :class:`SourceModule` wraps one
parsed file (text + AST with parent links), a :class:`Rule` contributes
findings per module (:meth:`Rule.check_module`), and :class:`LintEngine`
glues them together: collect, suppress, sort.

Everything here obeys the determinism discipline the rules enforce
elsewhere: directory walks are sorted, findings are reported in the
total order of :class:`~repro.analysis.findings.Finding`, and no output
depends on wall clocks, hashes of ids, or argument order.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.suppressions import SuppressionIndex, scan_suppressions
from repro.errors import ConfigurationError

__all__ = [
    "PARSE_ERROR_RULE",
    "SourceModule",
    "Rule",
    "LintEngine",
    "collect_targets",
    "iter_parents",
]

#: Rule id attached to files the engine cannot read or parse at all.
PARSE_ERROR_RULE = "ENG001"

#: Directory names never descended into when walking lint targets.
_SKIPPED_DIRS = ("__pycache__",)

#: Spec-document extensions (linted by :mod:`repro.analysis.speclint`).
_SPEC_EXTENSIONS = (".toml", ".json")

#: Directory name marking spec documents during a *recursive* walk.  Only
#: ``.toml``/``.json`` files living under a ``specs`` directory are treated
#: as spec documents (``examples/specs/``, ``repro/services/specs/``);
#: other JSON in the tree — golden fixtures, result documents — is not a
#: spec and must not be linted as one.  Files named directly on the
#: command line (or via ``--specs``) are always taken at their word.
_SPEC_DIR_MARKER = "specs"


def _display_path(path: str) -> str:
    """Normalize a path for reports: platform separators become ``/``."""
    return os.path.normpath(path).replace(os.sep, "/")


def _annotate_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._repro_parent = node  # type: ignore[attr-defined]


def iter_parents(node: ast.AST) -> Iterable[ast.AST]:
    """The chain of ancestors of a node, nearest first."""
    current = getattr(node, "_repro_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "_repro_parent", None)


class SourceModule:
    """One Python source file: text, AST (with parent links), suppressions."""

    def __init__(self, path: str, text: str) -> None:
        self.path = _display_path(path)
        self.text = text
        self.suppressions: SuppressionIndex = scan_suppressions(text)
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[Finding] = None
        try:
            self.tree = ast.parse(text)
        except SyntaxError as error:
            self.parse_error = Finding(
                path=self.path,
                line=error.lineno or 0,
                column=(error.offset or 1) - 1,
                rule=PARSE_ERROR_RULE,
                message=f"cannot parse file: {error.msg}",
            )
        if self.tree is not None:
            _annotate_parents(self.tree)

    @classmethod
    def from_file(cls, path: str) -> "SourceModule":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as error:
            module = cls.__new__(cls)
            module.path = _display_path(path)
            module.text = ""
            module.suppressions = scan_suppressions("")
            module.tree = None
            module.parse_error = Finding(
                path=module.path, line=0, column=0, rule=PARSE_ERROR_RULE,
                message=f"cannot read file: {error}",
            )
            return module
        return cls(path, text)

    def walk(self) -> Iterable[ast.AST]:
        """Every AST node of the module (empty if the file did not parse)."""
        return ast.walk(self.tree) if self.tree is not None else ()

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """A finding anchored at an AST node of this module."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            column=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


class Rule:
    """Base class of one lint rule.

    Subclasses set ``rule_id`` and ``title`` and override
    :meth:`check_module`.  ``allowlist`` is a tuple of ``/``-separated path
    suffixes the rule never fires in — the sanctioned homes of otherwise
    forbidden constructs (e.g. the TTL wall clocks of the claim board).
    """

    rule_id: str = ""
    title: str = ""
    allowlist: Tuple[str, ...] = ()

    def exempt(self, module: SourceModule) -> bool:
        """Whether the module is on this rule's path allowlist."""
        return any(module.path.endswith(suffix) for suffix in self.allowlist)

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        """Per-module findings; default none."""
        return ()


class LintEngine:
    """Run a rule set over a set of Python files, deterministically."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules = sorted(rules, key=lambda rule: rule.rule_id)

    def lint_modules(self, modules: Sequence[SourceModule]) -> List[Finding]:
        """All surviving findings of the rule set, in canonical order."""
        findings: List[Finding] = []
        by_path = {module.path: module for module in modules}
        for module in modules:
            if module.parse_error is not None:
                findings.append(module.parse_error)
                continue
            for rule in self.rules:
                if rule.exempt(module):
                    continue
                findings.extend(rule.check_module(module))
        kept = [
            finding
            for finding in findings
            if finding.path not in by_path or not by_path[finding.path].suppressions.suppresses(finding)
        ]
        return sorted(set(kept))

    def lint_files(self, paths: Sequence[str]) -> List[Finding]:
        """Lint the given Python files (convenience over :meth:`lint_modules`)."""
        modules = [SourceModule.from_file(path) for path in paths]
        return self.lint_modules(modules)


def collect_targets(paths: Sequence[str]) -> Tuple[List[str], List[str]]:
    """Split lint targets into (python files, spec documents).

    Directories are walked recursively in sorted order, skipping hidden
    entries and ``__pycache__``; ``.py`` files are Python targets and
    ``.toml``/``.json`` files under a ``specs`` directory are spec
    documents.  Files named directly are classified by extension alone.
    Raises :class:`~repro.errors.ConfigurationError` for a path that is
    neither an existing file nor a directory.
    """
    python_files: List[str] = []
    spec_files: List[str] = []
    for target in paths:
        if os.path.isdir(target):
            for dirpath, dirnames, filenames in os.walk(target):
                dirnames[:] = sorted(
                    name for name in dirnames if not name.startswith(".") and name not in _SKIPPED_DIRS
                )
                parts = _display_path(dirpath).split("/")
                for filename in sorted(filenames):
                    full = os.path.join(dirpath, filename)
                    if filename.endswith(".py"):
                        python_files.append(full)
                    elif filename.endswith(_SPEC_EXTENSIONS) and _SPEC_DIR_MARKER in parts:
                        spec_files.append(full)
        elif os.path.isfile(target):
            if target.endswith(".py"):
                python_files.append(target)
            elif target.endswith(_SPEC_EXTENSIONS):
                spec_files.append(target)
            else:
                raise ConfigurationError(
                    f"cannot lint {target!r}: not a Python source or .toml/.json spec document"
                )
        else:
            raise ConfigurationError(f"cannot lint {target!r}: no such file or directory")
    return python_files, spec_files

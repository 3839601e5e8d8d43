"""DET rules: nondeterminism hazards in Python sources.

Every result surface of this repository — cache keys, results documents,
sweep documents, shard+merge output — is contractually byte-identical
across ``--jobs N``, seed order and worker topology.  These rules catch
the constructs that historically break that contract *before* they
corrupt a store:

* **DET001** — unsorted directory/glob enumeration (``os.listdir``,
  ``os.scandir``, ``glob.glob``/``iglob``, ``Path.iterdir``/``glob``/
  ``rglob``) used anywhere but directly inside ``sorted(...)``.
  Filesystem enumeration order is whatever the kernel feels like; any
  consumer that iterates it feeds that order into the program.
* **DET002** — the module-level :mod:`random` API (``random.random()``,
  ``random.seed``, ``from random import choice`` ...) anywhere outside
  :mod:`repro.randomness`.  The global RNG is shared mutable state whose
  stream depends on call order across the whole process; all sanctioned
  randomness flows through explicitly seeded ``random.Random`` instances
  from :func:`repro.randomness.make_rng`.
* **DET003** — wall clocks (``time.time()``, ``datetime.now()``/
  ``utcnow()``/``today()``) outside the four allowlisted homes: the
  claim lease board (:mod:`repro.dist.claims`, heartbeat ages),
  the store's TTL GC (:mod:`repro.core.store`), the benchmark
  harness's environment block (:mod:`repro.perf.environment`, the run
  timestamp of a ``BENCH`` document) and the tracer's wall-domain
  context stamp (:mod:`repro.obs.wallclock` — the *stripped* half of a
  flight record).  Monotonic timing
  (``time.perf_counter``/``time.monotonic``) is fine — it feeds the
  run-specific timings record, never the deterministic documents.
* **DET004** — ``json.dumps``/``json.dump`` without an explicit
  ``sort_keys`` argument.  Canonical writers must make their key-order
  contract visible: ``sort_keys=True`` for content-addressed material,
  or an explicit ``sort_keys=False`` where insertion order *is* the
  pinned canonical order (the results documents, whose bytes golden
  fixtures pin).
* **DET005** — iterating a set expression (a set literal, ``set(...)``
  call or set comprehension) in a ``for`` statement or comprehension
  without sorting it first.  Set iteration order depends on insertion
  history and — for strings — on ``PYTHONHASHSEED``.  Membership tests
  (``x in {...}``) are order-free and not flagged.
* **DET006** — numpy's module-level random API (``np.random.seed``,
  ``np.random.rand`` ...), the exact numpy analogue of DET002: those
  functions all share one hidden global ``RandomState`` whose stream
  depends on call order across the process.  Instance-based constructs
  (``default_rng``, ``Generator``, ``RandomState(seed)``, the bit
  generators, ``SeedSequence``) are explicitly seeded and stay legal.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.engine import Rule, SourceModule, iter_parents
from repro.analysis.findings import Finding

__all__ = [
    "UnsortedEnumerationRule",
    "GlobalRandomRule",
    "WallClockRule",
    "ImplicitJsonKeyOrderRule",
    "SetIterationRule",
    "NumpyGlobalRandomRule",
]

#: Enumeration attributes, on any object: the os, glob and pathlib APIs.
_ENUMERATORS = {"listdir", "scandir", "iterdir", "glob", "iglob", "rglob"}


def _attribute_pair(func: ast.AST):
    """``(value-name, attr)`` of a ``name.attr`` expression, else ``None``."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr)
    return None


def _is_sorted_argument(node: ast.AST) -> bool:
    """Whether ``node`` is directly an argument of a ``sorted(...)`` call."""
    for parent in iter_parents(node):
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name) and parent.func.id == "sorted":
            return node in parent.args
        return False
    return False


class UnsortedEnumerationRule(Rule):
    rule_id = "DET001"
    title = "unsorted directory/glob enumeration"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Attribute) and node.func.attr in _ENUMERATORS):
                continue
            if _is_sorted_argument(node):
                continue
            label = node.func.attr
            yield module.finding(
                node,
                self.rule_id,
                f"unsorted {label}() enumeration: filesystem order leaks into iteration; wrap in sorted(...)",
            )


class GlobalRandomRule(Rule):
    rule_id = "DET002"
    title = "module-level random API"
    allowlist = ("repro/randomness.py",)

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node in module.walk():
            if isinstance(node, ast.Attribute):
                pair = _attribute_pair(node)
                if pair is not None and pair[0] == "random" and pair[1] != "Random":
                    yield module.finding(
                        node,
                        self.rule_id,
                        f"module-level random.{pair[1]}: use an explicitly seeded rng "
                        "from repro.randomness.make_rng instead of the shared global stream",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                names = sorted(alias.name for alias in node.names if alias.name != "Random")
                if names:
                    yield module.finding(
                        node,
                        self.rule_id,
                        f"from random import {', '.join(names)}: only random.Random may be imported; "
                        "use repro.randomness.make_rng for seeded streams",
                    )


class WallClockRule(Rule):
    rule_id = "DET003"
    title = "wall clock in a deterministic path"
    allowlist = (
        "repro/dist/claims.py",
        "repro/core/store.py",
        "repro/perf/environment.py",
        "repro/obs/wallclock.py",
    )

    def _is_wall_clock(self, func: ast.AST) -> bool:
        pair = _attribute_pair(func)
        if pair == ("time", "time"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in ("now", "utcnow", "today"):
            if isinstance(func.value, ast.Name) and func.value.id in ("datetime", "date"):
                return True
            inner = _attribute_pair(func.value)
            return inner is not None and inner[1] in ("datetime", "date")
        return False

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node in module.walk():
            if isinstance(node, ast.Call) and self._is_wall_clock(node.func):
                yield module.finding(
                    node,
                    self.rule_id,
                    "wall clock in a deterministic path: cell payloads and documents must be "
                    "pure functions of (plan, seed, config); clocks live only in lease ages "
                    "and store TTLs",
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                if any(alias.name == "time" for alias in node.names):
                    yield module.finding(
                        node,
                        self.rule_id,
                        "from time import time: keep the module prefix so wall-clock use stays greppable",
                    )


class ImplicitJsonKeyOrderRule(Rule):
    rule_id = "DET004"
    title = "json.dumps without explicit key ordering"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            pair = _attribute_pair(node.func)
            if pair not in (("json", "dumps"), ("json", "dump")):
                continue
            if any(keyword.arg == "sort_keys" for keyword in node.keywords):
                continue
            yield module.finding(
                node,
                self.rule_id,
                f"json.{pair[1]} without an explicit sort_keys argument: state the key-order "
                "contract (sort_keys=True, or sort_keys=False where insertion order is the "
                "pinned canonical order)",
            )


class NumpyGlobalRandomRule(Rule):
    rule_id = "DET006"
    title = "numpy module-level random API"

    #: Instance-based (explicitly seeded) constructs; everything else on
    #: ``numpy.random`` is an alias into the hidden global ``RandomState``.
    _INSTANCE_BASED = {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node in module.walk():
            if isinstance(node, ast.Attribute):
                inner = _attribute_pair(node.value)
                if (
                    inner is not None
                    and inner[0] in ("np", "numpy")
                    and inner[1] == "random"
                    and node.attr not in self._INSTANCE_BASED
                ):
                    yield module.finding(
                        node,
                        self.rule_id,
                        f"{inner[0]}.random.{node.attr}: numpy's module-level random API shares "
                        "one hidden global RandomState; use an explicitly seeded generator "
                        "(numpy.random.default_rng or a bit generator) instead",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                names = sorted(
                    alias.name for alias in node.names if alias.name not in self._INSTANCE_BASED
                )
                if names:
                    yield module.finding(
                        node,
                        self.rule_id,
                        f"from numpy.random import {', '.join(names)}: only the instance-based "
                        "constructs (default_rng, Generator, the bit generators) may be imported; "
                        "the module-level functions share the hidden global stream",
                    )


class SetIterationRule(Rule):
    rule_id = "DET005"
    title = "iteration over a set expression"

    @staticmethod
    def _is_set_expression(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "set"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        iters: List[ast.AST] = []
        for node in module.walk():
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, ast.comprehension):
                iters.append(node.iter)
        for target in iters:
            if self._is_set_expression(target):
                yield module.finding(
                    target,
                    self.rule_id,
                    "iterating a set: element order depends on insertion history and hash "
                    "seed; sort it (or iterate a list/dict, which preserve order)",
                )

"""The import surface: the lazy ``repro`` front door and what fresh processes load.

Every ``cloudbench`` process, shard runner and benchmark set-up imports
only the layers its stages run.  The subprocess tests pin that: a fresh
interpreter runs one cell (or ``--help``) and reports which ``repro``
modules it imported.  An AST pass holds every module-level import of
``src/repro`` to a name its module reads.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import pytest

import repro

#: The checkout's ``src`` directory, for fresh interpreters.
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Prints the ``repro`` modules a fresh interpreter has imported, as JSON.
_REPORT = 'print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro"))))'

#: Runs one cell of the campaign named by argv[1:] (stage, service) and
#: prints the imported ``repro`` modules as JSON.
_ONE_CELL = """
import json, sys
from repro.core.campaign import CampaignConfig, CampaignRunner, run_cell
stage, service = sys.argv[1:]
config = CampaignConfig(repetitions=1, load_populations=(1_000,))
cell = CampaignRunner([service], [stage], seed=7, jobs=1, config=config).cells()[0]
assert run_cell(cell).failure is None
""" + _REPORT

_HELP = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--help"])
    except SystemExit:
        pass
""" + _REPORT


def imported_modules(script: str, *argv: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, check=True, timeout=120
    )
    return json.loads(completed.stdout.splitlines()[-1])


def under(modules: list, packages) -> list:
    """The ``modules`` that are one of ``packages`` or inside one."""
    return [name for name in modules if any(name == top or name.startswith(top + ".") for top in packages)]


class TestFrontDoor:
    @pytest.mark.parametrize("name", repro.__all__)
    def test_every_documented_name_resolves(self, name):
        namespace: dict = {}
        exec(f"from repro import {name}", namespace)
        assert namespace[name] is getattr(repro, name)
        assert name in dir(repro)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(repro, "no_such_name")
        with pytest.raises(ImportError):
            exec("from repro import no_such_name", {})

    def test_import_repro_loads_no_subpackage(self):
        assert imported_modules("import json, sys, repro\n" + _REPORT) == ["repro"]


class TestFreshProcessImports:
    def test_load_cell_imports_only_the_load_layers(self):
        modules = imported_modules(_ONE_CELL, "load", "dropbox")
        assert "repro.load.population" in modules
        assert under(
            modules,
            (
                "repro.testbed",
                "repro.capture",
                "repro.filegen",
                "repro.core.experiments",
                "repro.core.capabilities",
                "repro.services.base",
                "repro.netsim.simulator",
                "repro.sync.delta",
                "repro.geo.discovery",
                "repro.dist",
                "repro.perf",
                "repro.analysis",
            ),
        ) == []

    def test_performance_cell_imports_no_other_stage(self):
        modules = imported_modules(_ONE_CELL, "performance", "dropbox")
        assert "repro.core.experiments.performance" in modules
        assert under(
            modules,
            (
                "repro.load",
                "repro.geo.discovery",
                "repro.core.capabilities",
                "repro.dist",
                "repro.perf",
                "repro.analysis",
            ),
        ) == []

    def test_cli_help_imports_no_layer_it_does_not_run(self):
        modules = imported_modules(_HELP)
        assert "repro.cli" in modules
        assert under(modules, ("repro.core.experiments", "repro.testbed", "repro.dist", "repro.perf")) == []


def test_shard_help_states_the_lease_timeout_default(capsys):
    from repro.cli import main
    from repro.dist import DEFAULT_LEASE_TIMEOUT

    with pytest.raises(SystemExit):
        main(["shard", "--help"])
    assert f"(default: {DEFAULT_LEASE_TIMEOUT:g})" in " ".join(capsys.readouterr().out.split())


def _read_names(tree: ast.Module) -> set:
    """Names a module reads: loaded names, names in string annotations and in ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs + [arguments.vararg, arguments.kwarg]
            annotations += [argument.annotation for argument in every if argument is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] string, not a name
                    continue
                names |= {name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            names |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return names


def _module_level_imports(body: list):
    """``(line, bound name)`` of every import at module level, ``if``/``try`` blocks included."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _module_level_imports(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                yield from _module_level_imports(handler.body)


def test_every_module_level_import_is_read_in_its_module():
    package = os.path.join(SRC_DIR, "repro")
    unread = []
    for directory, subdirectories, filenames in os.walk(package):
        subdirectories.sort()
        for filename in sorted(name for name in filenames if name.endswith(".py")):
            path = os.path.join(directory, filename)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            names = _read_names(tree)
            unread += [
                f"{os.path.relpath(path, SRC_DIR)}:{line}: {name}"
                for line, name in _module_level_imports(tree.body)
                if name not in names
            ]
    assert unread == []

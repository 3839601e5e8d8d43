"""Tests for repro.analysis: the determinism lint engine and its rules.

Covers per-rule positive/negative fixture snippets, suppression-comment
handling, deterministic finding order, spec-document linting (the
built-in service specs and the example spec files must be clean), the
``cloudbench lint`` front door, and a self-clean assertion over the
repository tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import (
    Finding,
    LintEngine,
    SourceModule,
    all_rules,
    collect_targets,
    lint_paths,
    lint_spec_file,
    render_json,
    render_text,
    rule_catalogue,
    scan_suppressions,
)
from repro.analysis.engine import PARSE_ERROR_RULE
from repro.cli import main
from repro.errors import ConfigurationError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
BUILTIN_SPEC_DIR = os.path.join(SRC_DIR, "repro", "services", "specs")
EXAMPLE_SPEC_DIR = os.path.join(REPO_ROOT, "examples", "specs")


def lint_source(code, path="pkg/mod.py"):
    """Findings of one (dedented) source snippet under the full rule set."""
    return LintEngine(all_rules()).lint_modules([SourceModule(path, textwrap.dedent(code))])


def rule_ids(findings):
    return [finding.rule for finding in findings]


class TestUnsortedEnumeration:
    def test_bare_listdir_flagged(self):
        findings = lint_source("import os\nfor name in os.listdir(root):\n    print(name)\n")
        assert rule_ids(findings) == ["DET001"]
        assert findings[0].line == 2

    @pytest.mark.parametrize(
        "snippet",
        [
            "import os\nentries = os.scandir(root)\n",
            "import glob\nmatches = glob.glob(pattern)\n",
            "import glob\nmatches = glob.iglob(pattern)\n",
            "names = path.iterdir()\n",
            "names = path.rglob('*.py')\n",
            "names = base.joinpath('x').glob('*.json')\n",
        ],
    )
    def test_every_enumerator_flagged(self, snippet):
        assert rule_ids(lint_source(snippet)) == ["DET001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import os\nfor name in sorted(os.listdir(root)):\n    print(name)\n",
            "names = sorted(path.iterdir())\n",
            "import glob\nmatches = sorted(glob.glob(pattern), key=len)\n",
        ],
    )
    def test_sorted_wrapped_is_clean(self, snippet):
        assert lint_source(snippet) == []


class TestGlobalRandom:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nvalue = random.random()\n",
            "import random\nrandom.seed(7)\n",
            "import random\npick = random.choice(items)\n",
            "import random\nrng = random.SystemRandom()\n",
            "from random import choice\n",
        ],
    )
    def test_global_random_flagged(self, snippet):
        assert rule_ids(lint_source(snippet)) == ["DET002"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nrng = random.Random(7)\n",
            "from random import Random\n",
            "from repro.randomness import make_rng\nrng = make_rng(7, 'stage')\n",
        ],
    )
    def test_seeded_instances_are_clean(self, snippet):
        assert lint_source(snippet) == []

    def test_randomness_module_is_allowlisted(self):
        code = "import random\nvalue = random.getrandbits(64)\n"
        assert rule_ids(lint_source(code)) == ["DET002"]
        assert lint_source(code, path="src/repro/randomness.py") == []


class TestWallClock:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nstamp = time.time()\n",
            "from datetime import datetime\nnow = datetime.now()\n",
            "import datetime\nnow = datetime.datetime.now()\n",
            "from datetime import datetime\nnow = datetime.utcnow()\n",
            "from datetime import date\ntoday = date.today()\n",
            "from time import time\n",
        ],
    )
    def test_wall_clocks_flagged(self, snippet):
        assert rule_ids(lint_source(snippet)) == ["DET003"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nstarted = time.perf_counter()\n",
            "import time\ndeadline = time.monotonic() + 5\n",
            "import time\ntime.sleep(0.1)\n",
        ],
    )
    def test_monotonic_timing_is_clean(self, snippet):
        assert lint_source(snippet) == []

    @pytest.mark.parametrize(
        "path",
        ["src/repro/dist/claims.py", "src/repro/core/store.py", "src/repro/perf/environment.py"],
    )
    def test_lease_and_ttl_homes_are_allowlisted(self, path):
        code = "import time\nage = time.time() - mtime\n"
        assert lint_source(code, path=path) == []


class TestImplicitJsonKeyOrder:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import json\ntext = json.dumps(payload)\n",
            "import json\njson.dump(payload, handle)\n",
            "import json\ntext = json.dumps(payload, indent=2)\n",
        ],
    )
    def test_missing_sort_keys_flagged(self, snippet):
        assert rule_ids(lint_source(snippet)) == ["DET004"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import json\ntext = json.dumps(payload, sort_keys=True)\n",
            "import json\ntext = json.dumps(payload, indent=2, sort_keys=False)\n",
            "import json\npayload = json.loads(text)\n",
        ],
    )
    def test_explicit_contract_is_clean(self, snippet):
        assert lint_source(snippet) == []


class TestSetIteration:
    @pytest.mark.parametrize(
        "snippet",
        [
            "for item in {alpha, beta}:\n    print(item)\n",
            "for item in set(items):\n    print(item)\n",
            "values = [item for item in set(items)]\n",
            "values = {k: 1 for k in {alpha, beta}}\n",
        ],
    )
    def test_set_iteration_flagged(self, snippet):
        assert rule_ids(lint_source(snippet)) == ["DET005"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "for item in sorted(set(items)):\n    print(item)\n",
            "for item in items:\n    print(item)\n",
            "found = item in {alpha, beta}\n",
            "values = sorted({x for x in items})\n",
        ],
    )
    def test_sorted_or_membership_is_clean(self, snippet):
        assert lint_source(snippet) == []


class TestNumpyGlobalRandom:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import numpy as np\nnp.random.seed(7)\n",
            "import numpy as np\nnoise = np.random.rand(10)\n",
            "import numpy as np\npick = np.random.choice(items)\n",
            "import numpy\nnumpy.random.shuffle(values)\n",
            "from numpy.random import randint\n",
        ],
    )
    def test_numpy_global_random_flagged(self, snippet):
        assert rule_ids(lint_source(snippet)) == ["DET006"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import numpy as np\nrng = np.random.default_rng(7)\n",
            "import numpy as np\ngen = np.random.Generator(np.random.PCG64(7))\n",
            "from numpy.random import MT19937\n",
            "from numpy.random import default_rng\n",
        ],
    )
    def test_instance_based_constructs_are_clean(self, snippet):
        assert lint_source(snippet) == []


class TestSuppressions:
    def test_same_line_suppression_silences(self):
        code = "import time\nstamp = time.time()  # repro: disable=DET003\n"
        assert lint_source(code) == []

    def test_other_rule_does_not_silence(self):
        code = "import time\nstamp = time.time()  # repro: disable=DET001\n"
        assert rule_ids(lint_source(code)) == ["DET003"]

    def test_comma_list_silences_multiple_rules(self):
        code = (
            "import json, time\n"
            "row = json.dumps({'at': time.time()})  # repro: disable=DET003,DET004\n"
        )
        assert lint_source(code) == []

    def test_suppression_on_another_line_does_not_apply(self):
        code = "# repro: disable=DET003\nimport time\nstamp = time.time()\n"
        assert rule_ids(lint_source(code)) == ["DET003"]

    def test_file_level_suppression(self):
        code = (
            "# repro: disable-file=DET003\n"
            "import time\n"
            "first = time.time()\n"
            "second = time.time()\n"
        )
        assert lint_source(code) == []

    def test_scanner_indexes_lines_and_files(self):
        index = scan_suppressions("x = 1  # repro: disable=DET001\n# repro: disable-file=DET005\n")
        assert index.suppresses(Finding("f.py", 1, 0, "DET001", "m"))
        assert not index.suppresses(Finding("f.py", 2, 0, "DET001", "m"))
        assert index.suppresses(Finding("f.py", 9, 0, "DET005", "m"))


class TestDeterministicOrder:
    def test_findings_sorted_by_location_then_rule(self):
        code = "import os, time\nstamp = time.time()\nnames = os.listdir(root)\n"
        findings = lint_source(code)
        assert findings == sorted(findings)
        assert rule_ids(findings) == ["DET003", "DET001"]  # line order wins

    def test_module_order_does_not_matter(self):
        first = SourceModule("b/mod.py", "import time\nstamp = time.time()\n")
        second = SourceModule("a/mod.py", "import os\nnames = os.listdir(root)\n")
        engine = LintEngine(all_rules())
        assert engine.lint_modules([first, second]) == engine.lint_modules([second, first])

    def test_reporters_are_stable_bytes(self):
        findings = [
            Finding("b.py", 2, 0, "DET003", "clock"),
            Finding("a.py", 1, 4, "DET001", "walk"),
        ]
        text = render_text(findings, files_linted=2)
        assert text.splitlines()[0].startswith("a.py:1:4: DET001")
        assert text == render_text(list(reversed(findings)), files_linted=2)
        assert render_json(findings, files_linted=2) == render_json(list(reversed(findings)), files_linted=2)

    def test_render_text_summary_line(self):
        assert render_text([], files_linted=3) == "0 findings in 3 file(s) linted"


class TestEngineBasics:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n")
        assert rule_ids(findings) == [PARSE_ERROR_RULE]

    def test_collect_targets_classifies_and_skips(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "specs").mkdir()
        (tmp_path / "pkg" / "specs" / "fleet.toml").write_text("[[service]]\nname = 'x'\n")
        (tmp_path / "pkg" / "data").mkdir()
        (tmp_path / "pkg" / "data" / "golden.json").write_text("{}\n")
        (tmp_path / "pkg" / ".hidden").mkdir()
        (tmp_path / "pkg" / ".hidden" / "ghost.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
        python_files, spec_files = collect_targets([str(tmp_path)])
        assert [os.path.basename(path) for path in python_files] == ["mod.py"]
        assert [os.path.basename(path) for path in spec_files] == ["fleet.toml"]

    def test_direct_file_arguments_classified_by_extension(self, tmp_path):
        py = tmp_path / "one.py"
        py.write_text("x = 1\n")
        spec = tmp_path / "one.toml"
        spec.write_text("[[scenario]]\nname = 'x'\n")
        python_files, spec_files = collect_targets([str(py), str(spec)])
        assert python_files == [str(py)] and spec_files == [str(spec)]

    def test_missing_target_raises(self):
        with pytest.raises(ConfigurationError, match="no such file"):
            collect_targets(["definitely/not/here"])

    def test_unlintable_file_raises(self, tmp_path):
        other = tmp_path / "notes.txt"
        other.write_text("hello\n")
        with pytest.raises(ConfigurationError, match="not a Python source"):
            collect_targets([str(other)])

    def test_rule_catalogue_lists_every_rule(self):
        catalogue = rule_catalogue()
        assert sorted(catalogue) == [
            "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
        ]


def minimal_service(capabilities=None, **extras):
    """The smallest service document the loader accepts, plus overrides."""
    datacenter = {"provider": "dropbox", "site": "dropbox-sjc-control"}
    server = {"hostname": "node.example", "datacenter": datacenter}
    document = {
        "name": "fixture",
        "control_servers": [server],
        "storage_servers": [server],
    }
    if capabilities is not None:
        document["capabilities"] = capabilities
    document.update(extras)
    return document


class TestSpecLint:
    def write(self, tmp_path, payload):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(payload, sort_keys=True))
        return str(path)

    def test_builtin_service_specs_are_clean(self):
        names = ["clouddrive", "dropbox", "googledrive", "skydrive", "wuala"]
        for name in names:
            path = os.path.join(BUILTIN_SPEC_DIR, f"{name}.json")
            assert lint_spec_file(path) == [], name

    def test_example_spec_files_are_clean(self):
        for name in ["scenarios.toml", "synthetic.toml"]:
            path = os.path.join(EXAMPLE_SPEC_DIR, name)
            assert lint_spec_file(path) == [], name

    def test_unknown_service_field_flagged(self, tmp_path):
        path = self.write(tmp_path, {"service": [minimal_service(chunk_mode="big")]})
        findings = lint_spec_file(path)
        assert rule_ids(findings) == ["SPEC002"]
        assert "chunk_mode" in findings[0].message

    def test_unit_grammar_error_flagged(self, tmp_path):
        bad = minimal_service(capabilities={"chunking": "fixed", "chunk_size": "4 parsecs"})
        findings = lint_spec_file(self.write(tmp_path, {"service": [bad]}))
        assert rule_ids(findings) == ["SPEC002"]
        assert "4 parsecs" in findings[0].message

    def test_fixed_chunking_without_size_is_conflict(self, tmp_path):
        bad = minimal_service(capabilities={"chunking": "fixed"})
        findings = lint_spec_file(self.write(tmp_path, {"service": [bad]}))
        assert rule_ids(findings) == ["SPEC003"]
        assert "chunk_size" in findings[0].message

    def test_chunk_size_without_chunking_is_conflict(self, tmp_path):
        bad = minimal_service(capabilities={"chunk_size": "4MB"})
        findings = lint_spec_file(self.write(tmp_path, {"service": [bad]}))
        assert rule_ids(findings) == ["SPEC003"]

    def test_bundling_that_cannot_bundle_is_conflict(self, tmp_path):
        bad = minimal_service(capabilities={"bundling": True}, max_bundle_files=1)
        findings = lint_spec_file(self.write(tmp_path, {"service": [bad]}))
        assert rule_ids(findings) == ["SPEC003"]
        assert "max_bundle_files=1" in findings[0].message

    def test_unknown_scenario_field_flagged(self, tmp_path):
        path = self.write(tmp_path, {"scenario": [{"name": "x", "warp_speed": 9}]})
        findings = lint_spec_file(path)
        assert rule_ids(findings) == ["SPEC002"]
        assert "warp_speed" in findings[0].message

    def test_unknown_top_level_key_flagged(self, tmp_path):
        path = self.write(tmp_path, {"scenario": [{"name": "x"}], "wat": 1})
        findings = lint_spec_file(path)
        assert rule_ids(findings) == ["SPEC001"]
        assert "wat" in findings[0].message

    def test_empty_document_flagged(self, tmp_path):
        findings = lint_spec_file(self.write(tmp_path, {"nothing": True}))
        assert rule_ids(findings) == ["SPEC001"]

    def test_invalid_toml_flagged(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("[[service\nname = ???\n")
        findings = lint_spec_file(str(path))
        assert rule_ids(findings) == ["SPEC001"]

    def test_bare_scenario_table_classified(self, tmp_path):
        findings = lint_spec_file(self.write(tmp_path, {"name": "solo", "rtt_factor": 2.0}))
        assert findings == []

    def test_bare_service_table_classified(self, tmp_path):
        findings = lint_spec_file(self.write(tmp_path, minimal_service()))
        assert findings == []

    def test_mixed_document_lints_both_kinds(self, tmp_path):
        payload = {
            "service": [minimal_service(capabilities={"chunking": "fixed"})],
            "scenario": [{"name": "x", "warp_speed": 9}],
        }
        findings = lint_spec_file(self.write(tmp_path, payload))
        assert rule_ids(findings) == ["SPEC002", "SPEC003"]


class TestSelfClean:
    def test_repository_tree_is_clean(self):
        outcome = lint_paths(
            [SRC_DIR, os.path.join(REPO_ROOT, "tests"), EXAMPLE_SPEC_DIR]
        )
        assert outcome.findings == []
        assert outcome.files_linted > 100

    def test_store_and_report_fix_sites_stay_clean(self):
        # Regression for the satellite fixes: the wipe-all claim walk in
        # ResultStore.prune and the canonical JSON writer must never
        # reintroduce DET001/DET004.
        outcome = lint_paths(
            [
                os.path.join(SRC_DIR, "repro", "core", "store.py"),
                os.path.join(SRC_DIR, "repro", "core", "report.py"),
            ]
        )
        assert outcome.findings == []


class TestLintCli:
    def bad_tree(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "mod.py").write_text("import os\nnames = os.listdir(root)\n")
        return str(bad)

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_violation_exits_one_with_deterministic_output(self, tmp_path, capsys):
        target = self.bad_tree(tmp_path)
        assert main(["lint", target]) == 1
        first = capsys.readouterr().out
        assert main(["lint", target]) == 1
        second = capsys.readouterr().out
        assert first == second
        assert "DET001" in first and first.strip().endswith("1 finding in 1 file(s) linted")

    def test_json_report(self, tmp_path, capsys):
        target = self.bad_tree(tmp_path)
        assert main(["lint", "--json", target]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "DET001"

    def test_specs_flag_lints_documents(self, tmp_path, capsys):
        spec = tmp_path / "fleet.json"
        spec.write_text(json.dumps({"scenario": [{"name": "x", "warp_speed": 9}]}, sort_keys=True))
        (tmp_path / "code").mkdir()
        assert main(["lint", str(tmp_path / "code"), "--specs", str(spec)]) == 1
        assert "SPEC002" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET005", "SPEC001", "SPEC003"):
            assert rule_id in out

    def test_missing_target_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path / "nope")])
        assert excinfo.value.code == 2

    def test_unlintable_target_is_usage_error(self, tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_text("hello\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(notes)])
        assert excinfo.value.code == 2

    def test_defaults_to_the_current_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(self.bad_tree(tmp_path))
        assert main(["lint"]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_process_exit_code_is_the_report_code(self, tmp_path):
        # The one lint front door, run as a process: findings exit 1.
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", self.bad_tree(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 1, result.stderr
        assert result.stdout.strip().endswith("1 finding in 1 file(s) linted")

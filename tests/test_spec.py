"""Tests for the declarative ServiceSpec/ScenarioSpec API.

Covers the redesign's contract: canonical round-trips (spec → profile →
canonical dict → spec, byte for byte), spec fingerprints joining the
campaign cache keys (edits invalidate, equals hit), the registry's
idempotent/unregister/snapshot lifecycle, scenario warping with seeded
jitter, spec files (TOML + JSON, including the pre-3.11 TOML subset
reader), and the golden guarantee that the spec-backed built-ins reproduce
the pre-redesign campaign documents byte-identically.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.campaign import CampaignCell, CampaignConfig, CampaignRunner, results_document
from repro.core.store import ResultStore, cache_key
from repro.errors import ConfigurationError, UnknownServiceError
from repro.netsim.link import NetworkPath
from repro.netsim.scenario import (
    BASELINE,
    BUILTIN_SCENARIOS,
    ScenarioSpec,
    get_scenario,
    load_scenario_specs,
)
from repro.netsim.simulator import NetworkSimulator
from repro.services.base import CloudStorageClient
from repro.services.registry import (
    SERVICE_NAMES,
    create_client,
    get_profile,
    get_spec,
    install_registered_specs,
    register_service_spec,
    register_services_from_file,
    registered_services,
    registry_restore,
    registry_snapshot,
    registry_sync_payload,
    spec_fingerprint,
    temporary_services,
    unregister_service,
)
from repro.services.spec import ServiceSpec, builtin_spec, builtin_spec_path, load_service_specs
from repro.specio import canonical_json, loads_toml
from repro.units import parse_rate, parse_size

BUILTIN_NAMES = ("dropbox", "skydrive", "wuala", "clouddrive", "googledrive")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

SYNTH_TOML = """
[[service]]
name = "tomldrive"
display_name = "TOML Drive"

[service.capabilities]
chunking = "fixed"
chunk_size = "8MB"
compression = "smart"

[[service.control_servers]]
hostname = "api.tomldrive.example"
rate_up = "20Mbps"
rate_down = "50Mbps"
[service.control_servers.datacenter]
provider = "clouddrive"
site = "aws-eu-west-1"

[[service.storage_servers]]
hostname = "blocks.tomldrive.example"
rate_up = "25Mbps"
[service.storage_servers.datacenter]
provider = "clouddrive"
site = "aws-eu-west-1"

[service.polling]
interval = 90.0
"""


@pytest.fixture()
def clean_registry():
    snapshot = registry_snapshot()
    yield
    registry_restore(snapshot)


def synthetic_spec(**overrides) -> ServiceSpec:
    raw = {
        "name": "synthtest",
        "display_name": "Synth Test",
        "capabilities": {"chunking": "fixed", "chunk_size": "8MB", "compression": "smart"},
        "control_servers": [
            {
                "hostname": "api.synthtest.example",
                "rate_up": "20Mbps",
                "rate_down": "50Mbps",
                "datacenter": {"provider": "clouddrive", "site": "aws-eu-west-1"},
            }
        ],
        "storage_servers": [
            {
                "hostname": "blocks.synthtest.example",
                "rate_up": "25Mbps",
                "rate_down": "60Mbps",
                "datacenter": {"provider": "clouddrive", "site": "aws-eu-west-1"},
            }
        ],
        "polling": {"interval": 90.0},
    }
    raw.update(overrides)
    return ServiceSpec.from_dict(raw)


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_spec_profile_spec_byte_identical(self, name):
        spec = builtin_spec(name)
        rebuilt = ServiceSpec.from_profile(spec.build_profile())
        assert rebuilt.canonical_json() == spec.canonical_json()
        assert rebuilt.fingerprint() == spec.fingerprint()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_spec_file_is_canonical(self, name):
        with open(builtin_spec_path(name), "r", encoding="utf-8") as handle:
            on_disk = json.load(handle)
        assert canonical_json(on_disk) == builtin_spec(name).canonical_json()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_registry_profile_matches_spec_file(self, name):
        assert get_profile(name) == builtin_spec(name).build_profile()
        assert spec_fingerprint(name) == builtin_spec(name).fingerprint()

    def test_alias_spellings_canonicalize_identically(self):
        terse = synthetic_spec()
        verbose = synthetic_spec(
            capabilities={"chunking": "fixed", "chunk_size": 8_000_000, "compression": "smart"},
        )
        assert terse.canonical_json() == verbose.canonical_json()
        assert terse.fingerprint() == verbose.fingerprint()

    def test_content_edit_changes_fingerprint(self):
        base = synthetic_spec()
        edited = synthetic_spec(polling={"interval": 45.0})
        assert base.fingerprint() != edited.fingerprint()

    def test_synthetic_profile_round_trips(self):
        spec = synthetic_spec()
        profile = spec.build_profile()
        assert ServiceSpec.from_profile(profile).to_dict() == spec.to_dict()
        # And the profile itself survives a spec round-trip intact.
        assert ServiceSpec.from_profile(profile).build_profile() == profile

    def test_inline_datacenter_round_trips(self):
        spec = synthetic_spec(
            storage_servers=[
                {
                    "hostname": "blocks.synthtest.example",
                    "datacenter": {
                        "provider": "synthtest",
                        "name": "synthtest-ams",
                        "city": "Amsterdam",
                        "owner": "Synth BV",
                        "ip_prefix": "203.0.113",
                        "roles": ["control", "storage"],
                    },
                }
            ]
        )
        profile = spec.build_profile()
        assert profile.storage_servers[0].datacenter.location.city == "Amsterdam"
        assert ServiceSpec.from_profile(profile).to_dict() == spec.to_dict()

    def test_nearest_edge_placement_matches_googledrive(self):
        spec = synthetic_spec(
            storage_servers=[
                {"hostname": "edge.synthtest.example", "datacenter": {"nearest_edge": True}}
            ]
        )
        edge = spec.build_profile().storage_servers[0].datacenter
        assert edge == get_profile("googledrive").primary_storage.datacenter

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            synthetic_spec(bogus_field=1)
        with pytest.raises(ConfigurationError):
            synthetic_spec(capabilities={"chunking": "fixed", "warp_drive": True})

    def test_missing_servers_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceSpec.from_dict({"name": "empty"})


class TestSpecFiles:
    def test_load_toml_services(self, tmp_path):
        path = tmp_path / "services.toml"
        path.write_text(SYNTH_TOML)
        specs = load_service_specs(str(path))
        assert [spec.name for spec in specs] == ["tomldrive"]
        profile = specs[0].build_profile()
        assert profile.capabilities.chunk_size == 8_000_000
        assert profile.primary_control.rate_up_bps == 20_000_000.0

    def test_load_json_services(self, tmp_path):
        path = tmp_path / "services.json"
        path.write_text(json.dumps({"service": [synthetic_spec().to_dict()]}, sort_keys=True))
        specs = load_service_specs(str(path))
        assert specs[0].canonical_json() == synthetic_spec().canonical_json()

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        doc = synthetic_spec().to_dict()
        path.write_text(json.dumps({"service": [doc, doc]}, sort_keys=True))
        with pytest.raises(ConfigurationError):
            load_service_specs(str(path))

    def test_unsupported_extension_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: nope")
        with pytest.raises(ConfigurationError):
            load_service_specs(str(path))

    def test_minitoml_matches_tomllib(self):
        from repro.specio import _MiniToml

        mini = _MiniToml(SYNTH_TOML, "<test>").parse()
        assert mini == loads_toml(SYNTH_TOML)

    def test_minitoml_values_and_arrays(self):
        from repro.specio import _MiniToml

        text = '\n'.join(
            [
                'title = "spec" # trailing comment',
                'count = 25_000',
                'ratio = 0.5',
                'flag = true',
                'other = false',
                'names = ["a", "b"]',
                'mixed = [1, 2.5]',
                '[table.sub]',
                'key = "value"',
            ]
        )
        parsed = _MiniToml(text, "<test>").parse()
        assert parsed["title"] == "spec"
        assert parsed["count"] == 25_000 and isinstance(parsed["count"], int)
        assert parsed["ratio"] == 0.5 and parsed["flag"] is True and parsed["other"] is False
        assert parsed["names"] == ["a", "b"] and parsed["mixed"] == [1, 2.5]
        assert parsed["table"]["sub"]["key"] == "value"

    def test_minitoml_errors(self):
        from repro.specio import _MiniToml

        for bad in ("just words", "[unclosed", 'key = "unterminated', "a = 1\na = 2"):
            with pytest.raises(ConfigurationError):
                _MiniToml(bad, "<test>").parse()

    def test_example_spec_files_load(self):
        root = os.path.join(os.path.dirname(__file__), "..", "examples", "specs")
        services = load_service_specs(os.path.join(root, "synthetic.toml"))
        assert {spec.name for spec in services} == {"bundleless-dropbox", "nimbusdrive", "synthdrive"}
        scenarios = load_scenario_specs(os.path.join(root, "scenarios.toml"))
        assert {spec.name for spec in scenarios} == {"conference-wifi", "transatlantic-office"}

    def test_bundleless_dropbox_is_dropbox_without_bundling(self):
        # The what-if isolates bundling only if nothing else differs:
        # hostnames key the per-path RTT jitter, and the notification
        # channel, subscription and bundle timer all shape start-up.
        root = os.path.join(os.path.dirname(__file__), "..", "examples", "specs")
        specs = {spec.name: spec for spec in load_service_specs(os.path.join(root, "synthetic.toml"))}
        variant, dropbox = specs["bundleless-dropbox"].to_dict(), builtin_spec("dropbox").to_dict()
        assert dropbox["capabilities"].pop("bundling") is True
        assert "bundling" not in variant["capabilities"]  # False is the default, so canonical form omits it
        for document in (variant, dropbox):
            del document["name"], document["display_name"]
        assert variant == dropbox

    def test_toml_loading_without_tomllib(self, tmp_path, monkeypatch):
        # Simulate Python < 3.11: the subset reader serves the whole pipeline.
        import repro.specio as specio

        monkeypatch.setattr(specio, "_toml", None)
        path = tmp_path / "services.toml"
        path.write_text(SYNTH_TOML)
        specs = load_service_specs(str(path))
        assert specs[0].canonical_json() == ServiceSpec.from_dict(loads_toml(SYNTH_TOML)["service"][0]).canonical_json()

    def test_minitoml_matches_tomllib_on_example_files(self):
        tomllib = pytest.importorskip("tomllib")
        from repro.specio import _MiniToml

        root = os.path.join(os.path.dirname(__file__), "..", "examples", "specs")
        for name in ("synthetic.toml", "scenarios.toml"):
            with open(os.path.join(root, name), "r", encoding="utf-8") as handle:
                text = handle.read()
            assert _MiniToml(text, name).parse() == tomllib.loads(text)


class TestRegistry:
    def test_register_is_idempotent(self, clean_registry):
        before = list(SERVICE_NAMES)
        register_service_spec(synthetic_spec())
        register_service_spec(synthetic_spec())
        assert SERVICE_NAMES.count("synthtest") == 1
        assert SERVICE_NAMES == before + ["synthtest"]

    def test_unregister_service(self, clean_registry):
        register_service_spec(synthetic_spec())
        assert unregister_service("synthtest") is True
        assert "synthtest" not in SERVICE_NAMES
        assert "synthtest" not in registered_services()
        assert unregister_service("synthtest") is False
        with pytest.raises(UnknownServiceError):
            get_profile("synthtest")

    def test_snapshot_restore_undoes_registrations_in_place(self):
        names_object = SERVICE_NAMES
        snapshot = registry_snapshot()
        register_service_spec(synthetic_spec())
        unregister_service("dropbox")
        registry_restore(snapshot)
        assert SERVICE_NAMES is names_object  # restored in place, not rebound
        assert "synthtest" not in SERVICE_NAMES
        assert SERVICE_NAMES[0] == "dropbox"
        assert get_profile("dropbox").name == "dropbox"

    def test_temporary_services_context(self):
        with temporary_services():
            register_service_spec(synthetic_spec())
            assert "synthtest" in SERVICE_NAMES
        assert "synthtest" not in SERVICE_NAMES

    def test_uniform_construction_spec_service(self, clean_registry):
        register_service_spec(synthetic_spec())
        client = create_client("synthtest", NetworkSimulator())
        assert isinstance(client, CloudStorageClient)
        assert client.profile.name == "synthtest"

    def test_register_services_from_file(self, clean_registry, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"service": [synthetic_spec().to_dict()]}, sort_keys=True))
        assert register_services_from_file(str(path)) == ["synthtest"]
        assert "synthtest" in SERVICE_NAMES


class TestWorkerRegistrySync:
    def test_payload_and_install_round_trip(self, clean_registry):
        register_service_spec(synthetic_spec())
        payload = registry_sync_payload(["synthtest", "dropbox", "synthtest"])
        assert [doc["name"] for doc in payload] == ["synthtest", "dropbox"]
        fingerprint = spec_fingerprint("synthtest")
        # Simulate a spawn-started worker: fresh registry without the
        # runtime registration, then install the shipped payload.
        unregister_service("synthtest")
        install_registered_specs(payload)
        assert "synthtest" in registered_services()
        assert spec_fingerprint("synthtest") == fingerprint

    def test_install_is_a_noop_for_matching_content(self, clean_registry):
        spec = synthetic_spec()
        register_service_spec(spec)
        install_registered_specs(registry_sync_payload(["synthtest"]))
        # Content matched, so the fork-inherited registration survives the
        # worker-side install untouched.
        assert get_spec("synthtest") is spec

    def test_spec_service_survives_spawn_worker_pool(self, clean_registry, tmp_path):
        # The real thing: a spawn-started process pool, where workers do
        # not inherit the parent registry, must still run spec services.
        import subprocess
        import sys

        script = tmp_path / "spawn_campaign.py"
        script.write_text(
            "import multiprocessing as mp\n"
            "def main():\n"
            "    from repro.services.registry import register_services_from_file\n"
            "    from repro.core.campaign import CampaignConfig, CampaignRunner\n"
            f"    register_services_from_file({str(tmp_path / 'svc.toml')!r})\n"
            "    config = CampaignConfig(idle_duration=30.0, repetitions=1)\n"
            "    runner = CampaignRunner(['tomldrive'], ['idle'], seeds=[1, 2], jobs=2, config=config)\n"
            "    results = runner.run_cells(runner.cells())\n"
            "    assert len(results) == 2\n"
            "    print('SPAWN-OK')\n"
            "if __name__ == '__main__':\n"
            "    mp.set_start_method('spawn', force=True)\n"
            "    main()\n"
        )
        (tmp_path / "svc.toml").write_text(SYNTH_TOML)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        assert "SPAWN-OK" in completed.stdout


class TestCacheKeys:
    def cell(self, service="synthtest", **config):
        return CampaignCell(stage="idle", service=service, seed=7, config=CampaignConfig(**config))

    def test_spec_edit_invalidates_cache_key(self, clean_registry):
        register_service_spec(synthetic_spec())
        key_before = cache_key(self.cell())
        assert cache_key(self.cell()) == key_before  # stable
        register_service_spec(synthetic_spec(polling={"interval": 45.0}))
        assert cache_key(self.cell()) != key_before

    def test_equal_spec_content_restores_cache_key(self, clean_registry):
        register_service_spec(synthetic_spec())
        key_before = cache_key(self.cell())
        register_service_spec(synthetic_spec(polling={"interval": 45.0}))
        register_service_spec(synthetic_spec())
        assert cache_key(self.cell()) == key_before

    def test_scenario_is_part_of_the_key(self, clean_registry):
        register_service_spec(synthetic_spec())
        baseline_key = cache_key(self.cell())
        lossy_key = cache_key(self.cell(scenario=get_scenario("lossy-dsl")))
        assert baseline_key != lossy_key

    def test_store_misses_after_spec_edit(self, clean_registry, tmp_path):
        register_service_spec(synthetic_spec())
        store = ResultStore(str(tmp_path))
        runner = CampaignRunner(["synthtest"], ["idle"], seed=3, jobs=1,
                                config=CampaignConfig(idle_duration=30.0), store=store)
        first = runner.run().campaigns[0]
        assert first.cache_misses() == len(first.cells)
        again = CampaignRunner(["synthtest"], ["idle"], seed=3, jobs=1,
                               config=CampaignConfig(idle_duration=30.0), store=store).run().campaigns[0]
        assert again.cache_hits() == len(again.cells)
        register_service_spec(synthetic_spec(polling={"interval": 45.0}))
        edited = CampaignRunner(["synthtest"], ["idle"], seed=3, jobs=1,
                                config=CampaignConfig(idle_duration=30.0), store=store).run().campaigns[0]
        assert edited.cache_misses() == len(edited.cells)


class TestScenarios:
    def test_baseline_is_identity_object(self):
        path = NetworkPath(rtt=0.05)
        assert BASELINE.is_identity()
        assert BASELINE.apply(path, hostname="x.example", seed=1) is path

    def test_builtin_scenarios_registered(self):
        for name in ("baseline", "lossy-dsl", "mobile-lte", "satellite", "fast-fiber"):
            assert get_scenario(name) is BUILTIN_SCENARIOS[name]
        with pytest.raises(ConfigurationError):
            get_scenario("no-such-scenario")

    def test_lossy_dsl_warps_path(self):
        path = NetworkPath(rtt=0.05, uplink_bps=20_000_000.0, downlink_bps=50_000_000.0)
        warped = get_scenario("lossy-dsl").apply(path, hostname="x.example", seed=1)
        assert warped.rtt > path.rtt
        assert warped.uplink_bps <= 1_000_000.0  # capped at 1 Mb/s
        assert warped.downlink_bps <= 8_000_000.0

    def test_jitter_is_seeded_and_deterministic(self):
        scenario = ScenarioSpec(name="jittery", jitter=0.2)
        path = NetworkPath(rtt=0.1)
        one = scenario.apply(path, hostname="x.example", seed=1)
        two = scenario.apply(path, hostname="x.example", seed=2)
        assert one.rtt != two.rtt  # seeds spread
        assert scenario.apply(path, hostname="x.example", seed=1).rtt == one.rtt  # reproducible
        assert abs(one.rtt - path.rtt) <= 0.2 * path.rtt + 1e-12

    def test_scenario_round_trips_via_dict(self):
        for spec in BUILTIN_SCENARIOS.values():
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_scenario_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="bad", loss=1.5)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="bad", uplink_factor=0.0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict({"name": "bad", "warp_field": 1})

    def test_rate_caps_accept_rate_strings(self):
        spec = ScenarioSpec.from_dict({"name": "strcaps", "uplink_cap_bps": "5Mbps"})
        assert spec.uplink_cap_bps == 5_000_000.0

    def test_campaign_under_scenario_spreads_across_seeds(self, clean_registry):
        register_service_spec(synthetic_spec())
        scenario = ScenarioSpec(name="spready", jitter=0.2, rate_jitter=0.2)
        config = CampaignConfig(repetitions=1, scenario=scenario)
        docs = []
        for seed in (1, 2):
            result = CampaignRunner(["synthtest"], ["performance"], seed=seed, jobs=1, config=config).run().campaigns[0]
            rows = [row for cell in result.cells for row in cell.rows()]
            docs.append([row["completion_s"] for row in rows])
        assert docs[0] != docs[1]

    def test_baseline_campaign_is_seed_invariant_for_idle(self, clean_registry):
        register_service_spec(synthetic_spec())
        config = CampaignConfig(idle_duration=30.0)
        rows = []
        for seed in (1, 2):
            result = CampaignRunner(["synthtest"], ["idle"], seed=seed, jobs=1, config=config).run().campaigns[0]
            rows.append([row for cell in result.cells for row in cell.rows()])
        assert rows[0] == rows[1]


class TestGoldenDocuments:
    """The spec-backed built-ins reproduce the pre-redesign campaign bytes.

    The fixtures were generated by the pre-spec code (`cloudbench ...
    --json`); the redesigned engine must serialize the same documents byte
    for byte under the default (baseline) scenario.
    """

    def _document_json(self, services, stages, seed, **config):
        runner = CampaignRunner(services, stages, seed=seed, jobs=1, config=CampaignConfig(**config))
        result = runner.run().campaigns[0]
        from repro.core.report import to_json_text

        return to_json_text(result.results_json_dict())

    def test_idle_delta_compression_golden(self):
        with open(os.path.join(DATA_DIR, "golden_small_campaign.json"), "r", encoding="utf-8") as handle:
            golden = handle.read()
        produced = self._document_json(
            ["dropbox", "googledrive", "wuala"],
            ["idle", "delta", "compression"],
            seed=7,
            repetitions=1,
            idle_duration=120.0,
        )
        assert produced == golden

    def test_capabilities_performance_golden(self):
        with open(os.path.join(DATA_DIR, "golden_caps_perf.json"), "r", encoding="utf-8") as handle:
            golden = handle.read()
        produced = self._document_json(
            ["dropbox", "clouddrive", "skydrive"],
            ["capabilities", "performance"],
            seed=11,
            repetitions=1,
        )
        assert produced == golden


class TestSpecServiceCampaign:
    def test_spec_only_service_runs_multi_seed_campaign(self, clean_registry, tmp_path):
        path = tmp_path / "svc.toml"
        path.write_text(SYNTH_TOML)
        register_services_from_file(str(path))
        runner = CampaignRunner(
            ["tomldrive"],
            ["capabilities", "idle", "delta"],
            seeds=[1, 2],
            jobs=1,
            config=CampaignConfig(repetitions=1, idle_duration=30.0),
        )
        sweep = runner.run()
        assert sweep.seeds == [1, 2]
        report = sweep.report_rows()
        assert set(report) == {"capabilities", "idle", "delta"}
        assert all(any("tomldrive" in str(row.values()) for row in rows) for rows in report.values())
        document = sweep.document()
        assert document["services"] == ["tomldrive"]
        # The capability probes see the spec's composition from traffic alone.
        single = CampaignRunner(
            ["tomldrive"], ["capabilities"], seed=1, jobs=1, config=CampaignConfig(repetitions=1)
        ).run().campaigns[0]
        row = results_document(single.cells, seed=1)["cells"][0]["rows"][0]
        assert row["chunking"] == "8 MB"
        assert row["compression"] == "smart"

    def test_per_file_connection_spec_service_joins_syn_series(self, clean_registry):
        register_service_spec(
            synthetic_spec(connections={"new_storage_connection_per_file": True})
        )
        runner = CampaignRunner(["dropbox", "clouddrive", "synthtest"], ["syn_series"], jobs=1)
        services = [cell.service for cell in runner.cells()]
        assert services == ["clouddrive", "synthtest"]
        # The built-in-only plan is unchanged (plan-order compatibility).
        legacy = CampaignRunner(["dropbox", "clouddrive", "googledrive"], ["syn_series"], jobs=1)
        assert [cell.service for cell in legacy.cells()] == ["clouddrive", "googledrive"]


class TestUnitGrammars:
    def test_parse_rate(self):
        assert parse_rate(250_000) == 250_000.0
        assert parse_rate("500kbps") == 500_000.0
        assert parse_rate("8Mbps") == 8_000_000.0
        assert parse_rate("1.5 Gbps") == 1_500_000_000.0
        for bad in ("fast", "-1", 0, "8Mbpsx", True):
            with pytest.raises(ConfigurationError):
                parse_rate(bad)

    def test_parse_size(self):
        assert parse_size(4096) == 4096
        assert parse_size("512kB") == 512_000
        assert parse_size("4MB") == 4_000_000
        assert parse_size("1.5MB") == 1_500_000
        for bad in ("big", "-3", True):
            with pytest.raises(ConfigurationError):
                parse_size(bad)

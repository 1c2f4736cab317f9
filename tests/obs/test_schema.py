"""The frozen engine_stats schema, live runs, manifests, phases."""

import json
import os

import pytest

from repro.harness.runner import run_workload
from repro.machine.config import ENGINES, MachineConfig
from repro.obs.schema import (
    ENGINE_STATS_KEYS,
    SUPERBLOCKS_KEYS,
    validate_engine_stats,
)

DOC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                   "docs", "OBSERVABILITY.md")


@pytest.fixture(scope="module")
def live_runs():
    """One functional treeadd run per engine tier."""
    return {engine: run_workload(
                "treeadd",
                MachineConfig.plain(timing=False, engine=engine))
            for engine in ENGINES}


def test_every_tier_has_a_schema_entry():
    assert set(ENGINE_STATS_KEYS) == set(ENGINES)


def test_live_runs_satisfy_the_frozen_schema(live_runs):
    for engine, result in live_runs.items():
        validate_engine_stats(engine, result.engine_stats)


def test_superblocks_stats_are_exactly_the_frozen_keys(live_runs):
    stats = live_runs["superblocks"].engine_stats
    assert set(stats) == SUPERBLOCKS_KEYS


def test_non_trace_tiers_record_none(live_runs):
    for engine in ("decoded", "legacy"):
        assert live_runs[engine].engine_stats is None


def test_validate_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        validate_engine_stats("jit", {})


def test_validate_rejects_missing_and_extra_keys(live_runs):
    stats = dict(live_runs["superblocks"].engine_stats)
    del stats["fallback_steps"]
    with pytest.raises(ValueError, match="fallback_steps"):
        validate_engine_stats("superblocks", stats)
    stats = dict(live_runs["superblocks"].engine_stats)
    stats["surprise"] = 1
    with pytest.raises(ValueError, match="surprise"):
        validate_engine_stats("superblocks", stats)


def test_validate_rejects_none_for_superblocks():
    with pytest.raises(ValueError, match="recorded no"):
        validate_engine_stats("superblocks", None)


def test_validate_rejects_stats_on_stat_free_tiers():
    with pytest.raises(ValueError, match="must record no"):
        validate_engine_stats("decoded", {"engine": "decoded"})


def test_doc_names_every_frozen_key():
    """docs/OBSERVABILITY.md is part of the schema contract."""
    with open(DOC, encoding="utf-8") as fh:
        doc = fh.read()
    for key in SUPERBLOCKS_KEYS:
        assert "`%s`" % key in doc, (
            "engine_stats key %r is not documented in "
            "docs/OBSERVABILITY.md" % key)


def test_engine_stats_survive_json_round_trip(live_runs):
    stats = live_runs["superblocks"].engine_stats
    clone = json.loads(json.dumps(stats))
    assert clone == stats
    validate_engine_stats("superblocks", clone)


class TestPhases:
    def test_every_engine_times_execute(self, live_runs):
        for engine, result in live_runs.items():
            assert result.phases["execute"] > 0.0, engine

    def test_decoding_engines_time_decode(self, live_runs):
        # legacy interprets Instruction records directly — no
        # decode phase to charge
        for engine in ("decoded", "superblocks"):
            assert "decode" in live_runs[engine].phases, engine
        assert "decode" not in live_runs["legacy"].phases

    def test_block_tiers_time_cfg_fusion(self, live_runs):
        assert "cfg_fusion" in live_runs["superblocks"].phases
        for engine in ("decoded", "legacy"):
            assert "cfg_fusion" not in live_runs[engine].phases

    def test_timed_run_charges_probe_compile(self):
        result = run_workload(
            "treeadd", MachineConfig.plain(timing=True,
                                           engine="superblocks"))
        assert result.phases["probe_compile"] > 0.0

    def test_phases_are_json_safe(self, live_runs):
        for result in live_runs.values():
            assert json.loads(json.dumps(result.phases)) \
                == result.phases


class TestManifest:
    def test_manifest_records_the_run_knobs(self, live_runs):
        for engine, result in live_runs.items():
            manifest = result.manifest
            assert manifest["engine"] == engine
            # workload labels are stamped only when tracing is on
            assert manifest["label"] == ""
            assert manifest["mode"] == "off"
            assert manifest["timing"] is False
            assert manifest["cache_geometry"] is None
            assert manifest["python"].count(".") == 2

    def test_manifest_records_cache_geometry_when_timed(self):
        result = run_workload(
            "treeadd", MachineConfig.hardbound(engine="superblocks"))
        geometry = result.manifest["cache_geometry"]
        assert geometry is not None
        assert geometry["tag_cache_size"] > 0

    def test_manifest_is_json_safe(self, live_runs):
        for result in live_runs.values():
            assert json.loads(json.dumps(result.manifest)) \
                == result.manifest

    def test_git_sha_present_in_this_checkout(self, live_runs):
        sha = live_runs["decoded"].manifest["git_sha"]
        assert sha is None or len(sha) >= 7

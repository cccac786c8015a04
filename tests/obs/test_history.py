"""Tests for bench series in the append-only run store."""

import json
from pathlib import Path

import pytest

from repro.obs.store import (
    ENTRY_KIND,
    STORE_SCHEMA_VERSION,
    Run,
    RunStore,
    config_digest,
    ingest,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _bench_payload(name="unit", seconds=1.0, **config):
    """A minimal v2 BENCH_*.json payload."""
    return {
        "schema_version": 2,
        "name": name,
        "platform": {"python": "3.x", "machine": "test", "cpus": 1},
        "provenance": {
            "git_sha": "abc123def456",
            "created_at": "2026-08-08T00:00:00+00:00",
            "generator": "test",
        },
        "config": dict(config) or {"n": 4},
        "timings": {"slow": 2.0 * seconds, "fast": seconds},
        "samples": {
            "slow": [2.0 * seconds, 2.1 * seconds, 2.05 * seconds],
            "fast": [seconds, 1.01 * seconds, 0.99 * seconds],
        },
        "repeats": 3,
        "speedups": {"gain": 2.0},
        "checks": {"identical": True, "num_unique": 128},
    }


class TestConfigDigest:
    def test_stable_and_order_independent(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_none_and_empty_agree(self):
        assert config_digest(None) == config_digest({})


class TestHistoryEntryRoundTrip:
    def test_to_from_dict_round_trips(self):
        run = ingest(_bench_payload())
        clone = Run.from_dict(run.to_dict())
        assert clone == run
        assert clone.config_key == run.config_key

    def test_dict_carries_schema_and_kind(self):
        payload = ingest(_bench_payload()).to_dict()
        assert payload["schema_version"] == STORE_SCHEMA_VERSION
        assert payload["kind"] == ENTRY_KIND

    def test_unknown_schema_version_errors_with_upgrade_hint(self):
        payload = ingest(_bench_payload()).to_dict()
        payload["schema_version"] = STORE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="upgrade"):
            Run.from_dict(payload)

    def test_wrong_kind_errors(self):
        payload = ingest(_bench_payload()).to_dict()
        payload["kind"] = "something-else"
        with pytest.raises(ValueError, match="kind"):
            Run.from_dict(payload)

    def test_missing_required_key_errors(self):
        payload = ingest(_bench_payload()).to_dict()
        del payload["artifact"]
        with pytest.raises(ValueError, match="artifact"):
            Run.from_dict(payload)

    def test_ingesting_unknown_bench_schema_errors(self):
        payload = _bench_payload()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            ingest(payload)
        # A payload without a version is the retired v1 layout.
        del payload["schema_version"]
        with pytest.raises(ValueError, match="schema version 1"):
            ingest(payload)


class TestBenchHistoryStore:
    def test_append_and_read_in_order(self, tmp_path):
        store = RunStore(tmp_path)
        first, appended = store.append(_bench_payload(seconds=1.0))
        assert appended
        second, appended = store.append(_bench_payload(seconds=1.3))
        assert appended
        runs = store.read("unit")
        assert [r.entry_id for r in runs] == [first.entry_id, second.entry_id]
        assert store.latest("unit").entry_id == second.entry_id
        assert store.series() == ["unit"]

    def test_append_is_idempotent(self, tmp_path):
        store = RunStore(tmp_path)
        payload = _bench_payload()
        _, appended = store.append(payload)
        assert appended
        _, appended = store.append(payload)
        assert not appended
        assert len(store.read("unit")) == 1

    def test_invalid_bench_name_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        for name in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError, match="series name"):
                store.path_for(name)

    def test_missing_file_reads_empty(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.read("nothing") == []
        assert store.latest("nothing") is None
        assert store.series() == []

    def test_truncated_line_skipped_and_counted(
        self, tmp_path, caplog, monkeypatch
    ):
        import logging

        # configure_logging (run by CLI tests) turns off propagation on
        # the "repro" logger; restore it so caplog sees the warning.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        store = RunStore(tmp_path)
        run, _ = store.append(_bench_payload())
        with open(store.path_for("unit"), "a") as handle:
            handle.write('{"schema_version": 1, "kind": "repro-run')
        with caplog.at_level("WARNING", logger="repro.obs.store"):
            runs = store.read("unit")
        assert [r.entry_id for r in runs] == [run.entry_id]
        assert store.last_skipped == 1
        assert "truncated" in caplog.text

    def test_valid_line_with_newer_schema_still_raises(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(_bench_payload())
        payload = store.read("unit")[0].to_dict()
        payload["schema_version"] = STORE_SCHEMA_VERSION + 1
        with open(store.path_for("unit"), "a") as handle:
            handle.write(json.dumps(payload) + "\n")
        with pytest.raises(ValueError, match="schema version"):
            store.read("unit")

    def test_record_file_ingests_bench_json(self, tmp_path):
        bench_file = tmp_path / "BENCH_unit.json"
        bench_file.write_text(json.dumps(_bench_payload()))
        store = RunStore(tmp_path / "runs")
        run, appended = store.record_file(bench_file)
        assert appended
        assert run.series == "unit"
        _, appended = store.record_file(bench_file)
        assert not appended


class TestCommittedMigration:
    """The committed bench history, migrated into the run store."""

    @pytest.mark.parametrize("bench", ["emf", "harness"])
    def test_committed_history_contains_bench_entry(self, bench):
        store = RunStore(REPO_ROOT / "results" / "obs" / "runs")
        runs = store.read(bench)
        assert runs, f"no migrated history for {bench}"
        assert all(run.series == bench and run.kind == "bench" for run in runs)
        assert all(run.git_sha != "unknown" for run in runs)

    def test_every_committed_artifact_loads_with_current_readers(self):
        """Each committed run reads back through the current-version
        readers with the values it was recorded with."""
        store = RunStore(REPO_ROOT / "results" / "obs" / "runs")
        loaded = {}
        for series in store.series():
            for run in store.read(series):
                version = run.artifact["schema_version"]
                assert version == (3 if run.kind == "report" else 2)
                loaded.setdefault(series, []).append(run)
        assert store.last_skipped == 0

        (report,) = loaded[_QUICK_SERIES]
        assert report.provenance["metrics_digest"] == _QUICK_DIGEST
        assert {k: v[0] for k, v in report.samples.items()} == _QUICK_TIMINGS
        assert report.report().windows == report.report().exemplars == []

        for bench, (timings, speedups, checks) in _MIGRATED_BENCHES.items():
            run = loaded[bench][0]
            assert run.artifact["timings"] == timings
            assert run.samples == {k: [v] for k, v in timings.items()}
            assert run.artifact["repeats"] == 1
            assert run.speedups == speedups
            assert run.artifact["checks"] == checks

    def test_committed_quick_report_loads_with_current_reader(self):
        from repro.obs.provenance import metrics_digest
        from repro.obs.report import RunReport

        path = REPO_ROOT / "results" / "obs" / "GMN-Li_AIDS_p4_b4_s0_quick_report.json"
        report = RunReport.load(path)
        assert metrics_digest(report.metrics.as_dict()) == _QUICK_DIGEST
        seconds = {k: v["seconds"] for k, v in report.timings.items()}
        assert seconds == _QUICK_TIMINGS
        assert report.windows == report.exemplars == []


_BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


class TestCommittedPerfbench:
    """Every perfbench workload has a stored full-length run, the
    "before" of a future perf change, and a run in the config CI
    records, so CI's exact checks have a same-config baseline."""

    @pytest.mark.parametrize(
        "workload", [entry["name"] for entry in _BENCHMARK["workloads"]]
    )
    def test_full_length_and_ci_runs_recorded(self, workload):
        from repro.perf.bench import QUICK_RUN_SECONDS

        runs = RunStore(REPO_ROOT / "results" / "obs" / "runs").read(
            f"perfbench-{workload}"
        )
        shapes = {
            (run.config["run_seconds"], len(run.config["seeds"])) for run in runs
        }
        assert (_BENCHMARK["run_seconds"], 5) in shapes
        assert (QUICK_RUN_SECONDS, 1) in shapes
        for run in runs:
            assert run.exact["check"] == {"correct": True, "agree_frac": 1.0}
            assert set(run.environmental["check"]) == {"attempted", "failed"}


# Values the committed runs were recorded with, before their one-time
# migration to the current schemas (RunReport v2 -> v3, BenchReport
# v1 -> v2). The migration may add empty sections, never move a value.
_QUICK_SERIES = "GMN-Li_AIDS_p4_b4_s0_quick-36656247"
_QUICK_DIGEST = "6cf0d4ef3afe7c53"
_QUICK_TIMINGS = {
    "profile": 0.04839707900009671,
    "simulate": 0.02712880299986864,
    "simulate_cli": 0.07794207699998879,
}
_MIGRATED_BENCHES = {
    "emf": (
        {
            "filter_scalar": 0.3724710029991911,
            "filter_vectorized": 0.006225342000107048,
            "hash_scalar": 0.41400651799995103,
            "hash_vectorized": 0.00472904100024607,
        },
        {"emf_filter": 59.83141215258315, "emf_hashing": 87.54555479185075},
        {
            "num_unique": 512,
            "record_sets_identical": True,
            "tag_maps_identical": True,
            "tags_identical": True,
        },
    ),
    "harness": (
        {
            "harness_cold_cache": 1.2420041599998513,
            "harness_warm_cache": 0.06865398599984474,
            "serial_uncached": 4.592377351999858,
            "sim_warm_batched": 0.010130383000614529,
            "sim_warm_serial": 0.633305934999953,
        },
        {
            "harness_cold": 3.697553921236792,
            "harness_quick": 66.89163469707707,
            "sim_batched": 62.515497682716976,
        },
        {
            "batched_matches_serial": True,
            "cold_matches_uncached": True,
            "num_workloads": 12,
            "warm_matches_uncached": True,
        },
    ),
}

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

    def test_sample_values_fall_back_to_aggregate(self):
        assert len(ingest(_bench_payload()).samples["fast"]) == 3
        legacy = _bench_payload()
        del legacy["samples"]
        assert ingest(legacy).samples["fast"] == [legacy["timings"]["fast"]]

    def test_ingesting_unknown_bench_schema_errors(self):
        payload = _bench_payload()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            ingest(payload)

    def test_legacy_v1_payload_ingests_without_samples(self):
        payload = _bench_payload()
        del payload["schema_version"]
        del payload["samples"]
        del payload["repeats"]
        run = ingest(payload)
        assert run.samples == {
            variant: [seconds] for variant, seconds in payload["timings"].items()
        }
        assert run.artifact == payload  # kept verbatim


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

    @pytest.mark.parametrize("bench", ["emf", "harness", "search"])
    def test_committed_history_contains_bench_entry(self, bench):
        store = RunStore(REPO_ROOT / "results" / "obs" / "runs")
        runs = store.read(bench)
        assert runs, f"no migrated history for {bench}"
        assert all(run.series == bench and run.kind == "bench" for run in runs)
        assert all(run.git_sha != "unknown" for run in runs)

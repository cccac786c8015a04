"""Tests for the timing utilities and the microbenchmark driver."""

import json

import pytest

from repro.obs.store import RunStore
from repro.perf.timing import BenchReport, StageTimer, time_stage


class TestStageTimer:
    def test_accumulates_seconds_and_calls(self):
        timer = StageTimer()
        for _ in range(3):
            with timer.stage("work"):
                pass
        assert timer.calls["work"] == 3
        assert timer.seconds["work"] >= 0.0
        assert timer.total_seconds == sum(timer.seconds.values())

    def test_record_direct(self):
        timer = StageTimer()
        timer.record("io", 1.5)
        timer.record("io", 0.5)
        assert timer.seconds["io"] == 2.0
        assert timer.calls["io"] == 2

    def test_time_stage_tolerates_none(self):
        with time_stage(None, "anything"):
            pass
        timer = StageTimer()
        with time_stage(timer, "real"):
            pass
        assert timer.calls["real"] == 1


class TestBenchReport:
    def test_write_layout(self, tmp_path):
        report = BenchReport("unit", config={"n": 4})
        report.add_timing("slow", 2.0)
        report.add_timing("fast", 0.5)
        report.add_speedup("gain", "slow", "fast")
        report.checks["ok"] = True
        store = RunStore(tmp_path)
        store.append(report.as_dict())
        line = store.path_for("unit").read_text().splitlines()[0]
        data = json.loads(line)["artifact"]
        assert data["schema_version"] == 2
        assert data["speedups"]["gain"] == 4.0
        assert data["checks"]["ok"] is True
        assert data["config"]["n"] == 4
        assert data["platform"]["cpus"] >= 1

    def test_zero_time_speedup_is_inf(self):
        report = BenchReport("unit")
        report.add_timing("slow", 1.0)
        report.add_timing("fast", 0.0)
        report.add_speedup("gain", "slow", "fast")
        assert report.speedups["gain"] == float("inf")


class TestBenchEMF:
    def test_quick_run_confirms_equivalence_and_speedup(self):
        from repro.perf.bench import bench_emf

        report = bench_emf(quick=True, repeats=1)
        assert report.checks["tags_identical"]
        assert report.checks["record_sets_identical"]
        assert report.checks["tag_maps_identical"]
        # The acceptance bar is 5x; quick mode clears it with margin.
        assert report.speedups["emf_hashing"] > 5.0
        assert report.speedups["emf_filter"] > 5.0


@pytest.mark.slow
class TestBenchHarness:
    def test_quick_harness_speedup(self, tmp_path):
        from repro.perf.bench import bench_harness

        report = bench_harness(quick=True)
        assert report.checks["cold_matches_uncached"]
        assert report.checks["warm_matches_uncached"]
        assert report.checks["batched_matches_serial"]
        assert report.speedups["harness_quick"] > 1.0
        assert report.as_dict()["name"] == "harness"


class TestBenchHistoryIntegration:
    def test_main_appends_history_entry(self, tmp_path, monkeypatch):
        from repro.obs.store import RunStore
        from repro.perf.bench import main

        monkeypatch.chdir(tmp_path)
        store_dir = tmp_path / "runs"
        status = main(
            [
                "--quick",
                "--only",
                "emf",
                "--repeats",
                "1",
                "--store",
                str(store_dir),
            ]
        )
        assert status == 0
        runs = RunStore(store_dir).read("emf")
        assert len(runs) == 1
        assert runs[0].samples  # raw repeats retained
        assert runs[0].artifact["repeats"] == 1
        # The store is the only output: no BENCH_*.json in the cwd.
        assert not list(tmp_path.glob("BENCH_*.json"))

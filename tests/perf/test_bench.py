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


_STUB = """
import argparse, json, sys, time

parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
with open("BENCHMARK.json") as handle:
    names = [entry["name"] for entry in json.load(handle)["end_to_end"]]
with open("modes.json") as handle:
    mode = json.load(handle).get(f"{args.workload}:{args.seed}", "ok")
if mode == "hang":
    time.sleep(60)
if mode == "exit2":
    sys.exit(2)
if mode == "garbage":
    print("Traceback: not a result")
    sys.exit(1)
if mode == "extra_metric":
    names.append("bogus")
seed = int(args.seed)
metrics = {name: {"value": 10.0 + seed, "unit": "x"} for name in names}
metrics["agree_frac"]["value"] = 1.0
correct = mode != "wrong_answer"
print("readable report line")
print(json.dumps({"correct": correct, "attempted": 7 + seed, "failed": seed,
                  "metrics": metrics}))
sys.exit(0 if correct else 1)
"""


@pytest.fixture
def stub_benchmark(tmp_path, monkeypatch):
    """A BENCHMARK.json whose command is a stub perfbench.

    Returns a setter for per-``workload:seed`` modes (default ``ok``).
    """
    import sys

    import repro.perf.bench as bench_module

    with open(bench_module.BENCHMARK_PATH) as handle:
        declared = json.load(handle)
    declared["command"] = [sys.executable, "stub.py"]
    declared["workloads"] = declared["workloads"][:2]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
    (tmp_path / "stub.py").write_text(_STUB)
    monkeypatch.setattr(bench_module, "BENCHMARK_PATH", tmp_path / "BENCHMARK.json")

    def set_modes(**modes):
        (tmp_path / "modes.json").write_text(json.dumps(modes))
        return declared

    set_modes()
    return set_modes


class TestBenchPerfbench:
    def test_one_sample_per_seed_and_direction_in_config(self, stub_benchmark):
        from repro.obs.store import ingest
        from repro.perf.bench import bench_perfbench

        declared = stub_benchmark()
        reports = bench_perfbench(repeats=2)
        workloads = [entry["name"] for entry in declared["workloads"]]
        assert [r.name for r in reports] == [f"perfbench-{w}" for w in workloads]
        report = reports[0]
        sampled = {
            entry["name"]: {"better": entry["better"], "bound": entry["bound"]}
            for entry in declared["end_to_end"]
            if entry["name"] != "agree_frac"
        }
        assert report.config["metrics"] == sampled
        assert report.config["run_seconds"] == declared["run_seconds"]
        assert report.samples == {name: [10.0, 11.0] for name in sampled}
        run = ingest(report.as_dict())
        assert run.exact["check"] == {"correct": True, "agree_frac": 1.0}
        assert run.environmental["check"] == {"attempted": [7, 8], "failed": [0, 1]}

    def test_quick_runs_at_the_ci_length(self, stub_benchmark):
        from repro.perf.bench import QUICK_RUN_SECONDS, bench_perfbench

        stub_benchmark()
        (report, _) = bench_perfbench(quick=True, repeats=1)
        assert report.config["run_seconds"] == QUICK_RUN_SECONDS

    def test_wrong_answer_fails_the_bench(self, stub_benchmark, tmp_path):
        from repro.perf.bench import main

        stub_benchmark(**{"clone_hot:1": "wrong_answer"})
        store = tmp_path / "runs"
        status = main(["--only", "perfbench", "--repeats", "2", "--store", str(store)])
        assert status == 1
        (run,) = RunStore(store).read("perfbench-clone_hot")
        assert run.exact["check"]["correct"] is False

    @pytest.mark.parametrize(
        "mode, message",
        [
            ("hang", "no result within"),
            ("exit2", "exit 2"),
            ("garbage", "last line is not JSON"),
            ("extra_metric", "differ from BENCHMARK.json"),
        ],
    )
    def test_unusable_run_names_workload_and_seed(
        self, stub_benchmark, monkeypatch, mode, message
    ):
        import repro.perf.bench as bench_module

        monkeypatch.setattr(bench_module, "PERFBENCH_TIMEOUT_SECONDS", 2)
        stub_benchmark(**{"unique_ingest:1": mode})
        with pytest.raises(bench_module.PerfbenchError, match=message) as excinfo:
            bench_module.bench_perfbench(repeats=2)
        assert "perfbench unique_ingest seed 1" in str(excinfo.value)

    def test_missing_benchmark_file_is_an_error(self, tmp_path, monkeypatch):
        import repro.perf.bench as bench_module

        monkeypatch.setattr(
            bench_module, "BENCHMARK_PATH", tmp_path / "BENCHMARK.json"
        )
        with pytest.raises(bench_module.PerfbenchError, match="not found"):
            bench_module.bench_perfbench(repeats=1)

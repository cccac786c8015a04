"""End-to-end tests for the observability CLI surface."""

import json
import shutil
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs.report import REPORT_KIND, REQUIRED_KEYS
from repro.platforms.runspec import QUICK_BATCH, QUICK_PAIRS

COMMITTED_STORE = Path(__file__).resolve().parents[2] / "results" / "obs" / "runs"


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    from repro.experiments.common import clear_workload_caches

    clear_workload_caches()
    yield
    clear_workload_caches()


def _simulate_with_obs(tmp_path):
    trace_path = tmp_path / "trace.json"
    status = main(
        [
            "simulate",
            "--quick",
            "--model",
            "GMN-Li",
            "--dataset",
            "AIDS",
            "--metrics",
            "--trace",
            str(trace_path),
        ]
    )
    assert status == 0
    stem = f"GMN-Li_AIDS_p{QUICK_PAIRS}_b{QUICK_BATCH}_s0_quick"
    report_path = tmp_path / "results" / "obs" / f"{stem}_report.json"
    return trace_path, report_path


class TestSimulateObs:
    def test_writes_trace_and_report(self, tmp_path, capsys):
        trace_path, report_path = _simulate_with_obs(tmp_path)
        assert trace_path.is_file()
        assert report_path.is_file()
        output = capsys.readouterr().out
        assert "wrote Chrome trace" in output
        assert "wrote RunReport" in output
        assert "sim.dram.read_bytes{platform=CEGMA}" in output

    def test_trace_is_chrome_trace_json(self, tmp_path):
        trace_path, _ = _simulate_with_obs(tmp_path)
        payload = json.loads(trace_path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert events, "expected at least one span event"
        for event in events:
            assert event["ph"] == "X"
            assert {"name", "ts", "dur", "pid", "tid"} <= set(event)

    def test_report_has_schema_keys(self, tmp_path):
        _, report_path = _simulate_with_obs(tmp_path)
        payload = json.loads(report_path.read_text())
        for key in REQUIRED_KEYS:
            assert key in payload
        assert payload["metrics"]["counters"]
        assert payload["timings"]["profile"]["calls"] == 1

    def test_quick_flag_overrides_workload_size(self, tmp_path, capsys):
        _simulate_with_obs(tmp_path)
        output = capsys.readouterr().out
        assert f"{QUICK_PAIRS} pairs, batch {QUICK_BATCH}" in output

    def test_metrics_off_writes_nothing(self, tmp_path, capsys):
        status = main(
            ["simulate", "--quick", "--model", "GMN-Li", "--dataset", "AIDS"]
        )
        assert status == 0
        assert not (tmp_path / "results").exists()
        assert "RunReport" not in capsys.readouterr().out


class TestObsSubcommand:
    def test_validate_accepts_fresh_report(self, tmp_path, capsys):
        _, report_path = _simulate_with_obs(tmp_path)
        assert main(["obs", "show", str(report_path)]) == 0
        assert "valid RunReport" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "kind": REPORT_KIND}))
        assert main(["obs", "show", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "INVALID: missing key 'spec'" in out
        assert "== RunReport" not in out

    def test_show_non_json_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json\n")
        assert main(["obs", "show", str(bad)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"cannot read {bad}: ")
        assert len(out.splitlines()) == 1

    def test_show_missing_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["obs", "show", str(missing)]) == 1
        assert capsys.readouterr().out.startswith(f"cannot read {missing}: ")

    def test_show_names_stage_window_and_request(self, tmp_path, capsys):
        # A serving RunReport answers "which stage" (budget means, the
        # costliest first), "when" (the newest windows) and "which
        # request" (exemplar span trees, a missing tree included).
        from repro.obs import RunReport
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for stage, seconds in (("rank", 0.001), ("execute", 0.02)):
            registry.observe("search.serve.budget_seconds", seconds, stage=stage)
        windows = [
            {
                "index": i,
                "start": float(i),
                "end": float(i + 1),
                "counters": {"search.serve.admitted": 2.0, "sim.macs": 9.0},
                "rates": {"search.serve.admitted": 2.0, "sim.macs": 9.0},
            }
            for i in range(3)
        ]
        tree = {
            "request_id": 7,
            "annotations": {"status": "ok"},
            "spans": [
                {
                    "stage": "execute",
                    "duration_seconds": 0.02,
                    "attrs": {"pairs": "4"},
                    "children": [],
                }
            ],
        }
        exemplars = [
            {"request_id": 7, "latency_seconds": 0.021, "status": "ok", "tree": tree},
            {
                "request_id": 9,
                "latency_seconds": 0.5,
                "status": "expired",
                "tree": None,
            },
        ]
        path = tmp_path / "serve_report.json"
        RunReport(metrics=registry, windows=windows, exemplars=exemplars).write(path)
        capsys.readouterr()
        args = ["obs", "show", str(path), "--windows", "2"]
        assert main(args + ["--prefix", "search.serve."]) == 0
        out = capsys.readouterr().out
        stages = out.split("-- serving stages (mean seconds per request) --")[1]
        assert stages.index("execute: 0.020000s") < stages.index("rank: 0.001000s")
        assert "1 older window(s) not shown" in out
        assert "window #1" in out and "window #2" in out
        assert "window #0" not in out and "sim.macs" not in out
        assert "request 7" in out and "- execute: 20.000 ms {pairs=4}" in out
        assert "expired in 500.000 ms:" in out
        assert "request 9\n  (no span tree recorded)" in out

    def test_show_renders_report(self, tmp_path, capsys):
        _, report_path = _simulate_with_obs(tmp_path)
        capsys.readouterr()
        assert main(["obs", "show", str(report_path)]) == 0
        output = capsys.readouterr().out
        assert "== RunReport:" in output
        assert "-- metrics --" in output



class TestObsCheck:
    """``obs record`` + ``obs compare`` on RunReports."""

    def test_no_baseline_exits_2(self, tmp_path, capsys):
        _, report_path = _simulate_with_obs(tmp_path)
        capsys.readouterr()
        assert main(["obs", "compare", str(report_path)]) == 2
        assert "NO BASELINE" in capsys.readouterr().out

    def test_update_creates_baseline_then_check_is_clean(
        self, tmp_path, capsys
    ):
        _, report_path = _simulate_with_obs(tmp_path)
        capsys.readouterr()
        assert main(["obs", "record", str(report_path)]) == 0
        assert "recorded" in capsys.readouterr().out
        assert (tmp_path / "results" / "obs" / "runs").is_dir()
        # An unmodified re-check against the recorded run passes.
        assert main(["obs", "compare", str(report_path)]) == 0
        assert "OK: exact values match" in capsys.readouterr().out

    def test_perturbed_counter_fails_with_named_metric(
        self, tmp_path, capsys
    ):
        _, report_path = _simulate_with_obs(tmp_path)
        assert main(["obs", "record", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        key = "sim.macs{platform=CEGMA}"
        payload["metrics"]["counters"][key] += 1
        report_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["obs", "compare", str(report_path)]) == 1
        output = capsys.readouterr().out
        assert "REGRESSIONS" in output
        assert key in output

    def test_explicit_baseline_and_json_out(self, tmp_path, capsys):
        _, report_path = _simulate_with_obs(tmp_path)
        assert main(["obs", "record", str(report_path)]) == 0
        json_out = tmp_path / "regress.json"
        capsys.readouterr()
        status = main(
            ["obs", "compare", str(report_path), "--json-out", str(json_out)]
        )
        assert status == 0
        payload = json.loads(json_out.read_text())
        assert payload["kind"] == "repro-compare-report"
        assert payload["comparisons"][0]["status"] == "ok"


class TestObsProvenance:
    def test_experiment_output_carries_valid_stamp(self, tmp_path, capsys):
        data_path = tmp_path / "experiments.json"
        assert (
            main(["experiments", "table3", "--output", str(data_path)]) == 0
        )
        payload = json.loads(data_path.read_text())
        assert "provenance" in payload
        capsys.readouterr()
        assert main(["obs", "show", str(data_path)]) == 0
        output = capsys.readouterr().out
        assert "valid provenance" in output
        assert "table3" in output

    def test_unstamped_artifact_exits_1(self, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"data": [1, 2, 3]}))
        assert main(["obs", "show", str(bare)]) == 1
        assert "no provenance stamp" in capsys.readouterr().out

    def test_store_directory_checks_every_run(self, tmp_path, capsys):
        # The committed store passes; a copy with one corrupted stamp
        # fails and names the run.
        assert main(["obs", "show", str(COMMITTED_STORE)]) == 0
        assert "recorded run(s) carry a valid stamp" in capsys.readouterr().out
        corrupted = tmp_path / "corrupted_runs"
        shutil.copytree(COMMITTED_STORE, corrupted)
        series = corrupted / "perfbench-paper_sim.jsonl"
        lines = series.read_text().splitlines()
        entry = json.loads(lines[-1])
        entry["artifact"]["provenance"]["git_sha"] = ""
        series.write_text("\n".join(lines[:-1] + [json.dumps(entry)]) + "\n")
        assert main(["obs", "show", str(corrupted)]) == 1
        out = capsys.readouterr().out
        assert "INVALID: perfbench-paper_sim/" in out
        assert "'git_sha' must be a non-empty string" in out

        stamped = _bench_file(tmp_path)
        assert main(["obs", "record", str(stamped)]) == 0
        capsys.readouterr()
        assert main(["obs", "show", "results/obs/runs"]) == 0
        assert "all 1 recorded run(s)" in capsys.readouterr().out
        payload = json.loads(stamped.read_text())
        payload["name"] = "unstamped"
        del payload["provenance"]
        unstamped = tmp_path / "unstamped.json"
        unstamped.write_text(json.dumps(payload))
        assert main(["obs", "record", str(unstamped)]) == 0
        capsys.readouterr()
        assert main(["obs", "show", "results/obs/runs"]) == 1
        assert "INVALID: unstamped/" in capsys.readouterr().out


class TestObsDashboardAndBaselines:
    def test_baselines_lists_store_contents(self, tmp_path, capsys):
        _, report_path = _simulate_with_obs(tmp_path)
        assert main(["obs", "record", str(report_path)]) == 0
        capsys.readouterr()
        assert main(["obs", "trend"]) == 0
        output = capsys.readouterr().out
        assert f"GMN-Li_AIDS_p{QUICK_PAIRS}_b{QUICK_BATCH}_s0_quick" in output
        assert "timing:profile" in output

    def test_baselines_empty_store(self, tmp_path, capsys):
        # A store directory that holds no runs fails `show`: there is
        # nothing whose provenance could be vouched for.
        empty = tmp_path / "empty_runs"
        empty.mkdir()
        assert main(["obs", "show", str(empty)]) == 1
        assert "0 recorded run(s)" in capsys.readouterr().out


class TestProfileFlag:
    def test_simulate_profile_writes_folded_stacks(self, tmp_path, capsys):
        folded = tmp_path / "run.folded"
        status = main(
            [
                "simulate",
                "--quick",
                "--model",
                "GMN-Li",
                "--dataset",
                "AIDS",
                "--profile",
                str(folded),
            ]
        )
        assert status == 0
        assert "wrote collapsed-stack profile" in capsys.readouterr().out
        lines = folded.read_text().strip().splitlines()
        assert lines
        for line in lines:
            frames, _, weight = line.rpartition(" ")
            assert frames and weight.isdigit()


def _bench_file(tmp_path, name="unit", seconds=1.0, unique=128, stem=None):
    from repro.perf.timing import BenchReport

    report = BenchReport(name, config={"n": 4})
    report.add_timing(
        "slow",
        2.0 * seconds,
        samples=[2.0 * seconds, 2.1 * seconds, 2.05 * seconds],
    )
    report.add_timing(
        "fast", seconds, samples=[seconds, 1.01 * seconds, 0.99 * seconds]
    )
    report.repeats = 3
    report.checks["identical"] = True
    report.checks["num_unique"] = unique
    path = tmp_path / (stem or f"BENCH_{name}.json")
    path.write_text(json.dumps(report.as_dict(), sort_keys=True))
    return path


class TestObsBenchRecord:
    def test_record_is_idempotent(self, tmp_path, capsys):
        path = _bench_file(tmp_path)
        assert main(["obs", "record", str(path)]) == 0
        assert "recorded" in capsys.readouterr().out
        assert main(["obs", "record", str(path)]) == 0
        assert "already recorded" in capsys.readouterr().out
        series_file = tmp_path / "results/obs/runs/unit.jsonl"
        assert len(series_file.read_text().splitlines()) == 1

    def test_unreadable_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("not json")
        assert main(["obs", "record", str(bad)]) == 1
        assert "cannot record" in capsys.readouterr().out


class TestObsBenchCompare:
    def test_no_baseline_exits_2(self, tmp_path, capsys):
        path = _bench_file(tmp_path)
        main(["obs", "record", str(path)])
        capsys.readouterr()
        assert main(["obs", "compare"]) == 2
        assert "NO BASELINE" in capsys.readouterr().out

    def test_identical_rerun_exits_0_with_json(self, tmp_path, capsys):
        # Two identical payloads differing only in provenance time ->
        # distinct entries, identical samples: the gate must pass.
        first = _bench_file(tmp_path, stem="BENCH_first.json")
        second = tmp_path / "BENCH_second.json"
        payload = json.loads(first.read_text())
        payload["provenance"]["created_at"] = "2030-01-01T00:00:00+00:00"
        second.write_text(json.dumps(payload))
        main(["obs", "record", str(first), str(second)])
        out_json = tmp_path / "compare.json"
        status = main(["obs", "compare", "--json-out", str(out_json)])
        assert status == 0
        report = json.loads(out_json.read_text())
        assert report["comparisons"][0]["status"] == "ok"

    def test_deterministic_drift_exits_1(self, tmp_path, capsys):
        main(["obs", "record", str(_bench_file(tmp_path))])
        drifted = _bench_file(tmp_path, unique=127, stem="BENCH_drift.json")
        assert main(["obs", "compare", str(drifted)]) == 1
        assert "num_unique" in capsys.readouterr().out

    def test_timing_regression_exits_2(self, tmp_path, capsys):
        main(["obs", "record", str(_bench_file(tmp_path))])
        slower = _bench_file(tmp_path, seconds=2.5, stem="BENCH_slow.json")
        assert main(["obs", "compare", str(slower)]) == 2
        assert "timing warnings" in capsys.readouterr().out

    def test_exact_drift_fails_even_when_another_series_warns(
        self, tmp_path, capsys
    ):
        # Series aaa: a bench check flips from True to False (exit 1).
        # Series bbb: one run, so no baseline (exit 2). The gate must
        # still fail, or CI would only warn about the drift.
        first = _bench_file(tmp_path, name="aaa")
        flipped = json.loads(first.read_text())
        flipped["checks"]["identical"] = False
        flipped["provenance"]["created_at"] = "2030-01-01T00:00:00+00:00"
        second = tmp_path / "BENCH_aaa_flipped.json"
        second.write_text(json.dumps(flipped))
        other = _bench_file(tmp_path, name="bbb")
        assert main(["obs", "record", str(first), str(second), str(other)]) == 0
        capsys.readouterr()
        assert main(["obs", "compare"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out and "identical" in out
        assert "NO BASELINE" in out

    def test_empty_history_exits_2(self, tmp_path, capsys):
        assert main(["obs", "compare"]) == 2
        assert "no runs recorded" in capsys.readouterr().out


class TestObsBenchTrend:
    def test_trend_renders_and_writes_json(self, tmp_path, capsys):
        main(["obs", "record", str(_bench_file(tmp_path))])
        capsys.readouterr()
        out_json = tmp_path / "trend.json"
        assert main(["obs", "trend", "--json-out", str(out_json)]) == 0
        assert "timing:fast" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert payload["trends"][0]["series"] == "unit"

    def test_empty_history_exits_2(self, tmp_path, capsys):
        assert main(["obs", "trend"]) == 2


class TestObsTailEmptyLog:
    def test_empty_window_log_exits_0(self, tmp_path, capsys):
        log = tmp_path / "windows.jsonl"
        log.write_text("")
        assert main(["obs", "show", str(log)]) == 0
        assert "no windows recorded" in capsys.readouterr().out

    def test_unreadable_source_still_exits_1(self, tmp_path, capsys):
        assert main(["obs", "show", str(tmp_path / "missing.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().out


class TestBenchForwarding:
    def test_arguments_reach_bench_main_verbatim(self, monkeypatch):
        captured = {}

        def fake_main(argv):
            captured["argv"] = list(argv)
            return 0

        import repro.perf.bench as bench_module

        monkeypatch.setattr(bench_module, "main", fake_main)
        forwarded = ["--quick", "--repeats", "1", "--store", "runs"]
        assert main(["bench", *forwarded]) == 0
        assert captured["argv"] == forwarded

    def test_unknown_arguments_rejected_outside_bench(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["platforms", "--repeats", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

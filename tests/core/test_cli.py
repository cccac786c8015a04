"""Tests for the command-line interface."""

import pytest

from repro.__main__ import main


class TestSimulate:
    def test_default_platforms(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--model",
                    "SimGNN",
                    "--dataset",
                    "AIDS",
                    "--pairs",
                    "2",
                    "--batch",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "CEGMA" in out
        assert "PyG-CPU" in out

    def test_platform_subset(self, capsys):
        main(
            [
                "simulate",
                "--model",
                "SimGNN",
                "--dataset",
                "AIDS",
                "--pairs",
                "2",
                "--batch",
                "2",
                "--platforms",
                "CEGMA",
            ]
        )
        out = capsys.readouterr().out
        assert "CEGMA" in out
        assert "HyGCN" not in out

    def test_detailed_mode(self, capsys):
        main(
            [
                "simulate",
                "--model",
                "SimGNN",
                "--dataset",
                "AIDS",
                "--pairs",
                "2",
                "--batch",
                "2",
                "--platforms",
                "CEGMA",
                "--detailed",
            ]
        )
        assert "[detailed mode]" in capsys.readouterr().out

    def test_invalid_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--model", "GNN-X", "--dataset", "AIDS"])


class TestProfileReplay:
    def test_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "traces.npz")
        assert (
            main(
                [
                    "profile",
                    "--model",
                    "SimGNN",
                    "--dataset",
                    "AIDS",
                    "--pairs",
                    "2",
                    "--batch",
                    "2",
                    "--output",
                    path,
                ]
            )
            == 0
        )
        assert "wrote 1 batch traces" in capsys.readouterr().out
        assert (
            main(["replay", "--input", path, "--platforms", "CEGMA"]) == 0
        )
        assert "replayed" in capsys.readouterr().out

    def test_missing_input_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "missing.npz"
        assert main(["replay", "--input", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"cannot read traces from {path}: ")
        assert "Traceback" not in out

    def test_non_trace_npz_is_a_clean_error(self, tmp_path, capsys):
        import numpy as np

        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.arange(3))
        assert main(["replay", "--input", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"cannot read traces from {path}: ")
        assert "no 'manifest' member" in out


class TestExperiments:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "table3"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["experiments", "fig99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestRenderSchedule:
    def test_step_table_printed(self, capsys):
        assert (
            main(
                [
                    "render-schedule",
                    "--dataset",
                    "AIDS",
                    "--scheme",
                    "joint",
                    "--capacity",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "input nodes" in out
        assert "joint" in out

    def test_matrix_flag(self, capsys):
        main(
            [
                "render-schedule",
                "--dataset",
                "AIDS",
                "--capacity",
                "6",
                "--matrix",
            ]
        )
        out = capsys.readouterr().out
        # Header row of the annotated adjacency matrix.
        assert " a " in out or " a\n" in out

    def test_plot_flag_on_experiments(self, capsys):
        main(["experiments", "fig08", "--plot"])
        out = capsys.readouterr().out
        assert "Window-scheme" in out


class TestDescribe:
    def test_profiled_workload(self, capsys):
        assert (
            main(
                [
                    "describe",
                    "--model",
                    "SimGNN",
                    "--dataset",
                    "AIDS",
                    "--pairs",
                    "2",
                    "--batch",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "match_flop_share" in out

    def test_from_trace_file(self, tmp_path, capsys):
        path = str(tmp_path / "t.npz")
        main(
            [
                "profile",
                "--model",
                "SimGNN",
                "--dataset",
                "AIDS",
                "--pairs",
                "2",
                "--batch",
                "2",
                "--output",
                path,
            ]
        )
        capsys.readouterr()
        assert main(["describe", "--input", path]) == 0
        assert "SimGNN" in capsys.readouterr().out

    def test_non_npz_input_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "notes.npz"
        path.write_text("not an archive\n")
        assert main(["describe", "--input", str(path)]) == 1
        assert capsys.readouterr().out == (
            f"cannot read traces from {path}: not an .npz archive\n"
        )


class TestCustomConfig:
    def test_config_file_adds_platform(self, tmp_path, capsys):
        import json

        from repro.sim import cegma_config

        payload = cegma_config().to_dict()
        payload["name"] = "MyChip"
        path = tmp_path / "chip.json"
        path.write_text(json.dumps(payload))
        main(
            [
                "simulate",
                "--model",
                "SimGNN",
                "--dataset",
                "AIDS",
                "--pairs",
                "2",
                "--batch",
                "2",
                "--platforms",
                "CEGMA",
                "--config",
                str(path),
            ]
        )
        out = capsys.readouterr().out
        assert "MyChip" in out

    def test_detailed_config_runs_detailed_simulator(self, tmp_path, capsys):
        """A config file identical to CEGMA reads exactly CEGMA's row
        under --detailed: the custom platform runs per window step too."""
        import json

        from repro.sim import cegma_config

        payload = cegma_config().to_dict()
        payload["name"] = "MyChip"
        path = tmp_path / "chip.json"
        path.write_text(json.dumps(payload))
        argv = [
            "simulate",
            "--model",
            "GMN-Li",
            "--dataset",
            "AIDS",
            "--pairs",
            "4",
            "--batch",
            "2",
            "--platforms",
            "CEGMA",
            "--config",
            str(path),
        ]

        def rows(out):
            return {
                line.split()[0]: line.split()[1:]
                for line in out.splitlines()
                if line.startswith(("CEGMA ", "MyChip "))
            }

        assert main(argv + ["--detailed"]) == 0
        detailed = rows(capsys.readouterr().out)
        assert detailed["MyChip"] == detailed["CEGMA"]
        assert main(argv) == 0
        analytic = rows(capsys.readouterr().out)
        assert analytic["MyChip"] == analytic["CEGMA"]
        assert detailed["CEGMA"] != analytic["CEGMA"]

    @pytest.mark.parametrize(
        "extra", [["--detailed"], ["--config", "chip.json"]]
    )
    def test_jobs_rejected_with_detailed_or_config(self, extra, capsys):
        argv = [
            "simulate",
            "--model",
            "SimGNN",
            "--dataset",
            "AIDS",
            "--pairs",
            "2",
            "--batch",
            "2",
            "--jobs",
            "2",
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + extra)
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestExperimentJsonOutput:
    def test_output_file_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "data.json"
        main(["experiments", "table3", "--output", str(path)])
        payload = json.loads(path.read_text())
        assert "table3" in payload
        assert abs(payload["table3"]["data"]["total_mm2"] - 6.3) < 0.5


class TestPlatformsCommand:
    def test_lists_registry(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        for name in ("CEGMA", "AWB-GCN", "PyG-CPU"):
            assert name in out
        assert "bandwidth_gbps" in out

    def test_spec_string_platform(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--model",
                    "SimGNN",
                    "--dataset",
                    "AIDS",
                    "--pairs",
                    "2",
                    "--batch",
                    "2",
                    "--platforms",
                    "CEGMA@bandwidth_gbps=512",
                ]
            )
            == 0
        )
        assert "CEGMA@bandwidth_gbps=512" in capsys.readouterr().out

    def test_unknown_platform_lists_known(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate",
                    "--model",
                    "SimGNN",
                    "--dataset",
                    "AIDS",
                    "--platforms",
                    "NotAPlatform",
                ]
            )
        err = capsys.readouterr().err
        assert "NotAPlatform" in err
        assert "CEGMA" in err

    def test_bad_spec_override_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate",
                    "--model",
                    "SimGNN",
                    "--dataset",
                    "AIDS",
                    "--platforms",
                    "CEGMA@warp_drive=1",
                ]
            )
        assert "warp_drive" in capsys.readouterr().err

    def test_save_writes_artifact(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "simulate",
                    "--model",
                    "SimGNN",
                    "--dataset",
                    "AIDS",
                    "--pairs",
                    "2",
                    "--batch",
                    "2",
                    "--platforms",
                    "CEGMA",
                    "--save",
                ]
            )
            == 0
        )
        from repro.platforms import load_results

        artifacts = list((tmp_path / "results").glob("*.json"))
        assert len(artifacts) == 1
        results, spec = load_results(artifacts[0])
        assert "CEGMA" in results
        assert spec.model == "SimGNN"
        assert spec.num_pairs == 2


class TestServe:
    def test_quick_stream_fully_served(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "serve.json"
        assert (
            main(["serve", "--quick", "--json-out", str(out_path)]) == 0
        )
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "serve_report"
        stats = payload["stats"]
        assert stats["rejected_submissions"] == 0
        assert stats["served"] == payload["config"]["num_queries"]
        assert stats["latency_p99_seconds"] >= stats["latency_p50_seconds"]
        out = capsys.readouterr().out
        assert "admitted" in out

    def test_policy_applies(self, tmp_path):
        import json

        out_path = tmp_path / "serve.json"
        assert (
            main(
                [
                    "serve",
                    "--quick",
                    "--policy",
                    "size_bucketed",
                    "--json-out",
                    str(out_path),
                ]
            )
            == 0
        )
        payload = json.loads(out_path.read_text())
        assert payload["config"]["policy"] == "size_bucketed"

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--policy", "bogus"])

    def test_json_out_carries_provenance(self, tmp_path):
        import json

        from repro.obs.provenance import read_stamp, validate_stamp

        out_path = tmp_path / "serve.json"
        assert (
            main(["serve", "--quick", "--json-out", str(out_path)]) == 0
        )
        payload = json.loads(out_path.read_text())
        stamp = read_stamp(payload)
        assert stamp is not None
        assert validate_stamp(stamp) == []
        assert stamp["generator"] == "repro serve"
        assert stamp["spec"] is not None
        # `obs show` checks a serve payload by its stamp.
        assert main(["obs", "show", str(out_path)]) == 0


class TestServeTelemetry:
    def test_request_trace_prints_slowest_tree(self, capsys):
        assert main(["serve", "--quick", "--request-trace"]) == 0
        out = capsys.readouterr().out
        assert "slowest request" in out
        for stage in ("admission", "schedule", "execute", "rank"):
            assert f"- {stage}:" in out
        assert "tracked_requests" in out
        assert "dropped_spans" in out

    def test_windowed_run_produces_all_artifacts(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "serve",
                    "--quick",
                    "--request-trace",
                    "--window-seconds",
                    "0.05",
                    "--window-log",
                    "windows.jsonl",
                    "--expo",
                    "serve.prom",
                    "--metrics",
                ]
            )
            == 0
        )
        # The window log replays through obs show.
        assert main(["obs", "show", "windows.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "window #" in out
        assert "search.serve.admitted" in out
        # The exposition carries lifetime histograms and window gauges.
        expo = (tmp_path / "serve.prom").read_text()
        assert "# TYPE repro_search_serve_latency_seconds histogram" in expo
        assert 'repro_window{field="index"}' in expo
        # The RunReport is schema v3 with both telemetry sections.
        (report_path,) = (tmp_path / "results" / "obs").glob("*_report.json")
        payload = json.loads(report_path.read_text())
        assert payload["schema_version"] == 3
        assert payload["windows"]
        assert payload["exemplars"]
        capsys.readouterr()
        assert main(["obs", "show", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "valid RunReport" in out and "window #" in out
        assert "-- serving stages (mean seconds per request) --" in out
        assert "- execute:" in out

    def test_tail_prefix_filter_and_window_bound(self, tmp_path, capsys):
        import json

        log = tmp_path / "windows.jsonl"
        entries = [
            {
                "index": i,
                "start": float(i),
                "end": float(i + 1),
                "counters": {"search.serve.admitted": 2.0, "sim.macs": 9.0},
                "rates": {"search.serve.admitted": 2.0, "sim.macs": 9.0},
                "gauges": {},
                "histograms": {},
            }
            for i in range(4)
        ]
        log.write_text(
            "\n".join(json.dumps(entry) for entry in entries) + "\n"
        )
        assert (
            main(
                [
                    "obs",
                    "show",
                    str(log),
                    "--windows",
                    "2",
                    "--prefix",
                    "search.serve.",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 older window(s) not shown" in out
        assert "window #2" in out and "window #3" in out
        assert "window #1" not in out
        assert "sim.macs" not in out
        # A one-window log is one JSON object, still read as a log.
        log.write_text(json.dumps(entries[0]) + "\n")
        assert main(["obs", "show", str(log)]) == 0
        assert "window #0" in capsys.readouterr().out

    def test_tail_missing_source_fails_but_empty_log_is_ok(
        self, tmp_path, capsys
    ):
        # An unreadable source is an error; an empty (zero-window) log
        # is a normal outcome of a short run and exits cleanly.
        assert main(["obs", "show", str(tmp_path / "nope.jsonl")]) == 1
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "show", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "no windows recorded" in out

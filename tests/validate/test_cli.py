"""The ``repro validate`` subcommand: output, exit codes, JSON report."""

import json

from repro.__main__ import main


class TestList:
    def test_lists_checks(self, capsys):
        assert main(["validate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "emf.hash.scalar_vs_batch" in out
        assert "cgc.schedule_invariants" in out
        assert "differential" in out
        assert "invariant" in out


class TestRun:
    def test_single_check_passes(self, capsys):
        assert (
            main(
                ["validate", "--quick", "--only", "emf.hash.scalar_vs_batch"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "1/1 checks passed" in out

    def test_unknown_check_is_usage_error(self, capsys):
        assert main(["validate", "--only", "no.such.check"]) == 2
        assert "unknown check" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "validate_report.json"
        assert (
            main(
                [
                    "validate",
                    "--quick",
                    "--only",
                    "emf.quantization_single_site",
                    "--only",
                    "cgc.degenerate_inputs",
                    "--json-out",
                    str(report),
                ]
            )
            == 0
        )
        payload = json.loads(report.read_text())
        assert payload["kind"] == "validate_report"
        assert payload["schema_version"] == 1
        assert payload["quick"] is True
        names = [row["name"] for row in payload["results"]]
        assert names == [
            "emf.quantization_single_site",
            "cgc.degenerate_inputs",
        ]
        assert all(row["status"] == "pass" for row in payload["results"])
        assert any(
            key.startswith("validate.checks.run")
            for key in payload["counters"]
        )

    def test_failing_check_exits_one(self, monkeypatch, capsys):
        from repro.validate.registry import CheckResult

        def fake_run_checks(names=None, quick=True):
            return [
                CheckResult(
                    "emf.quantization_single_site",
                    "invariant",
                    None,
                    "fail",
                    "forced divergence",
                    0.0,
                )
            ]

        monkeypatch.setattr("repro.validate.run_checks", fake_run_checks)
        assert (
            main(
                [
                    "validate",
                    "--quick",
                    "--only",
                    "emf.quantization_single_site",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "forced divergence" in out


class TestSmoke:
    def test_smoke_single_check(self, tmp_path, capsys):
        report = tmp_path / "smoke.json"
        assert (
            main(
                [
                    "validate",
                    "--quick",
                    "--smoke",
                    "--only",
                    "emf.quantization_single_site",
                    "--json-out",
                    str(report),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tripped" in out
        payload = json.loads(report.read_text())
        assert payload["kind"] == "validate_smoke_report"
        assert all(row["tripped"] for row in payload["mutations"])

    def test_metric_free_legs_run_without_a_registry(self, capsys):
        # The CLI used to wrap every check in a live registry, so the
        # metric-free batched legs took the scalar kernel and this
        # mutator of the batch GEMM kernel went unnoticed.
        assert (
            main(
                [
                    "validate",
                    "--quick",
                    "--smoke",
                    "--only",
                    "sim.batched_vs_serial",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert (
            "tripped  sim.batched_vs_serial :: gemm_batch_kernel_off_by_one"
            in out
        )
        assert "MISSED" not in out

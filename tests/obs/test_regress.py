"""Tests for the gate on RunReports and the Comparison schema."""

import pytest

from repro.obs.analytics import Comparison, compare
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport
from repro.obs.store import DETERMINISTIC_PREFIXES, ingest, is_deterministic
from repro.perf.timing import StageTimer
from repro.platforms import RunSpec

SPEC = RunSpec.make("GMN-Li", "AIDS", 4, 4, 0)


def _report(macs=100.0, hits=5.0, simulate_s=1.0, occupancy=(4, 8)):
    registry = MetricsRegistry()
    registry.inc("sim.macs", macs, platform="CEGMA")
    registry.inc("harness.trace_memo.hit", hits)
    for value in occupancy:
        registry.observe("cgc.window.occupancy", value, platform="CEGMA")
    timer = StageTimer()
    timer.record("simulate", simulate_s)
    return RunReport(
        spec=SPEC,
        metrics=registry,
        timer=timer,
        created_at="2026-08-07T00:00:00Z",
        git_sha="deadbeef",
    )


def _compare(baseline, current):
    return compare([ingest(baseline.to_dict())], ingest(current.to_dict()))


class TestPolicy:
    def test_default_prefixes_cover_sim_layers(self):
        for name in (
            "sim.macs{platform=CEGMA}",
            "emf.filter.calls",
            "cgc.window.advances",
            "dram.bytes{pattern=row}",
            "pe.gemm.cycles",
        ):
            assert is_deterministic(name), name

    def test_environmental_counters_excluded(self):
        for name in (
            "harness.trace_memo.hit",
            "perf.parallel.shm_failures{kind=OSError}",
            "perf.parallel.worker_failures",
        ):
            assert not is_deterministic(name), name

    def test_prefixes_constant_is_policy_default(self):
        for prefix in DETERMINISTIC_PREFIXES:
            assert is_deterministic(prefix + "x"), prefix

    def test_serving_counters_split_by_determinism(self):
        # Fixed stream + fixed seed => these replay exactly.
        for name in (
            "search.serve.admitted",
            "search.serve.rejected",
            "search.serve.batches",
            "search.serve.deduped_requests",
            "search.serve.candidate_dedup_hits{platform=CEGMA}",
        ):
            assert is_deterministic(name), name
        # Timing-coupled serving metrics must never gate CI.
        for name in (
            "search.serve.expired",
            "search.serve.responses{status=ok}",
            "search.serve.queue_depth",
            "search.serve.latency_seconds",
            "search.serve.budget_seconds{stage=execute}",
            "obs.context.dropped_spans",
        ):
            assert not is_deterministic(name), name


class TestCompare:
    def test_identical_reports_are_ok(self):
        result = _compare(_report(), _report())
        assert result.ok
        assert "OK" in result.render()

    def test_deterministic_counter_drift_is_regression(self):
        result = _compare(_report(macs=100), _report(macs=101))
        assert not result.ok
        assert result.findings[0].name == "sim.macs{platform=CEGMA}"
        assert "sim.macs{platform=CEGMA}" in result.render()

    def test_environmental_counter_drift_is_info_only(self):
        result = _compare(_report(hits=5), _report(hits=50))
        assert result.ok
        assert any(
            info.name == "harness.trace_memo.hit" for info in result.infos
        )

    def test_missing_deterministic_counter_is_regression(self):
        baseline = _report()
        current = _report()
        baseline.metrics.inc("sim.layers", 5, platform="CEGMA")
        result = _compare(baseline, current)
        assert not result.ok
        assert "missing from run" in result.findings[0].detail

    def test_new_deterministic_counter_is_regression(self):
        baseline = _report()
        current = _report()
        current.metrics.inc("sim.new_thing", 1)
        result = _compare(baseline, current)
        assert not result.ok
        assert "not in baseline" in result.findings[0].detail

    def test_histogram_drift_is_regression(self):
        result = _compare(
            _report(occupancy=(4, 8)), _report(occupancy=(4, 9))
        )
        assert not result.ok
        assert result.findings[0].kind == "histogram"

    def test_spec_mismatch_is_finding(self):
        other = _report()
        current = RunReport(
            spec=RunSpec.make("SimGNN", "AIDS", 4, 4, 0),
            metrics=other.metrics,
            created_at="2026-08-07T00:00:00Z",
            git_sha="deadbeef",
        )
        result = _compare(_report(), current)
        assert not result.ok
        assert result.findings[0].kind == "spec"


class TestTimingTolerance:
    """A stage timing is one reading, so it takes the ratio band."""

    def test_drift_beyond_band_is_regression(self):
        result = _compare(
            _report(simulate_s=1.0), _report(simulate_s=2.2)
        )
        assert not result.ok
        assert result.exit_code == 2
        assert result.warnings[0].kind == "timing"
        assert "ratio-fallback" in result.warnings[0].detail

    def test_speedup_never_fails(self):
        result = _compare(
            _report(simulate_s=2.0), _report(simulate_s=0.5)
        )
        assert result.ok
        assert any("improved" in info.detail for info in result.infos)

    def test_drift_within_band_is_ok(self):
        result = _compare(
            _report(simulate_s=1.0), _report(simulate_s=1.2)
        )
        assert result.ok


class TestRegressionReportSchema:
    def test_round_trip(self):
        result = _compare(_report(macs=1), _report(macs=2))
        restored = Comparison.from_dict(result.to_dict())
        assert restored.findings == result.findings
        assert restored.infos == result.infos
        assert restored.ok == result.ok

    def test_future_version_rejected(self):
        payload = _compare(_report(), _report()).to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="99"):
            Comparison.from_dict(payload)

    def test_wrong_kind_rejected(self):
        payload = _compare(_report(), _report()).to_dict()
        payload["kind"] = "nope"
        with pytest.raises(ValueError, match="kind"):
            Comparison.from_dict(payload)

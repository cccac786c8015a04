"""Tests for the noise-aware bench analytics: gates, trends, stage means."""

import random

import pytest

from repro.obs import analytics
from repro.obs.analytics import (
    Comparison,
    compare,
    detect_changepoints,
    mad,
    median,
    metric_series,
    render_trend,
    stage_budget_means,
    timing_decision,
    trend_report,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport
from repro.obs.store import RunStore, ingest, is_environmental_check


def _entry(seconds=1.0, noise=0.0, seed=0, checks=None, config=None, tag=""):
    """One bench run with five noisy samples around ``seconds``."""
    rng = random.Random(seed)
    samples = [
        seconds * (1.0 + rng.uniform(-noise, noise)) for _ in range(5)
    ]
    return ingest(
        {
            "schema_version": 2,
            "name": "unit",
            "provenance": {
                "git_sha": f"sha{seed:04d}",
                "created_at": "2026-08-08T00:00:00+00:00",
                "generator": f"test{tag}",
            },
            "config": dict(config or {"n": 4}),
            "timings": {"fast": min(samples)},
            "samples": {"fast": samples},
            "repeats": 5,
            "checks": dict(checks or {"identical": True, "num_unique": 128}),
        }
    )


class TestRobustStats:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_mad_of_constant_is_zero(self):
        assert mad([5.0, 5.0, 5.0]) == 0.0


class TestTimingDecision:
    def test_identical_samples_never_regress(self):
        samples = [1.0, 1.02, 0.98, 1.01, 0.99]
        verdict = timing_decision(samples, list(samples))
        assert verdict["decision"] == "ok"
        assert verdict["method"] == "ci-overlap"

    def test_injected_2x_slowdown_always_flagged_across_seeds(self):
        # Acceptance property: a genuine 2x slowdown is flagged on
        # every one of 50 seeds, at realistic (5%) repeat noise.
        for seed in range(50):
            rng = random.Random(seed)
            base = [1.0 + rng.uniform(-0.05, 0.05) for _ in range(5)]
            slow = [2.0 + rng.uniform(-0.1, 0.1) for _ in range(5)]
            verdict = timing_decision(base, slow)
            assert verdict["decision"] == "regressed", (seed, verdict)

    def test_identical_distribution_never_flagged_across_seeds(self):
        # Symmetric acceptance property: re-sampling the same
        # distribution is never called a regression on any seed.
        for seed in range(50):
            rng = random.Random(seed)
            base = [1.0 + rng.uniform(-0.05, 0.05) for _ in range(5)]
            rerun = [1.0 + rng.uniform(-0.05, 0.05) for _ in range(5)]
            verdict = timing_decision(base, rerun)
            assert verdict["decision"] == "ok", (seed, verdict)

    def test_improvement_is_symmetric(self):
        base = [2.0, 2.02, 1.98, 2.01, 1.99]
        fast = [1.0, 1.01, 0.99, 1.0, 1.0]
        assert timing_decision(base, fast)["decision"] == "improved"

    def test_single_sample_falls_back_to_ratio_band(self):
        verdict = timing_decision([1.0], [1.3])
        assert verdict["method"] == "ratio-fallback"
        assert verdict["decision"] == "ok"
        assert timing_decision([1.0], [2.2])["decision"] == "regressed"
        assert timing_decision([2.2], [1.0])["decision"] == "improved"

    def test_empty_side_is_no_data(self):
        assert timing_decision([], [1.0])["decision"] == "no-data"
        assert timing_decision([1.0], [])["decision"] == "no-data"

    def test_min_effect_suppresses_significant_but_tiny_shifts(self):
        # Disjoint intervals but only a ~2% shift: below bench_min_effect.
        base = [1.0, 1.0001, 0.9999, 1.0, 1.0]
        shifted = [1.02, 1.0201, 1.0199, 1.02, 1.02]
        assert timing_decision(base, shifted)["decision"] == "ok"

    def test_higher_is_better_flips_the_verdict(self):
        base = [2.0, 2.02, 1.98, 2.01, 1.99]
        half = [1.0, 1.01, 0.99, 1.0, 1.0]
        assert timing_decision(base, half, better="higher")["decision"] == "regressed"
        assert timing_decision(half, base, better="higher")["decision"] == "improved"
        # A 4% drop is inside a 5% bound, however tight the intervals.
        drop = [1.92, 1.9201, 1.9199, 1.92, 1.92]
        verdict = timing_decision(base, drop, better="higher", min_effect=0.05)
        assert verdict["decision"] == "ok"

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="better"):
            timing_decision([1.0], [1.0], better="faster")


class TestCompareEntry:
    def test_byte_identical_rerun_exits_0(self):
        baseline = _entry(seed=1)
        rerun = _entry(seed=1, tag="rerun")  # same samples, new id
        result = compare([baseline], rerun)
        assert result.status == "ok"
        assert result.exit_code == 0

    def test_deterministic_check_drift_exits_1(self):
        baseline = _entry(checks={"identical": True, "num_unique": 128})
        drifted = _entry(
            seed=2, checks={"identical": True, "num_unique": 127}
        )
        result = compare([baseline], drifted)
        assert result.exit_code == 1
        assert any(f.name == "num_unique" for f in result.findings)

    def test_timing_regression_exits_2(self):
        baseline = _entry(seconds=1.0, noise=0.02, seed=3)
        slower = _entry(seconds=2.0, noise=0.02, seed=4)
        result = compare([baseline], slower)
        assert result.status == "warned"
        assert result.exit_code == 2
        assert any(f.name == "fast" for f in result.warnings)

    def test_explicit_exact_duplicate_of_recorded_entry_passes(self):
        # An explicit candidate that is already in the history (same
        # content digest) is a pass, not a missing baseline...
        recorded = _entry(seed=1)
        result = compare([recorded], recorded)
        assert result.status == "ok"
        assert result.exit_code == 0
        # ...but the default newest-vs-predecessor shape still reports
        # a sole recorded entry as having no baseline.
        assert compare([recorded]).status == "no-baseline"

    def test_no_comparable_baseline_exits_2(self):
        candidate = _entry()
        assert compare([], candidate).exit_code == 2
        # A prior entry under a different config is not comparable.
        other_config = _entry(config={"n": 9999}, tag="othercfg")
        result = compare([other_config], candidate)
        assert result.status == "no-baseline"
        assert result.exit_code == 2

    def test_environmental_checks_are_info_only(self):
        baseline = _entry(
            checks={"identical": True, "queries_per_second": 10.0}
        )
        current = _entry(
            seed=5, checks={"identical": True, "queries_per_second": 5.0}
        )
        result = compare([baseline], current)
        assert result.exit_code == 0
        assert any(
            info.name == "queries_per_second" for info in result.infos
        )

    def test_gates_against_latest_comparable_not_oldest(self):
        old = _entry(checks={"num_unique": 100}, tag="old")
        new = _entry(checks={"num_unique": 128}, seed=6, tag="new")
        candidate = _entry(checks={"num_unique": 128}, seed=7, tag="cand")
        result = compare([old, new], candidate)
        assert result.exit_code == 0


class TestCompareHistory:
    def test_gates_newest_entry_per_bench(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(_entry(seed=1))
        store.append(_entry(seed=1, tag="rerun"))
        results = [compare(store.read(name)) for name in store.series()]
        assert [r.series for r in results] == ["unit"]
        assert results[0].exit_code == 0

    def test_explicit_candidate_not_required_on_file(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(_entry(seed=1))
        candidate = _entry(seconds=2.5, seed=2, tag="cand")
        result = compare(store.read("unit"), candidate)
        assert result.exit_code == 2  # statistical regression
        assert len(store.read("unit")) == 1

    def test_empty_history_reports_no_baseline(self, tmp_path):
        result = compare(RunStore(tmp_path).read("ghost"))
        assert result.status == "no-baseline"
        assert result.exit_code == 2


class TestExitCodeContract:
    def test_findings_dominate_warnings(self):
        comparison = Comparison(series="unit")
        comparison.findings.append(object())  # any truthy content
        comparison.warnings.append(object())
        assert comparison.exit_code == 1

    def test_render_mentions_status(self):
        comparison = Comparison(series="unit", status="no-baseline")
        assert "NO BASELINE" in comparison.render()


class TestChangepoints:
    def test_injected_2x_shift_always_flagged_across_seeds(self):
        for seed in range(50):
            rng = random.Random(seed)
            series = [1.0 + rng.uniform(-0.05, 0.05) for _ in range(8)]
            series += [2.0 + rng.uniform(-0.1, 0.1) for _ in range(3)]
            flagged = detect_changepoints(series)
            assert 8 in flagged, (seed, flagged)

    def test_stable_noisy_series_never_flagged_across_seeds(self):
        for seed in range(50):
            rng = random.Random(seed)
            series = [1.0 + rng.uniform(-0.05, 0.05) for _ in range(12)]
            assert detect_changepoints(series) == [], seed

    def test_constant_series_has_no_changepoints(self):
        assert detect_changepoints([3.0] * 10) == []

    def test_none_gaps_are_skipped(self):
        series = [1.0, None, 1.0, 1.0, None, 5.0]
        assert detect_changepoints(series) == [5]

    def test_window_below_2_raises(self):
        with pytest.raises(ValueError):
            detect_changepoints([1.0, 2.0], window=1)


class TestTrend:
    def test_trend_report_shape_and_render(self):
        entries = [
            _entry(seconds=1.0, seed=i, tag=str(i)) for i in range(4)
        ]
        report = trend_report(entries)
        assert report["kind"] == "repro-trend"
        assert report["series"] == "unit"
        assert len(report["points"]) == 4
        assert list(report["metrics"]) == ["timing:fast"]
        text = render_trend(report)
        assert "timing:fast" in text

    def test_changepoint_marked_in_render(self):
        entries = [
            _entry(seconds=1.0, seed=i, tag=str(i)) for i in range(6)
        ] + [_entry(seconds=3.0, seed=99, tag="shift")]
        report = trend_report(entries)
        assert report["metrics"]["timing:fast"]["changepoints"]
        assert "changepoint at entry" in render_trend(report)

    def test_metric_series_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="metric kind"):
            metric_series([_entry()], "bogus:thing")


def _serving_report(execute_seconds):
    registry = MetricsRegistry()
    for value in (execute_seconds, execute_seconds):
        registry.observe(
            "search.serve.budget_seconds", value, stage="execute"
        )
        registry.observe("search.serve.budget_seconds", 0.001, stage="rank")
    registry.observe("search.serve.latency_seconds", 2 * execute_seconds)
    return RunReport(metrics=registry)


class TestStageAttribution:
    def test_budget_means_extracted_per_stage(self):
        means = stage_budget_means(_serving_report(0.01))
        assert set(means) == {"execute", "rank"}
        assert means["execute"] == pytest.approx(0.01)

    def test_report_without_budget_histograms_is_empty(self):
        assert stage_budget_means(RunReport(metrics=MetricsRegistry())) == {}

    def test_policy_knobs_are_carried_by_regression_policy(self):
        assert analytics.MIN_SAMPLES >= 2
        assert is_environmental_check("queries_per_second")
        assert is_environmental_check("latency_p50_seconds")
        assert not is_environmental_check("num_unique")

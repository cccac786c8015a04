"""Tests for the static HTML dashboard over the run store."""

import pytest

from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport
from repro.obs.store import RunStore
from repro.perf.timing import StageTimer
from repro.platforms import RunSpec

SPEC = RunSpec.make("GMN-Li", "AIDS", 4, 4, 0)


def _report(created_at, macs, simulate_s=1.0, windows=None, exemplars=None):
    registry = MetricsRegistry()
    registry.inc("sim.macs", macs, platform="CEGMA")
    registry.inc("harness.trace_memo.hit", 3)
    timer = StageTimer()
    timer.record("simulate", simulate_s)
    return RunReport(
        spec=SPEC,
        metrics=registry,
        timer=timer,
        created_at=created_at,
        git_sha="deadbeef",
        windows=windows,
        exemplars=exemplars,
    )


def _window(index, p50):
    return {
        "index": index,
        "start": float(index),
        "end": float(index + 1),
        "counters": {},
        "rates": {},
        "gauges": {},
        "histograms": {
            "search.serve.latency_seconds": {
                "count": 4.0,
                "sum": 4 * p50,
                "mean": p50,
                "p50": p50,
                "p99": 2 * p50,
            }
        },
    }


def _exemplar(request_id, latency, status="ok"):
    return {
        "request_id": request_id,
        "latency_seconds": latency,
        "status": status,
        "tree": {
            "request_id": request_id,
            "annotations": {"batch": "0"},
            "spans": [
                {
                    "stage": "execute",
                    "start": 0.0,
                    "duration_seconds": latency,
                    "attrs": {},
                    "children": [],
                }
            ],
        },
    }


def _save(store, report):
    return store.append(report.to_dict())


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs")


class TestRender:
    def test_empty_store_renders_hint(self, store):
        page = render_dashboard(store)
        assert "<!doctype html>" in page
        assert "No RunReports recorded yet" in page
        assert "obs record" in page

    def test_history_renders_sparkline_and_counters(self, store):
        _save(store, _report("2026-08-05T00:00:00Z", macs=100))
        _save(store, _report("2026-08-06T00:00:00Z", macs=110))
        page = render_dashboard(store)
        assert SPEC.stem in page
        assert "sim.macs{platform=CEGMA}" in page
        assert "<polyline" in page
        assert "deadbeef" in page
        # The newest-vs-previous delta: 100 -> 110 is +10%.
        assert "+10.00%" in page

    def test_environmental_counters_excluded(self, store):
        _save(store, _report("2026-08-05T00:00:00Z", macs=100))
        _save(store, _report("2026-08-06T00:00:00Z", macs=110))
        page = render_dashboard(store)
        assert "harness.trace_memo.hit" not in page

    def test_stage_seconds_included(self, store):
        _save(store, _report("2026-08-05T00:00:00Z", macs=1, simulate_s=1.0))
        _save(store, _report("2026-08-06T00:00:00Z", macs=1, simulate_s=2.0))
        page = render_dashboard(store)
        assert "stage seconds" in page
        assert "simulate" in page

    def test_single_point_has_no_sparkline(self, store):
        _save(store, _report("2026-08-05T00:00:00Z", macs=100))
        page = render_dashboard(store)
        assert "<polyline" not in page
        assert "sim.macs{platform=CEGMA}" in page

    def test_max_points_bounds_history(self, store):
        for day in range(1, 8):
            _save(store, _report(f"2026-08-0{day}T00:00:00Z", macs=day))
        page = render_dashboard(store, max_points=2)
        assert "2 run(s)" in page

    def test_no_external_assets(self, store):
        _save(store, _report("2026-08-05T00:00:00Z", macs=100))
        page = render_dashboard(store)
        assert "http://" not in page and "https://" not in page
        assert "<script" not in page


class TestServingPanels:
    def test_window_quantiles_sparkline_over_windows(self, store):
        _save(store, 
            _report(
                "2026-08-05T00:00:00Z",
                macs=1,
                windows=[_window(0, 0.004), _window(1, 0.008)],
            )
        )
        page = render_dashboard(store)
        assert "serving telemetry: 2 window(s)" in page
        assert "windowed quantile (seconds)" in page
        assert "search.serve.latency_seconds p50" in page
        assert "search.serve.latency_seconds p99" in page
        assert "<polyline" in page  # two points → a sparkline

    def test_exemplar_trees_render(self, store):
        _save(store, 
            _report(
                "2026-08-05T00:00:00Z",
                macs=1,
                exemplars=[
                    _exemplar(7, 0.25),
                    _exemplar(3, 0.0, status="expired"),
                ],
            )
        )
        page = render_dashboard(store)
        assert "2 tail exemplar(s)" in page
        assert "request 7 [ok] 250.000 ms" in page
        assert "request 3 [expired]" in page
        assert "- execute: 250.000 ms" in page

    def test_only_newest_reports_telemetry_shown(self, store):
        _save(store, 
            _report(
                "2026-08-05T00:00:00Z", macs=1, windows=[_window(0, 0.004)]
            )
        )
        _save(store, _report("2026-08-06T00:00:00Z", macs=1))
        page = render_dashboard(store)
        # The newest report has no windows, so no serving panel.
        assert "serving telemetry" not in page

    def test_reports_without_telemetry_render_unchanged(self, store):
        _save(store, _report("2026-08-05T00:00:00Z", macs=1))
        page = render_dashboard(store)
        assert "serving telemetry" not in page
        assert "tail exemplar" not in page


class TestWrite:
    def test_write_creates_file(self, store, tmp_path):
        _save(store, _report("2026-08-05T00:00:00Z", macs=100))
        path = write_dashboard(store, tmp_path / "dash" / "index.html")
        assert path.is_file()
        assert "</html>" in path.read_text()


def _history_entry(seconds, seed, tag=""):
    return {
        "schema_version": 2,
        "name": "emf",
        "provenance": {
            "git_sha": f"sha{seed:04d}cafe",
            "created_at": "2026-08-08T00:00:00+00:00",
            "generator": f"test{tag}",
        },
        "config": {"n": 4},
        "timings": {"fast": seconds},
        "samples": {"fast": [seconds, 1.01 * seconds, 0.99 * seconds]},
        "repeats": 3,
        "speedups": {"gain": 2.0},
        "checks": {"identical": True},
    }


class TestTrajectoryPage:
    def test_no_history_renders_hint(self, store):
        page = render_dashboard(store)
        assert "no bench history recorded" in page

    def test_omitted_history_renders_no_trajectory(self, store):
        _save(store, _report("2026-08-05T00:00:00Z", macs=1))
        page = render_dashboard(store)
        assert "benchmark trajectory" not in page

    def test_trajectory_sparklines_per_metric(self, store):
        for seed in range(3):
            store.append(_history_entry(1.0, seed, tag=str(seed)))
        page = render_dashboard(store)
        assert "benchmark trajectory" in page
        assert "bench: emf" in page
        assert "timing:fast" in page
        # A pre-retirement run's "speedups" ratios are not charted.
        assert "speedup:gain" not in page
        assert "<polyline" in page

    def test_changepoint_commit_listed(self, store):
        for seed in range(6):
            store.append(_history_entry(1.0, seed, tag=str(seed)))
        store.append(_history_entry(3.0, 99, tag="shift"))
        page = render_dashboard(store)
        assert "sha0099cafe" in page  # the commit that shifted the metric

    def test_stage_attribution_table_from_serving_baselines(
        self, store
    ):
        store.append(_history_entry(1.0, 0))

        def serving_report(created_at, execute_s):
            registry = MetricsRegistry()
            registry.inc("sim.macs", 1, platform="CEGMA")
            registry.observe(
                "search.serve.budget_seconds", execute_s, stage="execute"
            )
            registry.observe(
                "search.serve.budget_seconds", 0.001, stage="rank"
            )
            return RunReport(
                spec=SPEC,
                metrics=registry,
                created_at=created_at,
                git_sha="deadbeef",
            )

        _save(store, serving_report("2026-08-05T00:00:00Z", 0.01))
        _save(store, serving_report("2026-08-06T00:00:00Z", 0.03))
        page = render_dashboard(store)
        assert "stage attribution" in page
        assert "execute" in page

    def test_unrenderable_exemplar_tree_degrades_gracefully(self, store):
        broken = _exemplar(9, 0.1)
        broken["tree"]["spans"] = [{"unexpected": "shape"}]
        _save(store, 
            _report("2026-08-05T00:00:00Z", macs=1, exemplars=[broken])
        )
        page = render_dashboard(store)
        assert "unrenderable span tree" in page
        assert "request 9" in page

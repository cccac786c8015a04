"""Tests for windowed metric snapshots."""

import pytest

from repro.obs import LATENCY_BUCKETS, metrics_enabled
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeseriesRecorder, Window, delta_quantile


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeltaQuantile:
    def test_empty_window_has_no_quantile(self):
        assert delta_quantile((1.0, 2.0, 4.0), [0, 0, 0], 0.5) is None

    def test_picks_bucket_upper_bound(self):
        bounds = (1.0, 2.0, 4.0, 8.0)
        deltas = [2, 6, 2, 0]
        assert delta_quantile(bounds, deltas, 0.5) == 2.0
        assert delta_quantile(bounds, deltas, 0.99) == 4.0
        assert delta_quantile(bounds, deltas, 0.0) == 1.0

    def test_overflow_clamps_to_last_bound(self):
        # Observations beyond the last bound land in the final bucket.
        assert delta_quantile((1.0, 2.0), [0, 5], 0.99) == 2.0

    def test_rejects_out_of_range_quantile(self):
        with pytest.raises(ValueError):
            delta_quantile((1.0,), [1], 1.5)


class TestWindowRoundTrip:
    def test_to_from_dict(self):
        window = Window(
            index=3,
            start=10.0,
            end=12.0,
            counters={"a": 5.0},
            rates={"a": 2.5},
            gauges={"depth": 1.0},
            histograms={"lat": {"count": 2.0, "sum": 0.5, "mean": 0.25,
                                "p50": 0.2, "p99": None}},
        )
        restored = Window.from_dict(window.to_dict())
        assert restored == window
        assert restored.duration_seconds == 2.0


class TestRecorder:
    def test_counters_become_deltas_and_rates(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(
            registry=registry, interval_seconds=1.0, clock=clock
        )
        registry.inc("served", 5)
        clock.advance(2.0)
        window = recorder.maybe_snapshot()
        assert window.counters["served"] == 5.0
        assert window.rates["served"] == 2.5
        registry.inc("served", 3)
        clock.advance(1.0)
        second = recorder.maybe_snapshot()
        assert second.counters["served"] == 3.0  # delta, not lifetime
        assert second.index == window.index + 1

    def test_interval_gates_snapshots(self):
        clock = FakeClock()
        recorder = TimeseriesRecorder(
            registry=MetricsRegistry(), interval_seconds=1.0, clock=clock
        )
        clock.advance(0.5)
        assert recorder.maybe_snapshot() is None
        assert recorder.maybe_snapshot(force=True) is not None

    def test_histogram_quantiles_use_window_deltas(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(
            registry=registry, interval_seconds=1.0, clock=clock
        )
        registry.observe("lat", 0.5, bounds=LATENCY_BUCKETS)
        clock.advance(1.0)
        recorder.maybe_snapshot()
        # The second window only saw fast traffic; its p99 must ignore
        # the slow lifetime observation above.
        for _ in range(10):
            registry.observe("lat", 0.001, bounds=LATENCY_BUCKETS)
        clock.advance(1.0)
        window = recorder.maybe_snapshot()
        entry = window.histograms["lat"]
        assert entry["count"] == 10.0
        assert entry["p99"] <= 0.002
        histogram = registry.histograms["lat"]
        assert histogram.quantile(0.99) >= 0.5  # lifetime view differs

    def test_quiet_histograms_are_omitted(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(
            registry=registry, interval_seconds=1.0, clock=clock
        )
        registry.observe("lat", 0.5)
        clock.advance(1.0)
        recorder.maybe_snapshot()
        clock.advance(1.0)
        window = recorder.maybe_snapshot()
        assert "lat" not in window.histograms

    def test_resolves_active_registry_lazily(self):
        clock = FakeClock()
        recorder = TimeseriesRecorder(interval_seconds=1.0, clock=clock)
        with metrics_enabled() as registry:
            registry.inc("served", 2)
            clock.advance(1.0)
            window = recorder.maybe_snapshot()
        assert window.counters["served"] == 2.0

    def test_no_registry_yields_empty_window(self):
        clock = FakeClock()
        recorder = TimeseriesRecorder(interval_seconds=1.0, clock=clock)
        clock.advance(1.0)
        window = recorder.maybe_snapshot()
        assert window.counters == {} and window.histograms == {}

    def test_retention_is_bounded_but_index_is_not(self):
        clock = FakeClock()
        recorder = TimeseriesRecorder(
            registry=MetricsRegistry(),
            interval_seconds=1.0,
            max_windows=2,
            clock=clock,
        )
        for _ in range(4):
            clock.advance(1.0)
            recorder.maybe_snapshot()
        assert [w.index for w in recorder.windows] == [2, 3]
        assert recorder.latest().index == 3

    def test_on_window_sink_fires_per_snapshot(self):
        clock = FakeClock()
        seen = []
        recorder = TimeseriesRecorder(
            registry=MetricsRegistry(),
            interval_seconds=1.0,
            clock=clock,
            on_window=seen.append,
        )
        clock.advance(1.0)
        recorder.maybe_snapshot()
        assert len(seen) == 1 and seen[0] is recorder.latest()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TimeseriesRecorder(interval_seconds=0.0)
        with pytest.raises(ValueError):
            TimeseriesRecorder(max_windows=0)

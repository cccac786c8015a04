"""Tests for Prometheus exposition and the obs show window renderer."""

import json

import pytest

from repro.obs.export import (
    read_windows,
    render_exposition,
    render_window,
    split_metric_key,
    write_exposition,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import Window


def _registry():
    registry = MetricsRegistry()
    registry.inc("search.serve.responses", 3, status="ok")
    registry.set_gauge("search.serve.queue_depth", 2)
    registry.observe("lat", 1.5, bounds=(1.0, 2.0, 4.0))
    registry.observe("lat", 3.0, bounds=(1.0, 2.0, 4.0))
    return registry


class TestSplitMetricKey:
    def test_plain_name(self):
        assert split_metric_key("sim.cycles") == ("sim.cycles", {})

    def test_labels_are_recovered(self):
        name, labels = split_metric_key("responses{a=1,status=ok}")
        assert name == "responses"
        assert labels == {"a": "1", "status": "ok"}


class TestExposition:
    def test_counter_gauge_histogram_families(self):
        text = render_exposition(_registry())
        assert '# TYPE repro_search_serve_responses counter' in text
        assert 'repro_search_serve_responses{status="ok"} 3.0' in text
        assert "repro_search_serve_queue_depth 2.0" in text
        # Buckets are cumulative, with the implicit +Inf terminator.
        assert 'repro_lat_bucket{le="1.0"} 0' in text
        assert 'repro_lat_bucket{le="2.0"} 1' in text
        assert 'repro_lat_bucket{le="4.0"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert "repro_lat_sum 4.5" in text
        assert "repro_lat_count 2" in text

    def test_names_are_sanitized_to_prometheus_grammar(self):
        text = render_exposition(_registry())
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            assert all(c.isalnum() or c in "_:" for c in name), name

    def test_window_quantiles_exported_as_gauges(self):
        window = Window(
            index=4,
            start=0.0,
            end=2.0,
            histograms={"lat{stage=execute}": {
                "count": 2.0, "sum": 4.5, "mean": 2.25,
                "p50": 2.0, "p99": None,
            }},
        )
        text = render_exposition(_registry(), window=window)
        assert 'repro_window{field="index"} 4' in text
        assert (
            'repro_window_lat{quantile="0.5",stage="execute"} 2.0' in text
        )
        assert 'quantile="0.99"' not in text  # None fields are skipped

    def test_write_exposition_creates_parents(self, tmp_path):
        path = write_exposition(
            _registry(), tmp_path / "deep" / "serve.prom"
        )
        assert path.read_text().endswith("\n")


def _window_dict(index=0):
    return {
        "index": index,
        "start": 0.0,
        "end": 1.0,
        "counters": {"search.serve.admitted": 4.0},
        "rates": {"search.serve.admitted": 4.0},
        "gauges": {"search.serve.queue_depth": 0.0},
        "histograms": {
            "search.serve.latency_seconds": {
                "count": 4.0, "sum": 0.04, "mean": 0.01,
                "p50": 0.008, "p99": 0.016,
            }
        },
    }


class TestRenderWindow:
    def test_sections_render(self):
        text = render_window(Window.from_dict(_window_dict()))
        assert "window #0" in text
        assert "search.serve.admitted: 4 (4.00/s)" in text
        assert "search.serve.queue_depth = 0" in text
        assert "p50=8.000ms p99=16.000ms" in text

    def test_prefix_filters_and_fallback(self):
        window = Window.from_dict(_window_dict())
        text = render_window(window, prefix="sim.")
        assert "(no matching activity)" in text


class TestReadWindows:
    def test_run_report_v3_shape(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"windows": [_window_dict(i) for i in range(2)]}))
        windows = read_windows(path)
        assert [w.index for w in windows] == [0, 1]

    def test_jsonl_window_log(self, tmp_path):
        path = tmp_path / "windows.jsonl"
        path.write_text(
            "\n".join(json.dumps(_window_dict(i)) for i in range(3)) + "\n"
        )
        assert [w.index for w in read_windows(path)] == [0, 1, 2]

    def test_json_list_and_single_object(self, tmp_path):
        as_list = tmp_path / "list.json"
        as_list.write_text(json.dumps([_window_dict(5)]))
        assert [w.index for w in read_windows(as_list)] == [5]
        single = tmp_path / "one.json"
        single.write_text(json.dumps(_window_dict(7)))
        assert [w.index for w in read_windows(single)] == [7]

    def test_empty_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_windows(path) == []

    def test_garbage_raises_value_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            read_windows(path)

    def test_truncated_trailing_line_is_skipped(
        self, tmp_path, caplog, monkeypatch
    ):
        # A writer that crashed mid-append leaves a partial last line;
        # the intact windows must still load. (configure_logging turns
        # off propagation on the "repro" logger; restore it so caplog
        # sees the warning regardless of test order.)
        import logging

        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        path = tmp_path / "windows.jsonl"
        intact = "\n".join(json.dumps(_window_dict(i)) for i in range(3))
        path.write_text(intact + "\n" + '{"index": 3, "start": 0.')
        with caplog.at_level("WARNING", logger="repro.obs.export"):
            windows = read_windows(path)
        assert [w.index for w in windows] == [0, 1, 2]
        assert "truncated" in caplog.text

    def test_all_lines_malformed_still_raises(self, tmp_path):
        path = tmp_path / "windows.jsonl"
        path.write_text('{"index": 0, "start"\n{"index": 1,\n')
        with pytest.raises(ValueError, match="malformed"):
            read_windows(path)

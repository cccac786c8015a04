"""Tests for the persistent on-disk workload-trace cache."""

import json

import numpy as np
import pytest

from repro.experiments.common import clear_workload_caches, workload_traces
from repro.perf import trace_cache as trace_cache_mod
from repro.perf.trace_cache import TraceCache, default_trace_cache
from repro.platforms import RunSpec
from repro.trace import io as trace_io


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_workload_caches()
    yield
    clear_workload_caches()


SPEC = RunSpec.make("GMN-Li", "AIDS", 2, 2, 0)


def _traces():
    return workload_traces("GMN-Li", "AIDS", 2, 2, 0)


class TestTraceCache:
    def test_miss_then_hit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        cache = default_trace_cache()
        assert cache.load(SPEC) is None
        traces = _traces()  # populates the disk cache
        loaded = cache.load(SPEC)
        assert loaded is not None
        assert len(loaded) == len(traces)

    def test_loaded_traces_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        profiled = _traces()
        clear_workload_caches()
        cached = _traces()  # second call replays from disk
        for batch_a, batch_b in zip(profiled, cached):
            for trace_a, trace_b in zip(
                batch_a.pair_traces, batch_b.pair_traces
            ):
                assert trace_a.score == trace_b.score
                assert trace_a.matching_usage == trace_b.matching_usage
                assert np.array_equal(
                    trace_a.head_features, trace_b.head_features
                )
                for layer_a, layer_b in zip(trace_a.layers, trace_b.layers):
                    assert np.array_equal(
                        layer_a.target_features, layer_b.target_features
                    )
                    assert np.array_equal(
                        layer_a.query_features, layer_b.query_features
                    )
                    assert layer_a.flops.counts == layer_b.flops.counts

    def test_key_separates_seed_and_size(self, tmp_path):
        cache = TraceCache(tmp_path)
        paths = {
            cache.key_path(SPEC),
            cache.key_path(RunSpec.make("GMN-Li", "AIDS", 2, 2, 1)),
            cache.key_path(RunSpec.make("GMN-Li", "AIDS", 4, 2, 0)),
            cache.key_path(RunSpec.make("GMN-Li", "AIDS", 2, 4, 0)),
            cache.key_path(RunSpec.make("GMN-Li", "RD-B", 2, 2, 0)),
        }
        assert len(paths) == 5

    def test_key_embeds_format_version(self, tmp_path):
        cache = TraceCache(tmp_path)
        path = cache.key_path(SPEC)
        assert f"_v{trace_io.FORMAT_VERSION}_" in path.name

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        path = cache.key_path(SPEC)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz file")
        assert cache.load(SPEC) is None

    def test_clear(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        _traces()
        cache = default_trace_cache()
        assert cache.clear() >= 1
        assert cache.load(SPEC) is None

    @pytest.mark.parametrize("value", ["off", "0", ""])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE_CACHE", value)
        assert default_trace_cache() is None

    def test_disabled_cache_still_profiles(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        traces = _traces()
        assert traces
        assert not list(tmp_path.glob("*.npz"))


class TestTraceCacheCounters:
    def test_cold_store_warm_is_one_miss_one_store_one_hit(
        self, tmp_path, monkeypatch
    ):
        from repro.obs.metrics import metrics_enabled

        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        traces = _traces()  # profiled with the disk cache disabled
        cache = TraceCache(tmp_path)
        with metrics_enabled() as registry:
            assert cache.load(SPEC) is None  # cold load
            cache.store(SPEC, traces)
            assert cache.load(SPEC) is not None  # warm load
        assert registry.counter("trace_cache.miss") == 1
        assert registry.counter("trace_cache.store") == 1
        assert registry.counter("trace_cache.hit") == 1

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        from repro.obs.metrics import metrics_enabled

        cache = TraceCache(tmp_path)
        path = cache.key_path(SPEC)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz file")
        with metrics_enabled() as registry:
            assert cache.load(SPEC) is None
        assert registry.counter("trace_cache.miss") == 1
        assert registry.counter("trace_cache.hit") == 0


class TestMmapEntries:
    def test_entries_stored_uncompressed(self, tmp_path, monkeypatch):
        import zipfile

        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        traces = _traces()
        cache = TraceCache(tmp_path)
        cache.store(SPEC, traces)
        with zipfile.ZipFile(cache.key_path(SPEC)) as archive:
            assert archive.infolist()
            assert all(
                info.compress_type == zipfile.ZIP_STORED
                for info in archive.infolist()
            )

    def test_legacy_compressed_entry_is_a_miss(self, tmp_path, monkeypatch):
        """A compressed entry cannot be mapped: the cache reports a miss
        and the next store rewrites it uncompressed."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        traces = _traces()
        cache = TraceCache(tmp_path)
        trace_io.save_traces(traces, cache.key_path(SPEC), compressed=True)
        assert cache.load(SPEC) is None
        cache.store(SPEC, traces)
        loaded = cache.load(SPEC)
        assert loaded[0].pair_traces[0].score == pytest.approx(
            traces[0].pair_traces[0].score
        )

    def test_load_store_timers_observed(self, tmp_path, monkeypatch):
        from repro.obs.metrics import metrics_enabled

        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        traces = _traces()
        cache = TraceCache(tmp_path)
        with metrics_enabled() as registry:
            cache.store(SPEC, traces)
            assert cache.load(SPEC) is not None
        store_timer = registry.histogram("perf.trace_cache.store_seconds")
        load_timer = registry.histogram("perf.trace_cache.load_seconds")
        assert store_timer is not None and store_timer.count == 1
        assert load_timer is not None and load_timer.count == 1


class TestScheduleSidecar:
    PLATFORMS = ("CEGMA",)

    def _results(self):
        from repro.experiments.common import workload_results

        return workload_results("GMN-Li", "AIDS", self.PLATFORMS, 2, 2, 0)

    def test_profiled_only_traces_have_nothing_to_store(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        traces = _traces()  # profiled, never simulated
        cache = TraceCache(tmp_path)
        assert cache.store_schedules(SPEC, traces) is None
        assert not cache.sidecar_path(SPEC).exists()

    def test_cold_run_writes_sidecar(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        self._results()
        cache = default_trace_cache()
        assert cache.sidecar_path(SPEC).is_file()

    def test_warm_run_attaches_sidecar_and_matches(
        self, tmp_path, monkeypatch
    ):
        from repro.obs.metrics import metrics_enabled

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        cold = self._results()
        clear_workload_caches()
        with metrics_enabled() as registry:
            warm = self._results()
        assert registry.counter("trace_cache.sidecar_hit") == 1
        for platform in self.PLATFORMS:
            assert cold[platform].to_dict() == warm[platform].to_dict()

    def test_corrupt_sidecar_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        cold = self._results()
        cache = default_trace_cache()
        cache.sidecar_path(SPEC).write_bytes(b"not an npz file")
        clear_workload_caches()
        warm = self._results()
        for platform in self.PLATFORMS:
            assert cold[platform].to_dict() == warm[platform].to_dict()

    def test_sidecar_of_another_version_is_not_attached(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        self._results()
        cache = default_trace_cache()
        path = cache.sidecar_path(SPEC)

        def attached() -> bool:
            traces = trace_io.load_traces(cache.key_path(SPEC))
            return cache.load_schedules(SPEC, traces)

        assert attached()
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        manifest = json.loads(str(arrays["manifest"]))
        manifest["version"] = trace_cache_mod._SIDECAR_VERSION - 1
        arrays["manifest"] = np.array(json.dumps(manifest))
        np.savez(path, **arrays)
        assert not attached()

    def test_clear_removes_sidecars(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        self._results()
        cache = default_trace_cache()
        assert cache.sidecar_path(SPEC).is_file()
        cache.clear()
        assert not cache.sidecar_path(SPEC).exists()

    def test_sidecar_independent_of_run_order(self, tmp_path, monkeypatch):
        # Models on one dataset share pair objects and so the per-pair
        # schedule memo; a spec's sidecar must still hold only what its
        # own simulation requested.
        from repro.experiments.common import results_for
        from repro.platforms import DEFAULT_PLATFORMS

        graphsim = RunSpec.make("GraphSim", "AIDS", 2, 2, 0)

        def sidecar(directory, specs):
            monkeypatch.setenv("REPRO_TRACE_CACHE", str(directory))
            clear_workload_caches()
            for spec in specs:
                results_for(spec, DEFAULT_PLATFORMS)
            path = TraceCache(directory).sidecar_path(graphsim)
            with np.load(path) as data:
                return {name: data[name] for name in data.files}

        alone = sidecar(tmp_path / "alone", [graphsim])
        after = sidecar(tmp_path / "after", [SPEC, graphsim])
        assert str(alone["manifest"]) == str(after["manifest"])
        assert sorted(alone) == sorted(after)
        for name in alone:
            assert np.array_equal(alone[name], after[name]), name


class TestHeadFeaturesRoundTrip:
    def test_save_load_head_features(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        traces = _traces()
        path = tmp_path / "t.npz"
        trace_io.save_traces(traces, path)
        loaded = trace_io.load_traces(path)
        original = traces[0].pair_traces[0].head_features
        restored = loaded[0].pair_traces[0].head_features
        assert original is not None
        assert np.array_equal(original, restored)


class TestStoreFailureSurfaced:
    """A failing cache store must be visible (log + counter), never a
    silent pass — regression test for the swallowed OSError."""

    def test_store_oserror_counted_and_logged(
        self, tmp_path, monkeypatch, caplog
    ):
        import logging

        from repro.obs.metrics import metrics_enabled

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))

        def failing_store(self, spec, traces):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(TraceCache, "store", failing_store)
        # configure_logging() (run by CLI tests) stops propagation at
        # the "repro" logger; restore it so caplog's root handler sees
        # the warning regardless of test order.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        with caplog.at_level(
            logging.WARNING, logger="repro.experiments.common"
        ):
            with metrics_enabled() as registry:
                traces = _traces()  # profiling still succeeds
        assert traces
        assert (
            registry.counter(
                "harness.trace_cache.store_errors", kind="OSError"
            )
            == 1
        )
        assert any(
            "trace cache store failed" in record.message
            for record in caplog.records
        )

    def test_store_failure_does_not_break_memo(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))

        def failing_store(self, spec, traces):
            raise OSError("disk full")

        monkeypatch.setattr(TraceCache, "store", failing_store)
        first = _traces()
        second = _traces()  # in-process memo still serves the workload
        assert first is second

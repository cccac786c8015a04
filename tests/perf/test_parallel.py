"""Tests for the process-pool harness runner (serial-fallback paths run
everywhere; actual pools only engage on multi-core hosts)."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.api import simulate_workload
from repro.experiments.common import (
    clear_workload_caches,
    prewarm_workloads,
    workload_results,
)
from repro.perf import parallel
from repro.perf.parallel import (
    _chunk_bounds,
    _merge_worker_telemetry,
    _telemetry_payload,
    available_workers,
    parallel_run_specs,
    parallel_simulate_workload,
)
from repro.platforms import RunSpec

PLATFORMS = ("PyG-CPU", "CEGMA")


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    clear_workload_caches()
    yield
    clear_workload_caches()


class TestAvailableWorkers:
    def test_defaults_to_cpu_count(self):
        assert available_workers() == (os.cpu_count() or 1)

    def test_clamped_to_cores_and_floor_of_one(self):
        cores = os.cpu_count() or 1
        assert available_workers(10_000) == cores
        assert available_workers(0) == 1
        assert available_workers(-3) == 1


class TestChunkBounds:
    def test_batch_aligned(self):
        for num_pairs, batch, workers in [
            (6, 2, 3),
            (7, 2, 2),
            (8, 4, 16),
            (1, 4, 2),
            (64, 8, 3),
        ]:
            bounds = _chunk_bounds(num_pairs, batch, workers)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == num_pairs
            for (_, stop_a), (start_b, _) in zip(bounds, bounds[1:]):
                assert stop_a == start_b
            # Every boundary except the last lands on a batch edge, so a
            # chunked run forms exactly the same batches as a serial run.
            for start, _ in bounds:
                assert start % batch == 0

    def test_single_chunk_when_one_worker(self):
        assert _chunk_bounds(64, 8, 1) == [(0, 64)]

    def test_zero_items_yields_no_chunks(self):
        # Regression: used to divide by a zero stride / emit (0, 0).
        assert _chunk_bounds(0, 4, 8) == []
        assert _chunk_bounds(-1, 4, 2) == []

    def test_chunk_size_larger_than_items(self):
        assert _chunk_bounds(3, 8, 4) == [(0, 3)]

    def test_batch_size_one(self):
        assert _chunk_bounds(4, 1, 2) == [(0, 2), (2, 4)]


class TestParallelSimulateWorkload:
    def test_matches_serial(self):
        serial = simulate_workload(
            "GMN-Li", "AIDS", PLATFORMS, num_pairs=4, batch_size=2, seed=0
        )
        chunked = parallel_simulate_workload(
            RunSpec.make("GMN-Li", "AIDS", 4, 2, 0),
            PLATFORMS,
            workers=2,
        )
        assert set(serial) == set(chunked)
        for platform in serial:
            assert serial[platform].cycles == chunked[platform].cycles
            assert serial[platform].num_pairs == chunked[platform].num_pairs
            assert math.isclose(
                serial[platform].energy_joules,
                chunked[platform].energy_joules,
                rel_tol=1e-9,
            )

    def test_jobs_parameter_on_api(self):
        serial = simulate_workload(
            "SimGNN", "AIDS", PLATFORMS, num_pairs=4, batch_size=2, seed=0
        )
        jobs = simulate_workload(
            "SimGNN",
            "AIDS",
            PLATFORMS,
            num_pairs=4,
            batch_size=2,
            seed=0,
            jobs=2,
        )
        for platform in serial:
            assert serial[platform].cycles == jobs[platform].cycles


class TestWorkerDeathFallback:
    """A worker dying mid-task (OOM kill, hard crash) surfaces from
    ``pool.map`` as BrokenExecutor after partial progress; the fallback
    must re-run the whole task list serially so results AND the merged
    metrics registry stay complete."""

    class _DyingPool:
        """Stands in for a started pool; dies partway into map()."""

        started = 0

        def __init__(self, workers, persistent=False):
            self.max_workers = workers
            self.persistent = persistent
            type(self).started += 1

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def shutdown(self, wait=True, cancel_futures=False):
            pass

        def map(self, fn, tasks):
            from concurrent.futures.process import BrokenProcessPool

            def _gen():
                tasks_list = list(tasks)
                # First task completes, then the worker is "killed".
                yield fn(tasks_list[0])
                raise BrokenProcessPool(
                    "a child process terminated abruptly"
                )

            return _gen()

    @pytest.fixture
    def _dying_pool(self, monkeypatch):
        monkeypatch.setattr(parallel, "_start_pool", self._DyingPool)
        monkeypatch.setattr(self._DyingPool, "started", 0)
        # Bypass the CPU-count clamp so the pool path engages even on
        # single-core CI hosts — the pool itself is the fake above.
        monkeypatch.setattr(
            parallel,
            "available_workers",
            lambda requested=None: requested or 2,
        )
        # Start from no serving pool and leave none behind.
        parallel.shutdown_serving_pool()
        yield
        parallel.shutdown_serving_pool()

    def test_results_complete_after_worker_death(self, _dying_pool):
        specs = [
            RunSpec.make(model, "AIDS", 2, 2, 0) for model in ("GMN-Li", "SimGNN")
        ]
        fanned = parallel_run_specs(specs, PLATFORMS, workers=2)
        assert set(fanned) == set(specs)
        for spec in specs:
            direct = workload_results(spec.model, spec.dataset, PLATFORMS, 2, 2, 0)
            for platform in PLATFORMS:
                assert fanned[spec][platform].cycles == direct[platform].cycles

    def test_merged_registry_complete_and_failure_counted(self, _dying_pool):
        from repro.obs.metrics import metrics_enabled

        spec = RunSpec.make("GMN-Li", "AIDS", 4, 2, 0)
        with metrics_enabled() as registry:
            merged = parallel_simulate_workload(spec, PLATFORMS, workers=2)
        serial = simulate_workload(
            "GMN-Li", "AIDS", PLATFORMS, num_pairs=4, batch_size=2, seed=0
        )
        for platform in PLATFORMS:
            assert merged[platform].cycles == serial[platform].cycles
        # The fallback is visible: one counted failure, and the
        # simulator counters cover the full workload, not just the chunk
        # that finished before the pool broke.
        assert (
            registry.counter(
                "perf.parallel.worker_failures", kind="BrokenProcessPool"
            )
            == 1
        )
        assert (
            registry.counter("sim.pairs", platform="CEGMA") == spec.num_pairs
        )

    def test_serving_pool_is_replaced_after_worker_death(self, _dying_pool):
        from repro.obs.metrics import metrics_enabled
        from repro.perf.parallel import _map_tasks

        tasks = [(1,), (2,), (3,)]
        with metrics_enabled() as registry:
            first = _map_tasks(sum, tasks, 2, persistent=True)
            assert parallel._serving is None  # the broken pool is dropped
            second = _map_tasks(sum, tasks, 2, persistent=True)
        # Both batches completed serially, and each got a fresh pool.
        assert first == second == [1, 2, 3]
        assert self._DyingPool.started == 2
        assert (
            registry.counter(
                "perf.parallel.worker_failures", kind="BrokenProcessPool"
            )
            == 2
        )

    def test_fallback_logs_a_warning(self, _dying_pool, caplog, monkeypatch):
        import logging

        # configure_logging (run by CLI tests elsewhere in the suite)
        # stops repro.* records at its own handler; let them reach
        # caplog's root handler for this test.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        with caplog.at_level(logging.WARNING, logger="repro.perf.parallel"):
            parallel_simulate_workload(
                RunSpec.make("GMN-Li", "AIDS", 4, 2, 0),
                PLATFORMS,
                workers=2,
            )
        assert any(
            "BrokenProcessPool" in record.getMessage()
            for record in caplog.records
        )


class TestSharedMemoryTransport:
    def test_shm_chunks_match_serial(self):
        from repro.perf.parallel import _shm_map_chunks

        spec = RunSpec.make("GMN-Li", "AIDS", 4, 2, 0)
        bounds = _chunk_bounds(spec.num_pairs, spec.batch_size, 2)
        assert len(bounds) == 2
        # workers=1 keeps the tasks in-process, so this exercises the
        # full publish → attach → zero-copy rebuild path without a pool.
        chunks = _shm_map_chunks(spec, PLATFORMS, bounds, 1, False)
        assert chunks is not None
        serial = simulate_workload(
            "GMN-Li", "AIDS", PLATFORMS, num_pairs=4, batch_size=2, seed=0
        )
        chunks.sort(key=lambda item: item[0])
        merged = {}
        for _, results, _ in chunks:
            for platform, result in results.items():
                if platform in merged:
                    merged[platform].merge(result)
                else:
                    merged[platform] = result
        for platform in PLATFORMS:
            assert merged[platform].cycles == serial[platform].cycles
            assert merged[platform].num_pairs == serial[platform].num_pairs

    def test_segment_failure_falls_back_and_is_counted(self, monkeypatch):
        from multiprocessing import shared_memory

        from repro.obs.metrics import metrics_enabled
        from repro.perf import parallel

        def _refuse(*args, **kwargs):
            raise OSError("no shared memory on this host")

        monkeypatch.setattr(shared_memory, "SharedMemory", _refuse)
        monkeypatch.setattr(
            parallel, "available_workers", lambda requested=None: requested or 2
        )
        spec = RunSpec.make("GMN-Li", "AIDS", 4, 2, 0)
        with metrics_enabled() as registry:
            results = parallel_simulate_workload(spec, PLATFORMS, workers=2)
        serial = simulate_workload(
            "GMN-Li", "AIDS", PLATFORMS, num_pairs=4, batch_size=2, seed=0
        )
        for platform in PLATFORMS:
            assert results[platform].cycles == serial[platform].cycles
        assert (
            registry.counter("perf.parallel.shm_failures", kind="OSError") == 1
        )
        assert registry.gauge("perf.parallel.workers") == 2

    def test_forked_workers_leave_the_tracker_quiet(self):
        # Forked chunk workers share the parent's resource tracker; a
        # worker that registered and unregistered its attach dropped
        # the parent's registration, and the parent's unlink then made
        # the tracker print a KeyError traceback at exit.
        script = """
from repro.perf import parallel
from repro.platforms import RunSpec

parallel.available_workers = lambda requested=None: 2
parallel.parallel_simulate_workload(
    RunSpec(model="GMN-Li", dataset="AIDS", num_pairs=8, batch_size=2),
    ("CEGMA",),
    workers=2,
)
print("done")
"""
        source = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source), env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "done" in completed.stdout
        assert "Traceback" not in completed.stderr, completed.stderr


# perfbench's order: serve on a two-worker pool, stop the resource tracker
# while that pool is alive, exit. Prints the pids of the pool's workers
# and of the tracker.
_TRACKER_STOP_SCRIPT = """
import json
import multiprocessing
from multiprocessing import resource_tracker

from repro.graphs import load_dataset
from repro.models import build_model
from repro.search import SimilaritySearchIndex, executor

executor.available_workers = lambda requested=None: 2

if __name__ == "__main__":
    pairs = load_dataset("AIDS", seed=0, num_pairs=8)
    model = build_model("GMN-Li", input_dim=pairs[0].target.feature_dim, seed=0)
    index = SimilaritySearchIndex(model)
    index.add_many([pair.target for pair in pairs])
    index.pipeline(workers=2).serve([pair.query for pair in pairs[:4]])
    pids = [child.pid for child in multiprocessing.active_children()]
    tracker = resource_tracker._resource_tracker
    pids.append(tracker._pid)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    print(json.dumps(pids))
"""


def _running(pid):
    """Whether ``pid`` is a live process (a zombie counts as ended)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestServingPoolBlasThreads:
    """Spawned serving workers start with one BLAS thread, unless the
    user set a thread count: then they inherit the environment as is."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self, monkeypatch):
        for name in parallel.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        parallel.shutdown_serving_pool()
        yield
        parallel.shutdown_serving_pool()

    def _in_worker(self):
        pool = parallel._serving_pool(2)
        return [
            pool.submit(os.getenv, name).result()
            for name in parallel.BLAS_THREAD_VARIABLES
        ]

    def test_one_thread_when_unset(self):
        assert self._in_worker() == ["1", "1", "1"]
        # The parent's own environment is left as it was.
        assert not set(parallel.BLAS_THREAD_VARIABLES) & set(os.environ)

    def test_user_value_is_kept(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert self._in_worker() == [None, "3", None]


class TestServingPoolExit:
    def test_tracker_stop_with_live_pool_exits_quietly(self, tmp_path):
        # Stopping the tracker unlinks the live pool's queue semaphores
        # as leaked; the pool's own finalizers then failed to unlink them
        # again at exit, printing a FileNotFoundError traceback each.
        script = tmp_path / "tracker_stop.py"
        script.write_text(_TRACKER_STOP_SCRIPT)
        source = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, REPRO_TRACE_CACHE="off")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source), env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""
        pids = json.loads(completed.stdout.splitlines()[-1])
        assert len(pids) == 3, pids  # two pool workers and the tracker
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]


class TestWorkerTelemetryTransport:
    """The shared worker→parent telemetry contract."""

    def _worker_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("sim.macs", 7)
        registry.observe("lat", 0.002, bounds=(0.001, 0.004, 0.016))
        return registry

    def test_payload_without_tracker_is_metrics_only(self):
        payload = _telemetry_payload(self._worker_registry())
        assert set(payload) == {"metrics"}
        assert payload["metrics"]["counters"]["sim.macs"] == 7

    def test_payload_ships_spans_when_tracked(self):
        from repro.obs.context import RequestTracker

        tracker = RequestTracker()
        tracker.record(
            3, "execute.shard", start=0.0, duration_seconds=0.1,
            parent="execute",
        )
        payload = _telemetry_payload(self._worker_registry(), tracker)
        assert [s["request_id"] for s in payload["spans"]] == [3]
        # An empty tracker adds no spans key — keeps the pipe payload
        # identical to the metrics-only contract.
        empty = _telemetry_payload(
            self._worker_registry(), RequestTracker()
        )
        assert "spans" not in empty

    def test_merge_accepts_combined_shape(self):
        from repro.obs.metrics import metrics_enabled

        payload = _telemetry_payload(self._worker_registry())
        payload["spans"] = [
            {
                "request_id": 1,
                "stage": "execute.shard",
                "start": 0.0,
                "duration_seconds": 0.1,
            }
        ]
        with metrics_enabled() as registry:
            spans = _merge_worker_telemetry(payload)
        assert [s["request_id"] for s in spans] == [1]
        assert registry.counter("sim.macs") == 7
        merged = registry.histogram("lat")
        assert merged.bounds == (0.001, 0.004, 0.016)
        assert merged.count == 1

    def test_merge_of_none_is_a_noop(self):
        assert _merge_worker_telemetry(None) == []

    def test_merge_without_active_registry_still_returns_spans(self):
        payload = _telemetry_payload(self._worker_registry())
        payload["spans"] = [
            {
                "request_id": 2,
                "stage": "execute.shard",
                "start": 0.0,
                "duration_seconds": 0.1,
            }
        ]
        spans = _merge_worker_telemetry(payload)
        assert [s["request_id"] for s in spans] == [2]


class TestParallelWorkloadResults:
    def test_matches_direct_results(self):
        specs = [
            RunSpec.make(model, "AIDS", 2, 2, 0) for model in ("GMN-Li", "SimGNN")
        ]
        fanned = parallel_run_specs(specs, PLATFORMS, workers=2)
        assert set(fanned) == set(specs)
        for spec in specs:
            direct = workload_results(spec.model, spec.dataset, PLATFORMS, 2, 2, 0)
            for platform in PLATFORMS:
                assert fanned[spec][platform].cycles == direct[platform].cycles

    def test_prewarm_primes_memo(self):
        prewarm_workloads(
            [("GMN-Li", "AIDS")], PLATFORMS, 2, 2, seed=0, workers=1
        )
        start = time.perf_counter()
        workload_results("GMN-Li", "AIDS", PLATFORMS, 2, 2, 0)
        assert time.perf_counter() - start < 0.05  # memo hit, no profiling

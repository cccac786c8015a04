"""Process-pool fan-out for the experiment harness.

Two grains of parallelism, matching how the harness spends its time:

- :func:`parallel_run_specs` fans whole workloads — the unit the
  experiment runners iterate over — across a ``ProcessPoolExecutor``.
  Workloads are independent (each rebuilds its dataset and model
  deterministically from the seed), so this is embarrassingly parallel.
- :func:`parallel_simulate_workload` splits ONE workload's graph pairs
  into contiguous chunks at batch-size boundaries and simulates the
  chunks concurrently, merging the per-platform results in chunk order.

Workloads cross the process boundary as serialized
:class:`~repro.platforms.runspec.RunSpec` payloads — the same canonical
key the memo and disk caches use — so the worker transport can never
drift from the cache keys.

Chunk workers receive their traces through a *shared-memory segment*:
the parent profiles the workload once (through the cached
``traces_for`` path), publishes the uncompressed ``.npz`` image into a
``multiprocessing.shared_memory`` block, and each worker attaches and
rebuilds its chunk as zero-copy views — no per-worker re-profiling, no
pickled trace arrays over the pipe, and feature pages are shared
physical memory across all workers. Hosts without shared memory fall
back to the original rebuild-from-spec workers transparently.

Chunking at multiples of ``batch_size`` keeps batch boundaries — and
therefore every simulated cycle count — identical to a serial run.
Merged floating-point accumulators (energy, seconds) are summed in a
different association order than one long serial sum, so they can
differ from a serial run at the ulp level; cycle counts are integral
per batch and merge exactly.

Every entry point degrades gracefully to in-process execution when only
one worker is requested, when there is only one task, or when the host
refuses to spawn processes (sandboxes without /dev/shm, 1-core boxes).

The harness starts a pool per call. Serving (``repro.search.executor``)
instead maps onto one long-lived pool per process
(``_map_tasks(..., persistent=True)``): started lazily, shared by every
serving executor, dropped and rebuilt after a worker death, and shut
down at exit or when the resource tracker is stopped, whichever comes
first. Its workers are spawned and drop their inherited resource-tracker
connection.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry, get_metrics, metrics_enabled
from ..platforms.runspec import RunSpec

__all__ = [
    "available_workers",
    "shutdown_serving_pool",
    "parallel_run_specs",
    "parallel_simulate_workload",
]

# _telemetry_payload / _merge_worker_telemetry are the worker transport
# contract shared with repro.search.executor: workers ship
# {"metrics": registry.as_dict(), "spans": [wire spans]} back over the
# pipe and the parent merges at join.

logger = logging.getLogger("repro.perf.parallel")


def available_workers(requested: Optional[int] = None) -> int:
    """Clamp a worker request to the machine's CPU count (min 1)."""
    cores = os.cpu_count() or 1
    if requested is None:
        return cores
    return max(1, min(requested, cores))


def _map_tasks(
    task_fn: Callable,
    tasks: Sequence[Tuple],
    workers: int,
    persistent: bool = False,
) -> List:
    """``pool.map`` with a complete serial fallback.

    Two failure shapes degrade to in-process execution of the *entire*
    task list, so the caller always receives one result per task and the
    merged metrics registry stays complete:

    - the pool never starts (``OSError``/``PermissionError``: sandboxes
      without /dev/shm, fork limits), and
    - a worker dies mid-task (``BrokenExecutor``: OOM-killed child,
      hard crash), which ``pool.map`` surfaces after partial progress.

    Worker deaths are counted as ``perf.parallel.worker_failures`` on
    the active registry so regression tooling can see that a run fell
    back, instead of the failure vanishing into identical results.

    ``persistent`` maps onto the process-wide serving pool instead of a
    pool of its own; a failure drops that pool, so the next call starts
    a fresh one rather than reusing the broken one.
    """
    if workers > 1 and len(tasks) > 1:
        try:
            if persistent:
                return list(_serving_pool(workers).map(task_fn, tasks))
            with _start_pool(workers) as pool:
                return list(pool.map(task_fn, tasks))
        except (OSError, PermissionError, BrokenExecutor) as exc:
            if persistent:
                shutdown_serving_pool(wait=False)
            registry = get_metrics()
            if registry is not None:
                registry.inc(
                    "perf.parallel.worker_failures",
                    kind=type(exc).__name__,
                )
            logger.warning(
                "process pool failed (%s: %s); re-running %d task(s) serially",
                type(exc).__name__,
                exc,
                len(tasks),
            )
    return [task_fn(task) for task in tasks]


def _start_pool(workers: int, persistent: bool = False) -> ProcessPoolExecutor:
    """Create a process pool: the one place pools are made.

    A persistent pool's workers are spawned, not forked: the pool lives
    on in a process that may have started threads since.
    """
    if not persistent:
        return ProcessPoolExecutor(max_workers=workers)
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_init_pool_worker,
    )


# ----------------------------------------------------------------------
# The serving pool: one per process, alive across batches.

_serving: Optional[ProcessPoolExecutor] = None
_serving_width = 0
_serving_pid = 0
#: True inside a persistent pool worker (set by its initializer).
in_pool_worker = False


def _init_pool_worker() -> None:
    """Persistent-worker setup: mark the process, drop the tracker fd.

    A worker inherits the write end of the parent's resource tracker
    pipe; while any worker holds it, stopping the tracker (which waits
    for EOF on that pipe) blocks until the pool exits. Workers never
    register resources (segments are attached untracked), so they drop
    the fd.
    """
    global in_pool_worker
    in_pool_worker = True
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        try:
            os.close(fd)
        except OSError:
            pass
        tracker._fd = None


def _serving_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide serving pool, started (or widened) on demand."""
    global _serving, _serving_width, _serving_pid
    if _serving is not None and (
        _serving_pid != os.getpid() or _serving_width < workers
    ):
        shutdown_serving_pool(wait=False)
    if _serving is None:
        _serving = _start_pool(workers, persistent=True)
        _serving_width, _serving_pid = workers, os.getpid()
        _shutdown_before_tracker_stop()
    return _serving


def _shutdown_before_tracker_stop() -> None:
    """Make stopping the resource tracker shut the serving pool first.

    The pool's queues hold semaphores the tracker unlinks as leaked when
    it stops; a pool still alive then unlinks them again at exit and
    prints a ``FileNotFoundError`` traceback for each. The tracker's
    ``_stop`` is wrapped once per process; hosts without it are left
    alone.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is None or getattr(stop, "stops_serving_pool", False):
        return

    def _stop(*args, **kwargs):
        shutdown_serving_pool()
        return stop(*args, **kwargs)

    _stop.stops_serving_pool = True
    tracker._stop = _stop


def shutdown_serving_pool(wait: bool = True) -> None:
    """Stop the serving pool; the next persistent map starts a new one.

    A pool inherited through ``fork`` belongs to the parent and is only
    forgotten.
    """
    global _serving
    pool, _serving = _serving, None
    if pool is not None and _serving_pid == os.getpid():
        pool.shutdown(wait=wait, cancel_futures=True)


atexit.register(shutdown_serving_pool)


def _attach_segment(name: str):
    """Attach an existing shared-memory segment without tracking it.

    The creating process owns the segment and unlinks it. Attaching
    normally registers it with this process's resource tracker as well
    (bpo-39959), which would unlink it at this process's exit, and
    pool workers have no tracker connection to register with.
    """
    from multiprocessing import resource_tracker, shared_memory

    register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


# ----------------------------------------------------------------------
# Grain 1: one task per workload spec.


def _spec_task(
    task: Tuple[dict, Tuple[str, ...], bool]
) -> Tuple[dict, Dict, Optional[dict]]:
    """Worker body: simulate one workload via the shared cached path.

    When ``collect`` is set the worker runs under its own
    :class:`~repro.obs.metrics.MetricsRegistry` and ships its
    :func:`_telemetry_payload` back for the parent to merge — metric
    merge is commutative and associative, so fan-out does not change
    the totals.
    """
    spec_payload, platforms, collect = task
    from ..experiments.common import results_for

    spec = RunSpec.from_dict(spec_payload)
    if not collect:
        return spec_payload, results_for(spec, platforms), None
    with metrics_enabled() as registry:
        results = results_for(spec, platforms)
    return spec_payload, results, _telemetry_payload(registry)


def _telemetry_payload(
    registry: MetricsRegistry, tracker: Optional[object] = None
) -> dict:
    """One worker's telemetry for the pipe: metrics + request spans.

    Every worker body returns this shape. The metrics snapshot is the
    registry's ``as_dict()`` payload; when the worker also tracked
    request-scoped spans (a :class:`~repro.obs.context.RequestTracker`
    built from contexts that shipped out with the task tuple), their
    wire forms ride along so the parent can rejoin them to the request
    trees at merge time.
    """
    payload: dict = {"metrics": registry.as_dict()}
    if tracker is not None and len(tracker):
        payload["spans"] = tracker.wire_spans()
    return payload


def _merge_worker_telemetry(payload: Optional[dict]) -> List[dict]:
    """Fold one worker's :func:`_telemetry_payload` into the registry.

    Metrics merge into the active registry; the request-scoped wire
    spans are *returned* for the caller to ingest into its tracker (the
    parallel layer has no request state of its own).
    """
    if payload is None:
        return []
    registry = get_metrics()
    if registry is not None:
        registry.merge(MetricsRegistry.from_dict(payload["metrics"]))
    return list(payload.get("spans", []))


def parallel_run_specs(
    specs: Sequence[RunSpec],
    platforms: Sequence[str],
    workers: Optional[int] = None,
) -> Dict[RunSpec, Dict]:
    """Simulate many workload specs, fanning across processes.

    Returns ``{spec: {platform: PlatformResult}}``. With one worker (or
    one spec, or a pool that fails to start) this runs serially
    in-process and produces the identical mapping. When the parent has
    an active metrics registry, each worker collects its own and the
    snapshots are merged at join.
    """
    registry = get_metrics()
    collect = registry is not None
    tasks = [(spec.to_dict(), tuple(platforms), collect) for spec in specs]
    workers = available_workers(workers)
    if registry is not None:
        registry.set_gauge("perf.parallel.workers", workers)
    raw = _map_tasks(_spec_task, tasks, workers)
    for _, _, telemetry in raw:
        _merge_worker_telemetry(telemetry)
    return {
        RunSpec.from_dict(payload): results for payload, results, _ in raw
    }


# ----------------------------------------------------------------------
# Grain 2: one task per graph-pair chunk within a single workload.


def _chunk_task(
    task: Tuple[dict, Tuple[str, ...], int, int, bool]
) -> Tuple[int, Dict, Optional[dict]]:
    """Worker body: profile+simulate one contiguous slice of the workload.

    The worker rebuilds the dataset and model from the spec — both are
    deterministic — instead of shipping graphs over the pipe.
    """
    spec_payload, platforms, start, stop, collect = task
    from ..core.api import simulate_traces
    from ..graphs.datasets import load_dataset
    from ..models import build_model
    from ..trace.profiler import profile_batches

    spec = RunSpec.from_dict(spec_payload)
    pairs = load_dataset(spec.dataset, seed=spec.seed, num_pairs=spec.num_pairs)
    model = build_model(
        spec.model, input_dim=pairs[0].target.feature_dim, seed=spec.seed
    )
    traces = profile_batches(
        model, pairs[start:stop], batch_size=spec.batch_size
    )
    if not collect:
        return start, simulate_traces(traces, platforms), None
    with metrics_enabled() as registry:
        results = simulate_traces(traces, platforms)
    return start, results, _telemetry_payload(registry)


def _chunk_bounds(
    num_pairs: int, batch_size: int, workers: int
) -> List[Tuple[int, int]]:
    """Contiguous [start, stop) slices aligned to batch boundaries.

    An empty workload yields no chunks (the degenerate stride would
    otherwise be zero and ``range`` rejects it).
    """
    if num_pairs <= 0:
        return []
    num_batches = -(-num_pairs // batch_size)
    batches_per_chunk = -(-num_batches // workers)
    stride = batches_per_chunk * batch_size
    return [
        (start, min(start + stride, num_pairs))
        for start in range(0, num_pairs, stride)
    ]


def _shm_chunk_task(
    task: Tuple[str, int, Tuple[str, ...], int, int, int, bool]
) -> Tuple[int, Dict, Optional[dict]]:
    """Worker body: simulate a batch-slice of shared-memory traces.

    Attaches the parent's shared-memory segment, rebuilds the traces as
    zero-copy views over it, and simulates only this chunk's batches —
    pages belonging to other chunks are never touched.
    """
    shm_name, size, platforms, start, stop, batch_size, collect = task
    from ..core.api import simulate_traces
    from ..trace.io import traces_from_buffer

    # Untracked attach: forked workers share the parent's tracker, so
    # registering (and then unregistering) here would drop the parent's
    # own registration of the segment it later unlinks.
    shm = _attach_segment(shm_name)
    view = None
    chunk = None
    try:
        view = shm.buf[:size]
        traces = traces_from_buffer(view)
        lo = start // batch_size
        hi = -(-stop // batch_size)
        chunk = traces[lo:hi]
        traces = None
        if not collect:
            return start, simulate_traces(chunk, platforms), None
        with metrics_enabled() as registry:
            results = simulate_traces(chunk, platforms)
        return start, results, _telemetry_payload(registry)
    finally:
        chunk = None
        view = None
        try:
            shm.close()
        except BufferError:  # pragma: no cover - views still referenced
            pass  # process exit unmaps; the parent unlinks


def parallel_simulate_workload(
    spec: RunSpec,
    platforms: Sequence[str],
    workers: Optional[int] = None,
) -> Dict[str, "object"]:
    """:func:`repro.core.api.simulate_workload`, chunked across processes.

    Returns ``{platform: PlatformResult}`` with per-chunk results merged
    in chunk order, so repeated runs are deterministic. Traces travel to
    the workers through shared memory (profiled once in the parent);
    when the host cannot allocate a segment, workers rebuild their slice
    from the spec instead.
    """
    workers = available_workers(workers)
    registry = get_metrics()
    if registry is not None:
        registry.set_gauge("perf.parallel.workers", workers)
    bounds = _chunk_bounds(spec.num_pairs, spec.batch_size, workers)
    if not bounds:
        return {}
    collect = registry is not None
    chunk_results = None
    if workers > 1 and len(bounds) > 1:
        chunk_results = _shm_map_chunks(
            spec, tuple(platforms), bounds, workers, collect
        )
    if chunk_results is None:
        payload = spec.to_dict()
        tasks = [
            (payload, tuple(platforms), start, stop, collect)
            for start, stop in bounds
        ]
        chunk_results = _map_tasks(_chunk_task, tasks, workers)
    chunk_results.sort(key=lambda item: item[0])
    merged: Dict[str, "object"] = {}
    for _, results, telemetry in chunk_results:
        _merge_worker_telemetry(telemetry)
        for platform, result in results.items():
            if platform in merged:
                merged[platform].merge(result)
            else:
                merged[platform] = result
    return merged


def _shm_map_chunks(
    spec: RunSpec,
    platforms: Tuple[str, ...],
    bounds: List[Tuple[int, int]],
    workers: int,
    collect: bool,
) -> Optional[List]:
    """Fan chunks out over a shared-memory trace segment.

    Returns None when the segment cannot be created (no /dev/shm,
    exhausted shared memory) so the caller can fall back to
    rebuild-from-spec workers.
    """
    from ..experiments.common import traces_for
    from ..trace.io import traces_to_npz_bytes

    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - stdlib always has it
        return None
    traces = traces_for(spec)
    image = traces_to_npz_bytes(traces)
    try:
        segment = shared_memory.SharedMemory(create=True, size=len(image))
    except (OSError, PermissionError, ValueError) as exc:
        registry = get_metrics()
        if registry is not None:
            registry.inc(
                "perf.parallel.shm_failures", kind=type(exc).__name__
            )
        logger.warning(
            "shared-memory segment unavailable (%s: %s); workers will "
            "rebuild traces from the spec",
            type(exc).__name__,
            exc,
        )
        return None
    try:
        segment.buf[: len(image)] = image
        tasks = [
            (
                segment.name,
                len(image),
                platforms,
                start,
                stop,
                spec.batch_size,
                collect,
            )
            for start, stop in bounds
        ]
        return _map_tasks(_shm_chunk_task, tasks, workers)
    finally:
        segment.close()
        segment.unlink()

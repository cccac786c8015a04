"""Persistent on-disk workload-trace cache.

Profiling a workload is deterministic in its
:class:`~repro.platforms.runspec.RunSpec` — the models are seeded and
the datasets synthetic — so traces can be profiled once and replayed by
every later harness invocation, in this process or any other. This
replaces the purely per-process ``lru_cache`` memoization that
``experiments.common`` used to rely on: worker processes of the
parallel harness and repeated CLI runs now share one cache.

Layout: one ``.npz`` per workload (the :mod:`repro.trace.io` format)
under the cache directory, named by an XXH32 digest of the key plus the
spec's human-readable stem::

    .trace_cache/GMN-Li_AIDS_p4_b4_s0_quick_v2_1a2b3c4d.npz

Entries are stored *uncompressed* and loaded through
:class:`~repro.trace.io.MmapNpzReader`, so a warm load maps the file
and touches no array bytes until a simulator does — deserialization of
cached traces used to dominate the warm harness. An entry the reader
cannot map (a compressed archive, a corrupt or foreign file) is a miss
and the fresh profile overwrites it.

Next to each trace file the cache keeps a *schedule sidecar*
(``<entry>.sched.npz``) persisting the window-schedule summaries and
EMF plan summaries a simulation run built for that workload. Warm runs
attach the sidecar to the loaded traces so the batched simulator skips
schedule construction and EMF filtering entirely — metric-free runs
only; with a metrics registry active the simulator rebuilds both so
deterministic counters are emitted exactly as computed. Both store
paths are deterministic functions of the spec, so a sidecar can never
disagree with its trace file.

Invalidation: the file name embeds the trace-format version, so a
format bump orphans old entries (they are ignored, never misread).
Delete the directory to drop the cache entirely; set
``REPRO_TRACE_CACHE=off`` (or ``0``) to disable caching, or point it at
an alternative directory.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..cgc.summary import ScheduleSummary, memoized_summaries, summary_key
from ..emf.filter import PlanSummary
from ..emf.xxhash import xxh32
from ..obs.metrics import get_metrics
from ..platforms.runspec import RunSpec
from ..trace import io as trace_io
from ..trace.profiler import BatchTrace

__all__ = ["TraceCache", "default_trace_cache", "DEFAULT_CACHE_DIR"]

DEFAULT_CACHE_DIR = ".trace_cache"
_DISABLED_VALUES = ("", "0", "off", "none", "disabled")

# Version of the schedule sidecar payload. Bump it whenever the stored
# schedules would differ: a new payload layout, or a scheduler change
# (2: CGC ties break by node id).
_SIDECAR_VERSION = 2


class TraceCache:
    """File-per-workload trace store with atomic writes, keyed by RunSpec."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    # ------------------------------------------------------------------
    def key_path(self, spec: RunSpec) -> Path:
        """The cache file for one workload spec."""
        stem = f"{spec.stem}_v{trace_io.FORMAT_VERSION}"
        digest = xxh32(stem.encode("utf-8"))
        safe = "".join(c if c.isalnum() or c in "._-" else "-" for c in stem)
        return self.directory / f"{safe}_{digest:08x}.npz"

    def sidecar_path(self, spec: RunSpec) -> Path:
        """The schedule-summary sidecar next to :meth:`key_path`."""
        entry = self.key_path(spec)
        return entry.with_name(entry.stem + ".sched.npz")

    def load(self, spec: RunSpec) -> Optional[List[BatchTrace]]:
        """The cached traces, or None on miss (or unreadable entry).

        Hits are memory-mapped and come back with the schedule sidecar
        (when present) attached to every pair trace.
        """
        path = self.key_path(spec)
        registry = get_metrics()
        if not path.is_file():
            if registry is not None:
                registry.inc("trace_cache.miss")
            return None
        start = time.perf_counter()
        try:
            traces = trace_io.load_traces(path, mmap=True)
        except ValueError:
            # Unreadable entry (load_traces says why): treat as a miss;
            # the fresh profile overwrites it.
            if registry is not None:
                registry.inc("trace_cache.miss")
            return None
        self.load_schedules(spec, traces)
        if registry is not None:
            registry.inc("trace_cache.hit")
            registry.observe(
                "perf.trace_cache.load_seconds", time.perf_counter() - start
            )
        return traces

    def store(self, spec: RunSpec, traces: Sequence[BatchTrace]) -> Path:
        """Write traces atomically (temp file + rename) and return the path.

        Atomicity matters because parallel harness workers may race to
        populate the same entry; last writer wins with a complete file.
        """
        path = self.key_path(spec)
        self.directory.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        # Suffix must stay ".npz": np.savez appends it otherwise and the
        # rename below would promote an empty placeholder file.
        handle, temp_name = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp.npz"
        )
        os.close(handle)
        try:
            trace_io.save_traces(traces, temp_name, compressed=False)
            os.replace(temp_name, path)
        finally:
            if os.path.exists(temp_name):  # pragma: no cover - error path
                os.unlink(temp_name)
        registry = get_metrics()
        if registry is not None:
            registry.inc("trace_cache.store")
            registry.observe(
                "perf.trace_cache.store_seconds", time.perf_counter() - start
            )
        return path

    # ------------------------------------------------------------------
    def store_schedules(
        self, spec: RunSpec, traces: Sequence[BatchTrace]
    ) -> Optional[Path]:
        """Persist the schedule/plan summaries a simulation built.

        Harvests each layer's cached plan summary and, from each pair's
        summary memo, the schedules that pair trace requested — not
        those other specs sharing the pair built — so the sidecar does
        not depend on what else ran in the process. Returns None
        (writing nothing) when the traces carry no summaries yet —
        callers invoke this after simulating.
        """
        manifest: Dict = {
            "version": _SIDECAR_VERSION,
            "trace_format": trace_io.FORMAT_VERSION,
            "batches": [],
        }
        arrays: Dict[str, np.ndarray] = {}
        harvested = 0
        for b, batch_trace in enumerate(traces):
            batch_entry = []
            for p, pair_trace in enumerate(batch_trace.pair_traces):
                prefix = f"b{b}/p{p}"
                plans = []
                for i, layer in enumerate(pair_trace.layers):
                    plan_summary = layer._plan_summary
                    if plan_summary is None:
                        plans.append(None)
                        continue
                    arrays[f"{prefix}/l{i}/at"] = np.asarray(
                        plan_summary.target_actives, dtype=np.int64
                    )
                    arrays[f"{prefix}/l{i}/aq"] = np.asarray(
                        plan_summary.query_actives, dtype=np.int64
                    )
                    plans.append(
                        {
                            "fraction": plan_summary.remaining_fraction,
                            "unique": plan_summary.unique_matchings,
                        }
                    )
                    harvested += 1
                memo = memoized_summaries(pair_trace.pair)
                requested = [
                    (key, memo[key])
                    for key in pair_trace._sched_requested
                    if key in memo
                ]
                schedules = []
                for j, (key, summary) in enumerate(requested):
                    scheme, capacity, actives_t, actives_q = key
                    arrays[f"{prefix}/s{j}"] = summary.to_array()
                    schedules.append(
                        {
                            "key": summary_key(
                                scheme, capacity, actives_t, actives_q
                            ),
                            "scheme": scheme,
                            "capacity": capacity,
                        }
                    )
                    harvested += 1
                batch_entry.append({"plans": plans, "schedules": schedules})
            manifest["batches"].append(batch_entry)
        if not harvested:
            return None
        arrays["manifest"] = np.array(json.dumps(manifest))
        path = self.sidecar_path(spec)
        self.directory.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp.npz"
        )
        os.close(handle)
        try:
            np.savez(temp_name, **arrays)
            os.replace(temp_name, path)
        finally:
            if os.path.exists(temp_name):  # pragma: no cover - error path
                os.unlink(temp_name)
        registry = get_metrics()
        if registry is not None:
            registry.inc("trace_cache.sidecar_store")
        return path

    def load_schedules(
        self, spec: RunSpec, traces: Sequence[BatchTrace]
    ) -> bool:
        """Attach a sidecar's summaries to already-loaded traces.

        Returns whether anything was attached; unreadable or mismatched
        sidecars are ignored (the simulator just rebuilds on demand).
        """
        path = self.sidecar_path(spec)
        if not path.is_file():
            return False
        try:
            reader = trace_io.MmapNpzReader(path)
            manifest = json.loads(str(reader["manifest"]))
            if manifest.get("version") != _SIDECAR_VERSION:
                return False
            if manifest.get("trace_format") != trace_io.FORMAT_VERSION:
                return False
            batches = manifest["batches"]
            if len(batches) != len(traces):
                return False
            attached = False
            for b, batch_trace in enumerate(traces):
                if len(batches[b]) != len(batch_trace.pair_traces):
                    return False
                for p, pair_trace in enumerate(batch_trace.pair_traces):
                    prefix = f"b{b}/p{p}"
                    entry = batches[b][p]
                    plans = entry["plans"]
                    if len(plans) != len(pair_trace.layers):
                        return False
                    for i, plan_entry in enumerate(plans):
                        if plan_entry is None:
                            continue
                        pair_trace.layers[i]._plan_summary = PlanSummary(
                            tuple(reader[f"{prefix}/l{i}/at"].tolist()),
                            tuple(reader[f"{prefix}/l{i}/aq"].tolist()),
                            float(plan_entry["fraction"]),
                            int(plan_entry["unique"]),
                        )
                        attached = True
                    store: Dict[str, ScheduleSummary] = {}
                    for j, sched_entry in enumerate(entry["schedules"]):
                        store[str(sched_entry["key"])] = (
                            ScheduleSummary.from_array(
                                str(sched_entry["scheme"]),
                                int(sched_entry["capacity"]),
                                reader[f"{prefix}/s{j}"],
                            )
                        )
                    if store:
                        pair_trace._sched_store = store
                        attached = True
        except (ValueError, KeyError, OSError, zipfile.BadZipFile):
            return False
        registry = get_metrics()
        if registry is not None and attached:
            registry.inc("trace_cache.sidecar_hit")
        return attached

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        if not self.directory.is_dir():
            return 0
        removed = 0
        for entry in self.directory.glob("*.npz"):
            entry.unlink()
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceCache({str(self.directory)!r})"


def default_trace_cache() -> Optional[TraceCache]:
    """The process-wide cache configured by ``REPRO_TRACE_CACHE``.

    Unset: a ``.trace_cache`` directory under the current working
    directory. Set to a path: that directory. Set to ``off``/``0``/empty:
    caching disabled (returns None).
    """
    configured = os.environ.get("REPRO_TRACE_CACHE")
    if configured is None:
        return TraceCache(DEFAULT_CACHE_DIR)
    if configured.strip().lower() in _DISABLED_VALUES:
        return None
    return TraceCache(configured)

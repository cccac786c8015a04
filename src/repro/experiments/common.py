"""Shared infrastructure for the experiment runners.

Each experiment module exposes ``run(quick=True, seed=0)`` returning an
:class:`ExperimentResult`. ``quick`` mode uses few graph pairs per
workload so the whole harness completes in minutes; full mode uses the
per-dataset Table II test-set sizes (hours of pure-Python simulation) —
:func:`workload_size` reads them straight from the dataset registry.

Workloads are memoized in-process, keyed by the canonical
:class:`~repro.platforms.runspec.RunSpec` (model, dataset, pair count,
batch size, seed, and the derived quick/full fidelity flag), in
explicit bounded LRU caches that make cache keys auditable and eviction
bounded. Nothing persists across processes implicitly: a new process
profiles again, and a workload is reused across processes only through
an explicit trace file (``repro profile --output F`` then
``repro replay --input F``).

Generated datasets are memoized in-process by (dataset, seed, pair
count), so the models profiled on one dataset share its pair objects and
each window schedule over them is built once (the per-pair memo of
:mod:`repro.cgc.summary`). :func:`clear_workload_caches` drops all
three in-process memos.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..analysis.metrics import ResultTable
from ..graphs.datasets import DATASETS, load_dataset
from ..models import build_model
from ..obs.metrics import get_metrics
from ..obs.tracing import span
from ..platforms.runspec import (
    FULL_BATCH,
    QUICK_BATCH,
    QUICK_PAIRS,
    RunSpec,
)
from ..sim.engine import PlatformResult
from ..trace.profiler import BatchTrace, profile_batches
from ..core.api import simulate_traces

__all__ = [
    "ExperimentResult",
    "MODEL_ORDER",
    "DATASET_ORDER",
    "QUICK_PAIRS",
    "QUICK_BATCH",
    "FULL_BATCH",
    "FULL_PAIRS_FALLBACK",
    "workload_size",
    "workload_traces",
    "workload_results",
    "traces_for",
    "results_for",
    "clear_workload_caches",
    "prewarm_workloads",
    "write_experiment_data",
]

MODEL_ORDER = ("GMN-Li", "GraphSim", "SimGNN")
DATASET_ORDER = ("AIDS", "COLLAB", "GITHUB", "RD-B", "RD-5K", "RD-12K")

# Full-mode pair count for callers not tied to one dataset (cross-dataset
# scaling studies and the like); per-dataset full runs use the Table II
# test-set sizes via ``workload_size(quick=False, dataset=...)``.
FULL_PAIRS_FALLBACK = 64


class ExperimentResult:
    """Outcome of one experiment: a printable table plus raw data."""

    __slots__ = ("name", "description", "table", "data")

    def __init__(
        self,
        name: str,
        description: str,
        table: ResultTable,
        data: Dict,
    ) -> None:
        self.name = name
        self.description = description
        self.table = table
        self.data = data

    def render(self) -> str:
        return f"== {self.name}: {self.description} ==\n{self.table.render()}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExperimentResult({self.name!r})"


class _BoundedLRU:
    """Explicit least-recently-used cache with a hard size bound."""

    __slots__ = ("maxsize", "_entries")

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_TRACE_MEMO = _BoundedLRU(maxsize=64)
_RESULT_MEMO = _BoundedLRU(maxsize=256)
# Generated pairs by (dataset, seed, num_pairs): every model profiled on
# a dataset shares one set of pair objects, and with them the per-pair
# schedule memo of repro.cgc.summary.
_DATASET_MEMO = _BoundedLRU(maxsize=8)


def clear_workload_caches() -> None:
    """Drop the in-process memo caches."""
    _DATASET_MEMO.clear()
    _TRACE_MEMO.clear()
    _RESULT_MEMO.clear()


def _dataset_pairs(spec: RunSpec):
    key = (spec.dataset, spec.seed, spec.num_pairs)
    pairs = _DATASET_MEMO.get(key)
    if pairs is None:
        pairs = load_dataset(
            spec.dataset, seed=spec.seed, num_pairs=spec.num_pairs
        )
        _DATASET_MEMO.put(key, pairs)
    return pairs


def traces_for(spec: RunSpec) -> Tuple[BatchTrace, ...]:
    """Profile (and memoize) the workload a spec describes.

    An in-process LRU hit returns the memoized traces; a miss profiles
    the workload and memoizes it. The spec itself is the cache key.
    """
    registry = get_metrics()
    memoized = _TRACE_MEMO.get(spec)
    if memoized is not None:
        if registry is not None:
            registry.inc("harness.trace_memo.hit")
        return memoized
    if registry is not None:
        registry.inc("harness.trace_memo.miss")
    with span("harness.profile", spec=spec.stem):
        pairs = _dataset_pairs(spec)
        model = build_model(
            spec.model, input_dim=pairs[0].target.feature_dim, seed=spec.seed
        )
        traces = tuple(
            profile_batches(model, pairs, batch_size=spec.batch_size)
        )
    _TRACE_MEMO.put(spec, traces)
    return traces


def results_for(
    spec: RunSpec, platforms: Tuple[str, ...]
) -> Dict[str, PlatformResult]:
    """Simulate (and memoize) one workload spec on the given platforms."""
    key = (spec, tuple(platforms))
    registry = get_metrics()
    memoized = _RESULT_MEMO.get(key)
    if memoized is not None:
        if registry is not None:
            registry.inc("harness.result_memo.hit")
        return memoized
    if registry is not None:
        registry.inc("harness.result_memo.miss")
    with span("harness.simulate", spec=spec.stem):
        results = simulate_traces(traces_for(spec), platforms)
    _RESULT_MEMO.put(key, results)
    return results


def workload_traces(
    model_name: str,
    dataset_name: str,
    num_pairs: int,
    batch_size: int,
    seed: int,
) -> Tuple[BatchTrace, ...]:
    """:func:`traces_for` with the spec assembled from loose arguments."""
    return traces_for(
        RunSpec.make(model_name, dataset_name, num_pairs, batch_size, seed)
    )


def workload_results(
    model_name: str,
    dataset_name: str,
    platforms: Tuple[str, ...],
    num_pairs: int,
    batch_size: int,
    seed: int,
) -> Dict[str, PlatformResult]:
    """:func:`results_for` with the spec assembled from loose arguments."""
    return results_for(
        RunSpec.make(model_name, dataset_name, num_pairs, batch_size, seed),
        platforms,
    )


def prewarm_workloads(
    workloads,
    platforms: Tuple[str, ...],
    num_pairs: Optional[int] = None,
    batch_size: Optional[int] = None,
    seed: int = 0,
    workers: Optional[int] = None,
    quick: bool = True,
) -> None:
    """Simulate many workloads up front — fanned across worker processes
    when ``workers`` > 1 — and prime the in-process memo, so subsequent
    :func:`results_for` calls are cache hits.

    ``workloads`` is an iterable of ``(model, dataset)`` pairs or ready
    :class:`RunSpec` values. For pairs, explicit ``num_pairs`` /
    ``batch_size`` apply uniformly; left as ``None``, each dataset gets
    its ``workload_size(quick, dataset)`` size.
    """
    from ..perf.parallel import parallel_run_specs

    specs = []
    for workload in workloads:
        if isinstance(workload, RunSpec):
            specs.append(workload)
            continue
        model_name, dataset_name = workload
        pairs, batch = workload_size(quick, dataset_name)
        if num_pairs is not None:
            pairs = num_pairs
        if batch_size is not None:
            batch = batch_size
        specs.append(
            RunSpec.make(model_name, dataset_name, pairs, batch, seed)
        )
    computed = parallel_run_specs(specs, platforms, workers)
    for spec, results in computed.items():
        _RESULT_MEMO.put((spec, tuple(platforms)), results)


def _json_safe(value):
    """Recursively convert numpy scalars/arrays for ``json.dump``."""
    import numpy as np

    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def write_experiment_data(
    collected: Dict[str, Dict],
    path,
    quick: bool = True,
    seed: int = 0,
) -> "Path":
    """Write collected experiment data as a provenance-stamped artifact.

    ``collected`` maps experiment ids to their serialized payloads
    (description + data); this is the single choke point through which
    every figure artifact leaves ``repro/experiments/``, so each one
    carries the git SHA, timestamp, and metrics-snapshot digest that
    ``repro obs show`` validates. Figures regenerated from a dirty
    or unknown tree are then detectable by inspection.
    """
    import json
    from pathlib import Path

    from ..obs.provenance import stamp_payload

    registry = get_metrics()
    payload = _json_safe(dict(collected))
    stamp_payload(
        payload,
        metrics=registry.as_dict() if registry is not None else None,
        generator="repro.experiments",
        extra={
            "experiments": sorted(collected),
            "fidelity": "quick" if quick else "full",
            "seed": int(seed),
        },
    )
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return target


def workload_size(
    quick: bool, dataset: Optional[str] = None
) -> Tuple[int, int]:
    """(num_pairs, batch_size) for the requested fidelity.

    Quick mode is a fixed tiny size. Full mode reads the per-dataset
    Table II test-set size from the dataset registry when ``dataset``
    is given; cross-dataset callers that need one uniform size get
    :data:`FULL_PAIRS_FALLBACK`.
    """
    if quick:
        return QUICK_PAIRS, QUICK_BATCH
    if dataset is not None:
        if dataset not in DATASETS:
            raise KeyError(
                f"unknown dataset {dataset!r}; known: {list(DATASETS)}"
            )
        return DATASETS[dataset].num_pairs, FULL_BATCH
    return FULL_PAIRS_FALLBACK, FULL_BATCH

"""Sharded batch execution against the graph database.

Bottom stage of the serving pipeline: a :class:`ShardedExecutor` scores
each query batch against the database (or the batch's candidate set),
ranks contiguous shards of the scores locally, and k-way merges the
per-shard top-k lists into the global ranking. Because ranking and
merging both honour the :class:`~repro.search.results.SearchResult`
total order, the merged result is bit-identical to one flat sort over
the whole database — the property the ``search.serve_vs_direct`` check
gates.

Work is deduplicated before it is split. The parent collapses
byte-identical candidates via
:func:`~repro.search.storage.graph_signature` — one forward pass per
*unique* candidate, its score broadcast to the duplicates (the EMF
dedup-and-broadcast move at database granularity; exact by
construction, so rankings cannot change) — and then scores the unique
representatives one of two ways:

- **Serial** (the guaranteed path): in-process.
- **Worker pool** (multi-core hosts): the representatives are split
  evenly across the ``perf.parallel`` serving pool, whose workers stay
  alive across batches. The model, the scorer and the database's
  uncompressed ``.npz`` image travel once per database version, as one
  shared-memory *snapshot*; a batch ships only its queries and the ids
  to score. Each worker caches the last few snapshots by segment name
  and rebuilds graphs lazily by id. Any pool or shared-memory failure
  falls back to the serial path (the ``_map_tasks`` contract shared
  with the simulation harness).

Snapshot lifecycle: the parent publishes a snapshot when the pool path
first runs against a database size (or a new model or scorer object),
unmaps its own view right after writing it, and unlinks it when the
next version is published or the executor is collected, whichever
comes first; workers copy what they need out of the segment and never
hold it open.

Request-scoped telemetry crosses the worker boundary explicitly: each
task tuple carries the batch queries' :class:`~repro.obs.context.
RequestContext` wire forms, workers record per-query ``execute.shard``
spans (and a ``search.serve.shard_seconds`` latency histogram) into a
private tracker, and the span payloads ship back with the worker's
metrics snapshot for the parent to ingest under its ``execute`` stage
span at join. A context that fails to deserialize is counted as
``obs.context.worker_failures`` — never silently dropped.
"""

from __future__ import annotations

import io
import logging
import os
import pickle
import struct
import time
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.pairs import GraphPair
from ..models.base import GMNModel
from ..models.training import LogisticHead
from ..obs import LATENCY_BUCKETS, get_metrics, metrics_enabled, span
from ..obs.context import RequestContext, RequestTracker
from ..perf import parallel
from ..perf.parallel import (
    _attach_segment,
    _map_tasks,
    _merge_worker_telemetry,
    _telemetry_payload,
    available_workers,
)
from . import results as results_mod
from .results import SearchResult
from .scheduler import QueryBatch
from .storage import graph_signature, graphs_from_arrays, graphs_to_npz_bytes

__all__ = ["shard_bounds", "ShardedExecutor"]

logger = logging.getLogger("repro.search.executor")

#: Snapshot segment header: pickled (model, scorer) size, image size.
_HEADER = struct.Struct("<QQ")
#: Snapshots a pool worker keeps, least recently used first.
_SNAPSHOT_CACHE = 4
_snapshots: "OrderedDict[str, _Snapshot]" = OrderedDict()


def shard_bounds(database_size: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal ``[start, stop)`` slices of the database.

    Never returns more shards than entries; an empty database yields no
    shards. Together the slices cover every index exactly once — the
    invariant that makes the shard merge equal to a flat sort.
    """
    if database_size <= 0:
        return []
    num_shards = max(1, min(num_shards, database_size))
    stride = -(-database_size // num_shards)
    return [
        (start, min(start + stride, database_size))
        for start in range(0, database_size, stride)
    ]


def _dedup_plan(signatures: Sequence[bytes]) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse byte-identical candidates onto their first occurrence.

    Returns ``(representatives, inverse)``: the positions of each
    signature's first occurrence in order, and for every position the
    slot of its representative — so ``rep_scores[inverse]`` broadcasts
    one score per unique candidate back to all of them.
    """
    slots: Dict[bytes, int] = {}
    representatives: List[int] = []
    inverse = np.empty(len(signatures), dtype=np.int64)
    for position, signature in enumerate(signatures):
        slot = slots.setdefault(signature, len(representatives))
        if slot == len(representatives):
            representatives.append(position)
        inverse[position] = slot
    return np.array(representatives, dtype=np.int64), inverse


def _score_queries(
    model: GMNModel,
    scorer: Optional[LogisticHead],
    graphs: Sequence[Graph],
    queries: Sequence[Graph],
    contexts: Optional[Sequence[Optional[dict]]],
    shard_label: str,
    tracker: Optional[RequestTracker],
) -> List[np.ndarray]:
    """Score every query against ``graphs``, recording telemetry.

    Shared by the worker body and the serial path so both emit the same
    ``execute.shard`` spans and ``search.serve.shard_seconds``
    observations. ``contexts`` holds one
    :class:`~repro.obs.context.RequestContext` wire dict (or ``None``)
    per query; a malformed one counts as
    ``obs.context.worker_failures`` instead of crashing the shard.
    """
    registry = get_metrics()
    vectors: List[np.ndarray] = []
    for position, query in enumerate(queries):
        started = time.monotonic()
        scores = np.array(
            [_pair_score(model, scorer, graph, query) for graph in graphs],
            dtype=np.float64,
        )
        elapsed = time.monotonic() - started
        if registry is not None:
            registry.observe(
                "search.serve.shard_seconds",
                elapsed,
                bounds=LATENCY_BUCKETS,
            )
        if tracker is not None and contexts is not None:
            payload = contexts[position]
            if payload is not None:
                try:
                    context = RequestContext.from_wire(payload)
                except (KeyError, TypeError, ValueError):
                    if registry is not None:
                        registry.inc("obs.context.worker_failures")
                else:
                    tracker.record(
                        context.request_id,
                        "execute.shard",
                        start=started,
                        duration_seconds=elapsed,
                        parent="execute",
                        shard=shard_label,
                    )
        vectors.append(scores)
    return vectors


class _Snapshot:
    """One published database version, as a worker reads it.

    Copies the model, the scorer and the database image out of the
    segment and closes it at once; graphs are rebuilt lazily by id and
    kept.
    """

    def __init__(self, name: str) -> None:
        segment = _attach_segment(name)
        try:
            model_size, image_size = _HEADER.unpack(
                bytes(segment.buf[: _HEADER.size])
            )
            body = bytes(
                segment.buf[_HEADER.size : _HEADER.size + model_size + image_size]
            )
        finally:
            segment.close()
        self.model, self.scorer = pickle.loads(body[:model_size])
        self._arrays = np.load(
            io.BytesIO(body[model_size:]), allow_pickle=False
        )
        self._graphs: Dict[int, Graph] = {}

    def graphs(self, ids: Sequence[int]) -> List[Graph]:
        missing = [int(i) for i in ids if int(i) not in self._graphs]
        if missing:
            rebuilt = graphs_from_arrays(self._arrays, indices=missing)
            self._graphs.update(zip(missing, rebuilt))
        return [self._graphs[int(i)] for i in ids]


def _snapshot(name: str) -> _Snapshot:
    """The named snapshot; pool workers cache the most recent few."""
    snapshot = _snapshots.get(name)
    if snapshot is not None:
        _snapshots.move_to_end(name)
        return snapshot
    snapshot = _Snapshot(name)
    # In-process runs (the serial fallback, tests) read and discard.
    if parallel.in_pool_worker:
        _snapshots[name] = snapshot
        while len(_snapshots) > _SNAPSHOT_CACHE:
            _snapshots.popitem(last=False)
    return snapshot


def _shard_task(task):
    """Worker body: score every batch query against a slice of the
    batch's unique candidates.

    ``ids`` are database indices into the snapshot ``name``;
    ``[start, stop)`` is the slice's place in the batch's list of
    unique candidates (the shard label). Returns raw per-query score
    vectors — the parent owns broadcast, ranking and merging so the
    tie-break contract lives in one process. When the task carries
    request contexts, per-query ``execute.shard`` spans ride back in
    the telemetry payload.
    """
    name, start, stop, ids, queries, contexts, collect = task
    snapshot = _snapshot(name)
    graphs = snapshot.graphs(ids)
    label = f"{start}:{stop}"
    if not collect:
        return (
            _score_queries(
                snapshot.model, snapshot.scorer, graphs, queries,
                None, label, None,
            ),
            None,
        )
    tracker = RequestTracker() if contexts is not None else None
    with metrics_enabled() as registry:
        vectors = _score_queries(
            snapshot.model, snapshot.scorer, graphs, queries,
            contexts, label, tracker,
        )
    return vectors, _telemetry_payload(registry, tracker)


def _unlink_owned(segment, owner: int) -> None:
    """Unlink a snapshot segment, but only from the process that made it.

    A forked child inherits the executor and may collect it; the
    segment is still the parent's.
    """
    if os.getpid() == owner:
        segment.unlink()


def _pair_score(
    model: GMNModel,
    scorer: Optional[LogisticHead],
    candidate: Graph,
    query: Graph,
) -> float:
    """Exact per-pair score — identical to the flat path's scoring."""
    trace = model.forward_pair(GraphPair(candidate, query))
    if scorer is not None and trace.head_features is not None:
        return float(scorer.predict_proba(trace.head_features[None, :])[0])
    return trace.score


class ShardedExecutor:
    """Execute query batches against a (possibly growing) database.

    Holds a live reference to the index's graph list; signatures and
    the shared-memory snapshot are cached and extended/republished as
    the database grows.

    Parameters
    ----------
    num_shards:
        Shard count per query for local ranking and the top-k merge;
        defaults to the worker count.
    workers:
        Process-pool width; clamped to the host's cores. ``1`` forces
        the serial path.
    tracker:
        Optional :class:`~repro.obs.context.RequestTracker`; when set,
        the executor records ``pending``/``execute``/``rank`` stage
        spans per request (contiguous on ``clock``) and joins worker
        shard spans back to each request's tree.
    clock:
        The pipeline's monotonic clock — stage boundaries must be read
        off the same clock the admission queue uses for budgets to sum
        to the measured latency.
    """

    def __init__(
        self,
        model: GMNModel,
        graphs: List[Graph],
        scorer: Optional[LogisticHead] = None,
        num_shards: Optional[int] = None,
        workers: Optional[int] = None,
        tracker: Optional[RequestTracker] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.model = model
        self.scorer = scorer
        self._graphs = graphs
        self.num_shards = num_shards
        self.workers = workers
        self.tracker = tracker
        self.clock = clock
        self._signatures: List[bytes] = []
        #: ``(database size, model, scorer, segment name)`` of the live
        #: snapshot, and the finalizer that unlinks its segment.
        self._snapshot: Optional[tuple] = None
        self._unlink: Optional[weakref.finalize] = None
        #: Clock reading when the last batch finished ranking — where
        #: the pipeline's ``respond`` stage span begins.
        self.last_batch_end: Optional[float] = None

    # -- cached database views -----------------------------------------
    def signatures(self) -> List[bytes]:
        """Byte signatures of every database graph (extended lazily)."""
        for graph in self._graphs[len(self._signatures) :]:
            self._signatures.append(graph_signature(graph))
        del self._signatures[len(self._graphs) :]
        return self._signatures

    def _publish(self) -> Optional[str]:
        """Name of the snapshot segment for the current database version.

        Publishes a new one (and unlinks the previous) when the database
        size, the model or the scorer changed. Returns None when the
        segment cannot be created, so the caller scores serially.
        """
        size = len(self._graphs)
        live = self._snapshot
        if (
            live is not None
            and live[0] == size
            and live[1] is self.model
            and live[2] is self.scorer
        ):
            return live[3]
        from multiprocessing import shared_memory

        state = pickle.dumps(
            (self.model, self.scorer), protocol=pickle.HIGHEST_PROTOCOL
        )
        image = graphs_to_npz_bytes(self._graphs)
        total = _HEADER.size + len(state) + len(image)
        try:
            segment = shared_memory.SharedMemory(create=True, size=total)
        except (OSError, PermissionError, ValueError) as exc:
            registry = get_metrics()
            if registry is not None:
                registry.inc(
                    "search.serve.shm_failures", kind=type(exc).__name__
                )
            logger.warning(
                "shared-memory segment unavailable (%s: %s); scoring "
                "shards serially",
                type(exc).__name__,
                exc,
            )
            return None
        buffer = segment.buf
        buffer[: _HEADER.size] = _HEADER.pack(len(state), len(image))
        body = _HEADER.size + len(state)
        buffer[_HEADER.size : body] = state
        buffer[body:total] = image
        segment.close()
        if self._unlink is not None:
            self._unlink()
        self._snapshot = (size, self.model, self.scorer, segment.name)
        self._unlink = weakref.finalize(
            self, _unlink_owned, segment, os.getpid()
        )
        return segment.name

    # -- execution ------------------------------------------------------
    def run_batch(
        self,
        batch: QueryBatch,
        pending_since: Optional[float] = None,
        candidates: Optional[np.ndarray] = None,
    ) -> List[Tuple[SearchResult, ...]]:
        """Score one batch; returns rankings aligned with its groups.

        ``pending_since`` is the clock reading where scheduling ended —
        the start of this batch's ``pending`` stage (time spent waiting
        for earlier batches in the round). Stage spans recorded here
        share boundary timestamps, so per-request budgets stay exact.

        ``candidates`` restricts scoring to the given database indices
        (sorted unique, from a
        :class:`~repro.search.sketch.CandidateRetriever`); results rank
        only those candidates, under the same total order and shard
        plan the full database would use. ``None`` scores everything —
        the flat-retrieval path.
        """
        database_size = len(self._graphs)
        if database_size == 0:
            return [tuple() for _ in batch.groups]
        if candidates is None:
            ids = np.arange(database_size)
        else:
            ids = np.unique(np.asarray(candidates, dtype=np.int64))
            if ids.size and (ids[0] < 0 or ids[-1] >= database_size):
                raise IndexError(
                    "candidate ids out of range for database of size "
                    f"{database_size}"
                )
            if ids.size == 0:
                return [tuple() for _ in batch.groups]
        workers = available_workers(self.workers)
        bounds = shard_bounds(
            len(ids),
            workers if self.num_shards is None else self.num_shards,
        )
        signatures = self.signatures()
        representatives, inverse = _dedup_plan([signatures[i] for i in ids])
        unique_ids = ids[representatives]
        queries = [group.graph for group in batch.groups]
        contexts = (
            [
                None if group.primary.context is None
                else group.primary.context.to_wire()
                for group in batch.groups
            ]
            if self.tracker is not None
            else None
        )
        tracker = self.tracker
        members = [
            request for group in batch.groups for request in group.requests
        ]
        if tracker is not None:
            execute_start = self.clock()
            if pending_since is not None:
                for request in members:
                    tracker.record(
                        request.request_id,
                        "pending",
                        start=pending_since,
                        duration_seconds=execute_start - pending_since,
                        batch=batch.batch_id,
                    )
        with span(
            "serve.execute",
            batch=batch.batch_id,
            queries=len(queries),
            shards=len(bounds),
        ):
            saved = len(ids) - len(unique_ids)
            registry = get_metrics()
            if saved and registry is not None:
                registry.inc(
                    "search.serve.candidate_dedup_hits", saved * len(queries)
                )
            vectors = None
            if workers > 1 and len(unique_ids) > 1:
                vectors = self._run_pool(queries, contexts, unique_ids, workers)
            if vectors is None:
                vectors = _score_queries(
                    self.model,
                    self.scorer,
                    [self._graphs[i] for i in unique_ids],
                    queries,
                    contexts,
                    f"0:{len(unique_ids)}",
                    tracker,
                )
        if tracker is not None:
            rank_start = self.clock()
            for request in members:
                tracker.record(
                    request.request_id,
                    "execute",
                    start=execute_start,
                    duration_seconds=rank_start - execute_start,
                    batch=batch.batch_id,
                    shards=len(bounds),
                )
        with span("serve.rank", batch=batch.batch_id):
            rankings = [
                self._rank(vectors[position][inverse], ids, bounds, group.top_k)
                for position, group in enumerate(batch.groups)
            ]
        if tracker is not None:
            rank_end = self.clock()
            for request in members:
                tracker.record(
                    request.request_id,
                    "rank",
                    start=rank_start,
                    duration_seconds=rank_end - rank_start,
                    batch=batch.batch_id,
                )
            # Dedup followers share the primary's execution, so they
            # share its per-shard detail spans too.
            for group in batch.groups:
                if len(group) > 1:
                    tracker.replicate(
                        group.primary.request_id,
                        [r.request_id for r in group.requests[1:]],
                    )
            self.last_batch_end = rank_end
        return rankings

    @staticmethod
    def _rank(
        scores: np.ndarray,
        ids: np.ndarray,
        bounds: List[Tuple[int, int]],
        top_k: int,
    ) -> Tuple[SearchResult, ...]:
        """Rank each shard locally, then k-way merge to the global top-k.

        Results carry the *database* index of each scored candidate, so
        the total order (descending score, ties ascending database
        index) is the flat path's order restricted to the candidates.
        """
        partials = [
            results_mod.rank_scores(
                scores[start:stop], top_k, indices=ids[start:stop]
            )
            for start, stop in bounds
        ]
        return tuple(results_mod.merge_topk(partials, top_k))

    def _run_pool(
        self,
        queries: Sequence[Graph],
        contexts: Optional[List[Optional[dict]]],
        unique_ids: np.ndarray,
        workers: int,
    ) -> Optional[List[np.ndarray]]:
        """Score the unique candidates on the serving pool.

        Returns per-query score vectors over ``unique_ids``, or None
        when no snapshot can be published so the caller scores serially.
        """
        name = self._publish()
        if name is None:
            return None
        collect = get_metrics() is not None or self.tracker is not None
        tasks = [
            (
                name,
                start,
                stop,
                unique_ids[start:stop],
                list(queries),
                contexts,
                collect,
            )
            for start, stop in shard_bounds(len(unique_ids), workers)
        ]
        raw = _map_tasks(_shard_task, tasks, workers, persistent=True)
        for _, telemetry in raw:
            spans = _merge_worker_telemetry(telemetry)
            if self.tracker is not None and spans:
                self.tracker.ingest(spans, parent="execute")
        # raw is per-slice [per-query scores]; join the slices per query.
        return [
            np.concatenate([vectors[position] for vectors, _ in raw])
            for position in range(len(queries))
        ]

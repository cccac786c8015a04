"""The staged serving pipeline: admission → schedule → execute → rank.

:class:`ServingPipeline` wires the layers of :mod:`repro.search` into
the serving system of ROADMAP item 1:

1. :class:`~repro.search.requests.AdmissionQueue` — bounded intake
   with deadlines and backpressure.
2. :class:`~repro.search.scheduler.BatchScheduler` — request dedup and
   policy-ordered batching.
3. :class:`~repro.search.executor.ShardedExecutor` — sharded scoring
   with candidate dedup and a k-way top-k merge.
4. Response assembly — frozen :class:`~repro.search.requests.
   QueryResponse` objects carrying rankings bit-identical to the flat
   ``SimilaritySearchIndex.query`` path (gated by the
   ``search.serve_vs_direct`` differential check).

Observability: per-stage spans (``serve.schedule`` / ``serve.execute``
/ ``serve.rank``), a ``search.serve.latency_seconds`` histogram on
:data:`~repro.obs.LATENCY_BUCKETS` (p50/p99 via
:meth:`~repro.obs.Histogram.quantile`), queue-depth gauges, and
admission/dedup counters — all free when metrics are off.

Request-scoped telemetry (all optional, all free when off): inject a
:class:`~repro.obs.context.RequestTracker` and every response joins to
a span tree — ``admission → schedule → pending → execute (per-shard
children from the workers) → rank → respond`` — whose stage spans are
*contiguous on the pipeline clock*, so the per-stage
``search.serve.budget_seconds{stage=...}`` histograms sum to the
measured latency exactly. A
:class:`~repro.obs.timeseries.TimeseriesRecorder` snapshots windowed
rates/quantiles once per round, and an
:class:`~repro.obs.exemplars.ExemplarBuffer` retains the span trees of
the K slowest and all deadline-expired requests.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from ..obs import LATENCY_BUCKETS, get_metrics, span
from ..obs.context import RequestTracker
from ..obs.exemplars import ExemplarBuffer
from ..obs.timeseries import TimeseriesRecorder
from .requests import AdmissionQueue, QueryRequest, QueryResponse
from .scheduler import BatchScheduler, SchedulingPolicy

__all__ = ["ServingPipeline"]


class ServingPipeline:
    """Serve similarity queries against a ``SimilaritySearchIndex``.

    The pipeline holds live references to the index's model, scorer,
    and graph list, so graphs added to the index after construction are
    served without rebuilding anything.

    Parameters
    ----------
    index:
        The :class:`~repro.search.index.SimilaritySearchIndex` whose
        database and scoring semantics this pipeline serves.
    policy:
        Batch ordering policy (:class:`SchedulingPolicy` or its value).
    max_batch_queries:
        Distinct queries per execution batch.
    max_queue_depth:
        Admission bound; submissions beyond it are rejected.
    num_shards / workers:
        Forwarded to the :class:`ShardedExecutor`.
    retrieval:
        ``"flat"`` (default) scores every database graph per batch;
        ``"sketch"`` inserts a
        :class:`~repro.search.sketch.CandidateRetriever` between
        scheduling and execution, so the executor scores only the
        batch's retrieved candidate union and reranks it exactly
        (gated against flat by ``search.sketch_vs_flat``).
    sketch_config:
        Optional :class:`~repro.search.sketch.SketchConfig` for
        ``retrieval="sketch"``; defaults to the index's live sketch
        store (or default parameters).
    clock:
        Monotonic-seconds callable (injectable for deadline tests).
    tracker:
        Optional :class:`~repro.obs.context.RequestTracker` shared by
        every stage; turns on per-request span trees and the
        ``search.serve.budget_seconds{stage=...}`` attribution.
    recorder:
        Optional :class:`~repro.obs.timeseries.TimeseriesRecorder`;
        the pipeline calls :meth:`maybe_snapshot` once per round.
    exemplars:
        Optional :class:`~repro.obs.exemplars.ExemplarBuffer`; every
        finished request is offered (with its span tree when a tracker
        is present).
    """

    def __init__(
        self,
        index,
        policy: "SchedulingPolicy | str" = SchedulingPolicy.FIFO,
        max_batch_queries: int = 8,
        max_queue_depth: int = 1024,
        num_shards: Optional[int] = None,
        workers: Optional[int] = None,
        retrieval: str = "flat",
        sketch_config=None,
        clock: Callable[[], float] = time.monotonic,
        tracker: Optional[RequestTracker] = None,
        recorder: Optional[TimeseriesRecorder] = None,
        exemplars: Optional[ExemplarBuffer] = None,
    ) -> None:
        from .executor import ShardedExecutor

        self.index = index
        self.clock = clock
        self.tracker = tracker
        self.recorder = recorder
        self.exemplars = exemplars
        self.queue = AdmissionQueue(
            max_depth=max_queue_depth, clock=clock, tracker=tracker
        )
        self.scheduler = BatchScheduler(
            policy=policy,
            max_batch_queries=max_batch_queries,
            tracker=tracker,
        )
        self.executor = ShardedExecutor(
            model=index.model,
            graphs=index._graphs,
            scorer=index.scorer,
            num_shards=num_shards,
            workers=workers,
            tracker=tracker,
            clock=clock,
        )
        self.retrieval = str(retrieval)
        if self.retrieval not in ("flat", "sketch"):
            raise ValueError(
                f"unknown retrieval mode {retrieval!r}; known: flat, sketch"
            )
        self.retriever = None
        if self.retrieval == "sketch":
            from .sketch import CandidateRetriever

            self.retriever = CandidateRetriever(
                index.sketch_store(sketch_config)
            )
        self.completed = 0
        self.expired = 0

    # -- intake ----------------------------------------------------------
    def submit(
        self,
        graph: Graph,
        top_k: int = 5,
        timeout_seconds: Optional[float] = None,
        **baggage: object,
    ) -> Optional[QueryRequest]:
        """Admit one query; ``None`` means rejected (queue full).

        Extra keyword arguments become trace-context baggage carried
        with the request through every stage.
        """
        return self.queue.submit(graph, top_k, timeout_seconds, **baggage)

    # -- serving ---------------------------------------------------------
    def run_round(
        self, max_items: Optional[int] = None
    ) -> List[QueryResponse]:
        """Drain up to ``max_items`` requests and answer them.

        One scheduling round: expired requests come back with status
        ``"expired"`` and no results; live ones are deduped, batched,
        executed, and answered. Responses are in request-id order.
        """
        live, dead = self.queue.take(max_items)
        tracker = self.tracker
        # Stage boundaries are shared clock readings: each stage's span
        # starts exactly where the previous one ended, so per-request
        # budgets sum to the measured latency.
        taken_at = self.queue.last_take_at
        responses: List[QueryResponse] = [
            self._respond(request, tuple(), "expired", stage_start=taken_at)
            for request in dead
        ]
        if live:
            with span("serve.schedule", requests=len(live)):
                batches = self.scheduler.build_batches(live)
            pending_since = None
            if tracker is not None:
                schedule_end = self.clock()
                for request in live:
                    tracker.record(
                        request.request_id,
                        "schedule",
                        start=taken_at,
                        duration_seconds=schedule_end - taken_at,
                        policy=self.scheduler.policy.value,
                    )
                pending_since = schedule_end
            for batch in batches:
                candidates = None
                if self.retriever is not None:
                    with span(
                        "serve.retrieve",
                        batch=batch.batch_id,
                        queries=len(batch.groups),
                    ):
                        candidates = self.retriever.retrieve_batch(
                            [
                                (group.graph, group.top_k)
                                for group in batch.groups
                            ]
                        )
                    if tracker is not None:
                        # The retrieve stage opens where scheduling (or
                        # the previous batch) ended and hands its end to
                        # the executor as the pending-stage start, so
                        # stage budgets stay contiguous on the clock.
                        retrieve_end = self.clock()
                        for group in batch.groups:
                            for request in group.requests:
                                tracker.record(
                                    request.request_id,
                                    "retrieve",
                                    start=pending_since,
                                    duration_seconds=(
                                        retrieve_end - pending_since
                                    ),
                                    batch=batch.batch_id,
                                    candidates=len(candidates),
                                )
                        pending_since = retrieve_end
                rankings = self.executor.run_batch(
                    batch, pending_since=pending_since, candidates=candidates
                )
                batch_end = (
                    self.executor.last_batch_end
                    if tracker is not None
                    else None
                )
                for group, ranking in zip(batch.groups, rankings):
                    # Dedup followers share the primary's frozen ranking.
                    for request in group.requests:
                        responses.append(
                            self._respond(
                                request, ranking, "ok", stage_start=batch_end
                            )
                        )
                # The next batch's pending stage starts where this
                # one's ranking ended (response assembly included).
                pending_since = batch_end
        if self.recorder is not None:
            self.recorder.maybe_snapshot()
        responses.sort(key=lambda response: response.request_id)
        return responses

    def run_until_drained(self) -> List[QueryResponse]:
        """Serve rounds until the queue is empty."""
        responses: List[QueryResponse] = []
        while len(self.queue):
            responses.extend(self.run_round())
        responses.sort(key=lambda response: response.request_id)
        return responses

    def serve(
        self,
        graphs: Sequence[Graph],
        top_k: int = 5,
        timeout_seconds: Optional[float] = None,
    ) -> List[Optional[QueryResponse]]:
        """Convenience: submit a stream, drain it, align responses.

        Returns one entry per input graph in submission order;
        ``None`` marks a rejected (not admitted) submission.
        """
        admitted: List[Optional[int]] = []
        for graph in graphs:
            request = self.submit(graph, top_k, timeout_seconds)
            admitted.append(None if request is None else request.request_id)
        by_id: Dict[int, QueryResponse] = {
            response.request_id: response
            for response in self.run_until_drained()
        }
        return [
            by_id[request_id] if request_id is not None else None
            for request_id in admitted
        ]

    # -- bookkeeping -----------------------------------------------------
    def _respond(
        self,
        request: QueryRequest,
        results: Tuple,
        status: str,
        stage_start: Optional[float] = None,
    ) -> QueryResponse:
        now = self.clock()
        latency = max(0.0, now - request.submitted_at)
        if status == "ok":
            self.completed += 1
        else:
            self.expired += 1
        metrics = get_metrics()
        if metrics is not None:
            metrics.inc("search.serve.responses", status=status)
            metrics.observe(
                "search.serve.latency_seconds",
                latency,
                bounds=LATENCY_BUCKETS,
            )
        tracker = self.tracker
        if tracker is not None:
            if stage_start is not None:
                # Same ``now`` as the latency read, so the respond span
                # closes the request's budget exactly.
                tracker.record(
                    request.request_id,
                    "respond",
                    start=stage_start,
                    duration_seconds=now - stage_start,
                    status=status,
                )
            if metrics is not None:
                for stage, seconds in tracker.budgets(
                    request.request_id
                ).items():
                    metrics.observe(
                        "search.serve.budget_seconds",
                        seconds,
                        bounds=LATENCY_BUCKETS,
                        stage=stage,
                    )
            if self.exemplars is not None:
                self.exemplars.offer(
                    request.request_id,
                    latency,
                    status,
                    tracker.tree(request.request_id),
                )
        elif self.exemplars is not None:
            self.exemplars.offer(request.request_id, latency, status, None)
        return QueryResponse(
            request_id=request.request_id,
            results=results,
            status=status,
            latency_seconds=latency,
        )

    def stats(self) -> Dict[str, float]:
        """Serving counters for reports and the CLI."""
        latency = None
        metrics = get_metrics()
        if metrics is not None:
            latency = metrics.histogram("search.serve.latency_seconds")
        payload: Dict[str, float] = {
            "admitted": float(self.queue.admitted),
            "rejected": float(self.queue.rejected),
            "expired": float(self.queue.expired),
            "completed": float(self.completed),
            "queue_depth": float(len(self.queue)),
        }
        if latency is not None and latency.count:
            payload["latency_p50_seconds"] = float(latency.quantile(0.5))
            payload["latency_p99_seconds"] = float(latency.quantile(0.99))
        if self.retriever is not None:
            payload.update(self.retriever.stats())
        if self.tracker is not None:
            payload["tracked_requests"] = float(len(self.tracker))
            payload["dropped_spans"] = float(self.tracker.dropped_spans)
        if self.recorder is not None:
            payload["windows"] = float(len(self.recorder.windows))
        if self.exemplars is not None:
            payload["exemplars"] = float(len(self.exemplars))
        return payload

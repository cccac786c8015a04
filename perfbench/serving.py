"""The serving workloads, ``clone_hot`` and ``unique_ingest``.

Both serve GMN-Li similarity queries over AIDS-generator graphs through
``ServingPipeline`` with its defaults (FIFO, 8-query batches, one worker
per core), in four phases, each on a freshly built system:

- ``low``: an open loop at a fixed Poisson rate, low enough that rounds
  mostly hold one request;
- ``high``: an open loop at a fixed rate that keeps a standing queue but
  no growing backlog;
- ``one``: a closed loop of one caller, so every round holds one request;
- ``sat``: a closed loop of 16 callers that each resubmit on reply.

The gated latencies come from the closed loops, whose percentiles spread
far less across seeds than the open loops' at an affordable run length;
the open loops give ``slo_frac``, the report's open-loop percentiles, and
the traced run's queue waits and driver lag.

Every request carries the workload's latency limit as its timeout, so an
overload shows as counted expirations. A seeded sample of the answers is
compared bit for bit with the flat reference ranking over the database
as it stood when each answer was served.
"""

from __future__ import annotations

import logging
import statistics
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.graphs import generate_graph, substitute_edges
from repro.models import build_model
from repro.perf.parallel import available_workers
from repro.search import SimilaritySearchIndex
from repro.search.executor import shard_bounds
from repro.search.sketch import SketchConfig
from repro.search.storage import graph_signature

from .loadgen import Driver, Op, Served, percentile, poisson_schedule
from .spans import SpanRecorder, Wrappers, format_table, totals_by_name


@dataclass(frozen=True)
class ServingWorkload:
    """One serving workload. Every field is part of its definition."""

    name: str
    retrieval: str
    database_unique: int
    database_size: int
    distinct_queries: int
    #: Chance that a pooled query is an exact database member rather than
    #: a 2-edge substitution of one.
    exact_share: float
    #: Popularity exponent over the query pool; 0 is uniform.
    zipf_s: float
    #: Share of operations that insert a graph instead of querying.
    insert_share: float
    low_rate: float
    high_rate: float
    limit_s: float
    #: Served answers compared with the flat reference per run.
    checked: int
    recall_floor: float = 0.5
    top_k: int = 5


# Byte-identical clones and Zipf-hot repeats: request dedup (scheduler) and
# candidate dedup (executor) remove most model work, while the per-batch
# transport still grows with entries. The sketch layer is bypassed.
CLONE_HOT = ServingWorkload(
    name="clone_hot",
    retrieval="flat",
    database_unique=32,
    database_size=256,
    distinct_queries=16,
    exact_share=0.5,
    zipf_s=1.1,
    insert_share=0.0,
    low_rate=2.0,
    high_rate=10.0,
    limit_s=3.0,
    checked=4,
)

# Distinct graphs, near-uniform queries over a large pool and inserts that
# are near-duplicates of later queries: nearly every scored pair is a fresh
# forward pass, and the write side of sketch and executor runs too. The
# sketch ordering misses members of the flat top-5 at any recall floor
# below 1.0 on these graphs (measured over 160 queries: median floor
# needed 0.55, p90 0.875, max 1.0), so only a floor of 1.0 keeps every
# answer exact: the sketch layer runs in full and prunes nothing.
UNIQUE_INGEST = ServingWorkload(
    name="unique_ingest",
    retrieval="sketch",
    database_unique=64,
    database_size=64,
    distinct_queries=256,
    exact_share=0.25,
    zipf_s=0.0,
    insert_share=1 / 9,
    low_rate=2.0,
    high_rate=8.0,
    limit_s=3.0,
    checked=6,
    recall_floor=1.0,
)

WORKLOADS = {workload.name: workload for workload in (CLONE_HOT, UNIQUE_INGEST)}

PHASES = ("low", "high", "one", "sat")
#: Callers of the closed-loop phases.
CLIENTS = {"one": 1, "sat": 16}
#: Share of ``--seconds`` each phase is sized to.
PHASE_SHARE = {"low": 0.25, "high": 0.35, "one": 0.15, "sat": 0.25}
#: Fewest queries a phase holds: a p50 needs 20 samples and a p90 100 to
#: keep ten beyond the percentile.
PHASE_FLOOR = {"low": 24, "high": 110, "one": 24, "sat": 110}


def _rng(workload: ServingWorkload, seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.name.encode()), *stream])


@dataclass
class Inputs:
    """Everything a seed generates: the database and the query pool."""

    database: list
    queries: list
    weights: np.ndarray


def make_inputs(workload: ServingWorkload, seed: int) -> Inputs:
    rng = _rng(workload, seed, 0)
    unique = [generate_graph("AIDS", rng) for _ in range(workload.database_unique)]
    # Distinct bases while the pool fits, so no seed makes two pooled
    # queries byte-identical and shifts how much request dedup saves.
    bases = rng.choice(
        len(unique),
        size=workload.distinct_queries,
        replace=workload.distinct_queries > len(unique),
    )
    queries = []
    for base in bases:
        exact = rng.random() < workload.exact_share
        graph = unique[int(base)]
        queries.append(graph if exact else substitute_edges(graph, 2, rng))
    weights = np.arange(1.0, len(queries) + 1.0) ** -workload.zipf_s
    database = [unique[i % len(unique)] for i in range(workload.database_size)]
    return Inputs(database, queries, weights / weights.sum())


@dataclass
class System:
    inputs: Inputs
    index: SimilaritySearchIndex
    pipeline: object


def build_system(workload: ServingWorkload, seed: int) -> System:
    """Generate, index and warm one system: what ``setup_s`` times."""
    inputs = make_inputs(workload, seed)
    model = build_model("GMN-Li", input_dim=inputs.database[0].feature_dim, seed=0)
    index = SimilaritySearchIndex(model)
    index.add_many(inputs.database)
    config = None
    if workload.retrieval == "sketch":
        config = SketchConfig(recall_floor=workload.recall_floor)
    pipeline = index.pipeline(retrieval=workload.retrieval, sketch_config=config)
    # Executor signatures, sketches and their band index, the shared-memory
    # image and a first pool start all happen before the first timed request.
    pipeline.serve(inputs.queries[:2], workload.top_k)
    return System(inputs, index, pipeline)


def _draw(workload: ServingWorkload, inputs: Inputs, rng) -> Tuple[str, object]:
    """The next operation of a stream: an insert or a query."""
    if rng.random() < workload.insert_share:
        source = inputs.queries[int(rng.integers(len(inputs.queries)))]
        # A near-duplicate of a pooled query, so later queries find it.
        return "insert", substitute_edges(source, 1, rng)
    position = int(rng.choice(len(inputs.queries), p=inputs.weights))
    return "query", inputs.queries[position]


def open_ops(
    workload: ServingWorkload, inputs: Inputs, seed: int, phase: str, queries: int
) -> List[Op]:
    """``queries`` queries, with interleaved inserts, on a Poisson schedule."""
    stream = PHASES.index(phase)
    rate = workload.low_rate if phase == "low" else workload.high_rate
    dues = poisson_schedule(_rng(workload, seed, 1, stream), rate, 2 * queries + 16)
    rng = _rng(workload, seed, 2, stream)
    ops: List[Op] = []
    for due in dues:
        kind, graph = _draw(workload, inputs, rng)
        ops.append(Op(float(due), kind, graph))
        queries -= kind == "query"
        if queries == 0:
            break
    return ops


@dataclass
class PhaseRun:
    phase: str
    system: System
    driver: Driver
    setup_s: float
    records: List[Served]
    qps: float = 0.0


def run_phases(
    workload: ServingWorkload,
    seed: int,
    seconds: float,
    probe: Optional["ServingProbe"] = None,
) -> List[PhaseRun]:
    runs = []
    for phase in PHASES:
        started = time.perf_counter()
        system = build_system(workload, seed)
        setup_s = time.perf_counter() - started
        driver = Driver(system.index, system.pipeline, workload.top_k, workload.limit_s)
        qps = 0.0
        if phase in CLIENTS:
            rng = _rng(workload, seed, 2, PHASES.index(phase))

            def next_op() -> Op:
                return Op(0.0, *_draw(workload, system.inputs, rng))

            clients = CLIENTS[phase]
            duration = seconds * PHASE_SHARE[phase]
            floor = PHASE_FLOOR[phase]
            if probe is None:
                records, qps = driver.closed_loop(next_op, clients, duration, floor)
            elif phase == "one":
                with probe.tracing(system):
                    records, qps = driver.closed_loop(next_op, clients, duration)
                probe.count_served(records)
            else:
                # An untraced half first: the tracing overhead is the ratio
                # of the two halves' throughput.
                records, probe.untraced_qps = driver.closed_loop(
                    next_op, clients, duration / 2
                )
                with probe.tracing(system):
                    traced, qps = driver.closed_loop(next_op, clients, duration / 2)
                probe.traced_qps = qps
                probe.count_served(traced)
                records += traced
        else:
            rate = workload.low_rate if phase == "low" else workload.high_rate
            count = max(PHASE_FLOOR[phase], round(rate * seconds * PHASE_SHARE[phase]))
            ops = open_ops(workload, system.inputs, seed, phase, count)
            if probe is None:
                records = driver.open_loop(ops)
            else:
                with probe.tracing(system):
                    records = driver.open_loop(ops)
                probe.count_served(records)
                probe.lags.extend(driver.lags)
                if phase == "high":
                    probe.note_waits(system, records)
        runs.append(PhaseRun(phase, system, driver, setup_s, records, qps))
    return runs


def check_answers(
    workload: ServingWorkload, seed: int, runs: List[PhaseRun]
) -> Tuple[int, int]:
    """Compare a seeded sample of served answers with the flat reference.

    The reference is ``_query_flat`` over the database as it stood when
    the answer was served: its first ``db_size`` entries, since inserts
    only append. Returns ``(matching, checked)``.
    """
    served = [
        (run, record) for run in runs for record in run.records if record.status == "ok"
    ]
    if not served:
        return 0, 0
    rng = _rng(workload, seed, 3)
    picks = sorted(
        rng.choice(len(served), size=min(workload.checked, len(served)), replace=False)
    )
    references: Dict[tuple, list] = {}
    matching = 0
    for pick in picks:
        run, record = served[pick]
        # Without inserts every phase serves the same generated database.
        owner = run.phase if workload.insert_share else "all"
        key = (owner, record.db_size, graph_signature(record.graph))
        if key not in references:
            index = run.system.index
            reference = SimilaritySearchIndex(index.model, index.scorer)
            reference.add_many([index.graph(i) for i in range(record.db_size)])
            references[key] = reference._query_flat(record.graph, workload.top_k)
        matching += list(record.results) == references[key]
    return matching, len(picks)


def _ok_ms(records: List[Served]) -> List[float]:
    return [record.latency_s * 1e3 for record in records if record.status == "ok"]


def _quantile_text(values_ms: List[float], q: float) -> str:
    try:
        return f"{percentile(values_ms, q):.1f} ms"
    except ValueError:
        return f"n/a ({len(values_ms)} samples leave fewer than 10 beyond p{100 * q:g})"


def _slo_frac(workload: ServingWorkload, records: List[Served]) -> float:
    """Share of queries answered within the limit; failures are misses."""
    within = sum(
        record.status == "ok" and record.latency_s <= workload.limit_s
        for record in records
    )
    return within / max(len(records), 1)


def end_to_end(
    workload: ServingWorkload, runs: List[PhaseRun], matching: int, checked: int
) -> Dict[str, float]:
    low, high, one, sat = runs
    sat_ms = _ok_ms(sat.records)
    return {
        "setup_s": statistics.median(run.setup_s for run in runs),
        "sat_ops_per_s": sat.qps,
        "unloaded_p50_ms": percentile(_ok_ms(one.records), 0.5),
        "loaded_p50_ms": percentile(sat_ms, 0.5),
        "loaded_p90_ms": percentile(sat_ms, 0.9),
        "slo_frac": _slo_frac(workload, high.records),
        "agree_frac": matching / checked if checked else 0.0,
    }


def report(
    workload: ServingWorkload, runs: List[PhaseRun], matching: int, checked: int
) -> List[str]:
    low, high, one, sat = runs
    lines = [
        f"workload {workload.name}: retrieval={workload.retrieval}, database "
        f"{workload.database_size} ({workload.database_unique} unique), "
        f"{workload.distinct_queries} pooled queries, insert share "
        f"{workload.insert_share:.3f}, workers={available_workers(None)}, "
        f"limit {workload.limit_s} s"
    ]
    for run in runs:
        tally = run.driver.tally
        rate = {"low": workload.low_rate, "high": workload.high_rate}.get(run.phase)
        loop = f"open loop {rate}/s" if rate else f"closed loop of {CLIENTS[run.phase]}"
        lines.append(
            f"  {run.phase:<4} {loop}: setup {run.setup_s:.3f} s, "
            f"{len(run.records)} queries, {tally.attempted} ops, failed "
            f"{tally.failed} (rejected {tally.rejected}, expired "
            f"{tally.expired}, errors {tally.errors}), database "
            f"{len(run.system.index)} at end"
        )
        if run.driver.first_error:
            lines.append(f"       first error: {run.driver.first_error}")
    attempted = sum(run.driver.tally.attempted for run in runs)
    failed = sum(run.driver.tally.failed for run in runs)
    lags = low.driver.lags + high.driver.lags
    lines += [
        "  serving metrics by their first names (open loops, failures, answers):",
        f"    setup_s        {statistics.median(run.setup_s for run in runs):.3f} s",
        f"    sat_qps        {sat.qps:.3f} 1/s",
        f"    low_p50_ms     {_quantile_text(_ok_ms(low.records), 0.5)}",
        f"    low_p90_ms     {_quantile_text(_ok_ms(low.records), 0.9)}",
        f"    high_p50_ms    {_quantile_text(_ok_ms(high.records), 0.5)}",
        f"    high_p90_ms    {_quantile_text(_ok_ms(high.records), 0.9)}",
        f"    high_slo_frac  {_slo_frac(workload, high.records):.4f}",
        f"    fail_frac      {failed / max(attempted, 1):.4f} ({failed}/{attempted})",
        f"    topk_agree     {matching}/{checked}",
        f"    driver lag p90 {_quantile_text([lag * 1e3 for lag in lags], 0.9)}",
        f"    closed loop of 1: p50 {_quantile_text(_ok_ms(one.records), 0.5)}; "
        f"closed loop of 16: p50 {_quantile_text(_ok_ms(sat.records), 0.5)}, "
        f"p90 {_quantile_text(_ok_ms(sat.records), 0.9)}",
    ]
    return lines


def run(workload: ServingWorkload, seed: int, seconds: float, trace: bool) -> dict:
    probe = ServingProbe() if trace else None
    runs = run_phases(workload, seed, seconds, probe)
    matching, checked = check_answers(workload, seed, runs)
    lines = report(workload, runs, matching, checked)
    if probe is None:
        metrics = end_to_end(workload, runs, matching, checked)
    else:
        metrics = probe.metrics()
        lines.append(f"  traced spans per served request ({probe.served} served):")
        lines += format_table(probe.recorder.spans, probe.served, "req")
    return {
        "correct": checked > 0 and matching == checked,
        "attempted": sum(run.driver.tally.attempted for run in runs),
        "failed": sum(run.driver.tally.failed for run in runs),
        "metrics": metrics,
        "report": lines,
        "recorder": None if probe is None else probe.recorder,
    }


class _WarningCount(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


#: Loggers on which the program reports falling back from the process pool
#: or the shared-memory transport to in-process scoring.
_FALLBACK_LOGGERS = ("repro.perf.parallel", "repro.search.executor")


class ServingProbe:
    """Span wrappers around the serving layers, and what they observe."""

    def __init__(self) -> None:
        # The pipeline's clock, so spans and due times share one timeline.
        self.recorder = SpanRecorder(time.monotonic)
        self.take_at: Dict[Tuple[int, int], float] = {}
        self.queue_waits: List[float] = []
        self.lags: List[float] = []
        self.served = 0
        self.untraced_qps = self.traced_qps = 0.0
        self.depth_max = self.expired = self.rejected = 0
        self.rounds = self.batches = self.groups = self.scheduled = 0
        self.queries = self.own_candidates = self.database_seen = self.padded = 0
        self.batches_run = self.pooled_batches = 0
        self.pairs_scored = self.pairs_offered = self.useful_pairs = 0
        self.shm_bytes = self.pool_starts = self.fallbacks = 0
        self._own: List[int] = []
        self._map_parents: set = set()

    def install(self, wrappers: Wrappers) -> None:
        from multiprocessing import shared_memory

        from repro.perf import parallel
        from repro.search import executor, pipeline, requests, results, scheduler, sketch

        wrap = wrappers.wrap
        wrap(pipeline.ServingPipeline, "run_round", "pipeline.run_round")
        wrap(requests.AdmissionQueue, "submit", "requests.submit", observe=self._submitted)
        wrap(requests.AdmissionQueue, "take", "requests.take", observe=self._taken)
        wrap(
            scheduler.BatchScheduler,
            "build_batches",
            "scheduler.build_batches",
            observe=self._scheduled,
        )
        wrap(sketch.CandidateRetriever, "retrieve_batch", "sketch.retrieve_batch")
        wrap(sketch.CandidateRetriever, "retrieve", "sketch.retrieve", observe=self._retrieved)
        wrap(sketch.SketchStore, "sync", "sketch.sync")
        wrap(
            executor.ShardedExecutor,
            "run_batch",
            "executor.run_batch",
            tag=lambda args, kwargs: args[1].batch_id,
            observe=self._executed,
        )
        wrap(executor, "graphs_to_npz_bytes", "executor.image")
        wrap(shared_memory.SharedMemory, "__init__", "executor.shm", observe=self._segment)
        wrap(results, "rank_scores", "results.rank_scores")
        wrap(results, "merge_topk", "results.merge_topk")
        # The executor imported the task map by name: wrap both bindings.
        wrap(parallel, "_map_tasks", "parallel.map", observe=self._mapped)
        wrap(executor, "_map_tasks", "parallel.map", observe=self._mapped)

    @contextmanager
    def tracing(self, system: System) -> Iterator[None]:
        """Wrap every serving layer for the duration of one phase."""
        wrappers = Wrappers(self.recorder)
        counter = _WarningCount()
        loggers = [logging.getLogger(name) for name in _FALLBACK_LOGGERS]
        retriever = system.pipeline.retriever
        padded_before = retriever.floor_padded if retriever is not None else 0
        self.install(wrappers)
        for logger in loggers:
            logger.addHandler(counter)
        try:
            yield
        finally:
            for logger in loggers:
                logger.removeHandler(counter)
            wrappers.uninstall()
            self.fallbacks += counter.count
            if retriever is not None:
                self.padded += retriever.floor_padded - padded_before

    def count_served(self, records: List[Served]) -> None:
        self.served += sum(record.status == "ok" for record in records)

    def note_waits(self, system: System, records: List[Served]) -> None:
        """Due time to the start of the round that took each request."""
        queue = system.pipeline.queue
        for record in records:
            taken = self.take_at.get((id(queue), record.request_id))
            if taken is not None:
                self.queue_waits.append(taken - record.due)

    # -- observers: (span index, args, kwargs, result) ----------------------
    def _submitted(self, index, args, kwargs, request) -> None:
        self.rejected += request is None

    def _taken(self, index, args, kwargs, result) -> None:
        queue = args[0]
        live, dead = result
        self.depth_max = max(self.depth_max, len(live) + len(dead) + len(queue))
        self.expired += len(dead)
        for request in (*live, *dead):
            self.take_at[(id(queue), request.request_id)] = queue.last_take_at

    def _scheduled(self, index, args, kwargs, batches) -> None:
        self.rounds += 1
        self.batches += len(batches)
        self.groups += sum(batch.num_queries for batch in batches)
        self.scheduled += sum(batch.num_requests for batch in batches)

    def _retrieved(self, index, args, kwargs, candidates) -> None:
        self._own.append(len(candidates))
        self.queries += 1
        self.own_candidates += len(candidates)
        self.database_seen += len(args[0].store)

    def _mapped(self, index, args, kwargs, result) -> None:
        _, tasks, workers = args
        self.pool_starts += workers > 1 and len(tasks) > 1
        self._map_parents.add(self.recorder.spans[index].parent)

    def _segment(self, index, args, kwargs, result) -> None:
        if kwargs.get("create"):
            self.shm_bytes += kwargs.get("size", 0)

    def _executed(self, index, args, kwargs, rankings) -> None:
        """Count the pairs a batch scored, from outside the executor.

        Follows the executor's plan: the candidate ids (or the whole
        database) split by ``shard_bounds``. On the pool path every shard
        scores one pair per query per unique signature within the shard;
        the in-process path dedups across all candidates at once.
        """
        executor, batch = args[0], args[1]
        candidates = kwargs.get("candidates")
        signatures = executor.signatures()
        if candidates is None:
            ids = np.arange(len(signatures))
        else:
            ids = np.unique(np.asarray(candidates, dtype=np.int64))
        workers = available_workers(executor.workers)
        shards = [(0, len(ids))]
        pooled = index in self._map_parents
        if pooled:
            shards = shard_bounds(
                len(ids), workers if executor.num_shards is None else executor.num_shards
            )
        unique = sum(len({signatures[i] for i in ids[a:b]}) for a, b in shards)
        queries = batch.num_queries
        own = self._own if candidates is not None else [len(ids)] * queries
        self._own = []
        self.batches_run += 1
        self.pooled_batches += pooled
        self.pairs_scored += queries * unique
        self.pairs_offered += queries * len(ids)
        self.useful_pairs += sum(own)

    def metrics(self) -> Dict[str, float]:
        table = totals_by_name(self.recorder.spans)
        empty = {"count": 0.0, "total_s": 0.0, "self_s": 0.0}

        def total(name: str) -> float:
            return table.get(name, empty)["total_s"]

        def layer(prefix: str) -> float:
            return sum(
                row["self_s"] for name, row in table.items() if name.startswith(prefix + ".")
            )

        per_request = 1e3 / max(self.served, 1)
        rounds = table.get("pipeline.run_round", empty)
        per_round = 1e3 / max(rounds["count"], 1.0)
        batches = max(self.batches_run, 1)
        executor_s = total("executor.run_batch")
        offered = max(self.pairs_offered, 1)
        return {
            "requests.queue_wait_ms": percentile(self.queue_waits, 0.5) * 1e3,
            "requests.depth_max": float(self.depth_max),
            "requests.expired": float(self.expired),
            "requests.rejected": float(self.rejected),
            "scheduler.busy_ms": layer("scheduler") * per_request,
            "scheduler.batches_per_round": self.batches / max(self.rounds, 1),
            "scheduler.dedup_ratio": self.scheduled / max(self.groups, 1),
            "sketch.busy_ms": layer("sketch") * per_request,
            "sketch.sync_ms": total("sketch.sync") * per_request,
            "sketch.candidates_per_query": self.own_candidates / max(self.queries, 1),
            "sketch.prune_frac": (
                1.0 - self.own_candidates / self.database_seen
                if self.database_seen
                else 0.0
            ),
            "sketch.floor_pad_frac": self.padded / max(self.own_candidates, 1),
            "executor.busy_ms": executor_s * per_request,
            "executor.pairs_scored": self.pairs_scored / max(self.served, 1),
            "executor.ms_per_pair": executor_s * 1e3 / max(self.pairs_scored, 1),
            "executor.dedup_saved_frac": (
                1.0 - self.pairs_scored / offered if self.pairs_offered else 0.0
            ),
            "executor.useful_pair_frac": (
                self.useful_pairs / offered if self.pairs_offered else 0.0
            ),
            "executor.shm_bytes_per_batch": self.shm_bytes / batches,
            "executor.parallel_batch_frac": self.pooled_batches / batches,
            "results.rank_ms": layer("results") * per_request,
            "parallel.map_ms": total("parallel.map") * per_request,
            "parallel.pool_starts": float(self.pool_starts),
            "parallel.fallbacks": float(self.fallbacks),
            "pipeline.round_ms": rounds["total_s"] * per_round,
            "pipeline.self_ms": rounds["self_s"] * per_round,
            "driver.lag_ms": percentile(self.lags, 0.9) * 1e3,
            "bench.trace_overhead_frac": (
                self.untraced_qps / self.traced_qps - 1.0 if self.traced_qps else 0.0
            ),
        }

"""Tests for the sharded execution layer."""

import gc
import os
import signal
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import generate_graph
from repro.models import build_model
from repro.obs import LATENCY_BUCKETS, metrics_enabled
from repro.obs.context import RequestContext, RequestTracker
from repro.perf import parallel
from repro.perf.parallel import _merge_worker_telemetry
from repro.search import executor as executor_mod
from repro.search.executor import (
    ShardedExecutor,
    _dedup_plan,
    _shard_task,
    shard_bounds,
)
from repro.search.requests import QueryRequest
from repro.search.scheduler import BatchScheduler
from repro.search.storage import graph_signature


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(2)
    base = [generate_graph("AIDS", rng) for _ in range(5)]
    # Clones exercise the candidate dedup; duplicates are interleaved.
    return base + [base[1], base[3]]


@pytest.fixture(scope="module")
def model(database):
    return build_model("GMN-Li", input_dim=database[0].feature_dim)


def _batch(scheduler, graphs, top_k=3):
    requests = [
        QueryRequest(request_id=i, graph=graph, top_k=top_k, submitted_at=0.0)
        for i, graph in enumerate(graphs)
    ]
    (batch,) = scheduler.build_batches(requests)
    return batch


class TestShardBounds:
    @pytest.mark.parametrize("size,shards", [(1, 1), (7, 3), (8, 3), (5, 9)])
    def test_covers_every_index_once(self, size, shards):
        bounds = shard_bounds(size, shards)
        covered = [i for start, stop in bounds for i in range(start, stop)]
        assert covered == list(range(size))
        assert len(bounds) <= min(shards, size)

    def test_empty_database(self):
        assert shard_bounds(0, 4) == []

    def test_near_equal_split(self):
        sizes = [stop - start for start, stop in shard_bounds(10, 3)]
        assert max(sizes) - min(sizes) <= 1 or sizes == [4, 4, 2]


class TestDedupScores:
    def test_duplicates_scored_once(self, database):
        calls = []

        def score(graph):
            calls.append(graph)
            return float(graph.num_nodes)

        signatures = [graph_signature(graph) for graph in database]
        representatives, inverse = _dedup_plan(signatures)
        scores = np.array(
            [score(database[i]) for i in representatives]
        )[inverse]
        saved = len(database) - len(representatives)
        assert saved == 2  # the two planted clones
        assert len(calls) == len(database) - 2
        # Representatives are first occurrences, in database order.
        assert representatives.tolist() == [0, 1, 2, 3, 4]
        # Broadcast scores are bit-identical to their representative.
        assert scores[5] == scores[1]
        assert scores[6] == scores[3]


class TestExecutor:
    def test_rankings_match_flat_reference(self, database, model):
        from repro.search import SimilaritySearchIndex

        index = SimilaritySearchIndex(model)
        index.add_many(database)
        executor = ShardedExecutor(model, index._graphs, num_shards=3, workers=1)
        queries = [database[0], database[4]]
        batch = _batch(BatchScheduler(), queries)
        rankings = executor.run_batch(batch)
        for query, ranking in zip(queries, rankings):
            assert list(ranking) == index._query_flat(query, top_k=3)

    def test_empty_database_yields_empty_rankings(self, database, model):
        executor = ShardedExecutor(model, [])
        batch = _batch(BatchScheduler(), [database[0]])
        assert executor.run_batch(batch) == [tuple()]

    def test_candidate_selection_restricts_and_matches_flat(
        self, database, model
    ):
        """Scoring a candidate subset ranks exactly the flat order
        restricted to that subset (database indices preserved)."""
        from repro.search import SimilaritySearchIndex

        index = SimilaritySearchIndex(model)
        index.add_many(database)
        executor = ShardedExecutor(
            model, index._graphs, num_shards=2, workers=1
        )
        batch = _batch(BatchScheduler(), [database[0]], top_k=3)
        selection = np.array([0, 2, 5, 6], dtype=np.int64)
        (ranking,) = executor.run_batch(batch, candidates=selection)
        flat = index._query_flat(database[0], top_k=len(database))
        expected = [r for r in flat if r.index in set(selection.tolist())][:3]
        assert list(ranking) == expected

    def test_empty_candidate_selection(self, database, model):
        executor = ShardedExecutor(model, list(database), workers=1)
        batch = _batch(BatchScheduler(), [database[0]])
        candidates = np.empty(0, dtype=np.int64)
        assert executor.run_batch(batch, candidates=candidates) == [tuple()]

    def test_out_of_range_candidates_rejected(self, database, model):
        executor = ShardedExecutor(model, list(database), workers=1)
        batch = _batch(BatchScheduler(), [database[0]])
        with pytest.raises(IndexError):
            executor.run_batch(
                batch, candidates=np.array([0, len(database)])
            )

    def test_candidate_dedup_counter(self, database, model):
        executor = ShardedExecutor(model, list(database), workers=1)
        batch = _batch(BatchScheduler(), [database[0]])
        with metrics_enabled() as registry:
            executor.run_batch(batch)
        assert registry.counter("search.serve.candidate_dedup_hits") == 2

    def test_signature_cache_follows_database_growth(self, database, model):
        graphs = list(database[:3])
        executor = ShardedExecutor(model, graphs)
        assert len(executor.signatures()) == 3
        graphs.append(database[3])
        assert len(executor.signatures()) == 4
        del graphs[1:]
        assert len(executor.signatures()) == 1


def _published(model, database):
    """An executor over ``database`` with its snapshot published."""
    executor = ShardedExecutor(model, list(database), workers=2)
    return executor, executor._publish()


class TestShardTask:
    def test_worker_body_in_process(self, database, model):
        """Exercise the worker path against a real shared-memory snapshot."""
        executor, name = _published(model, database)
        start, stop = 2, len(database)
        # The parent dedups the shard database[2:] before it is split:
        # the clone of database[3] has its representative in the shard,
        # so it costs no pass.
        ids = np.arange(start, stop)
        signatures = executor.signatures()
        representatives, _ = _dedup_plan([signatures[i] for i in ids])
        assert len(ids) - len(representatives) == 1
        unique_ids = ids[representatives]
        task = (
            name,
            0,
            len(unique_ids),
            unique_ids,
            [database[0]],
            None,  # no request contexts: metrics-only telemetry
            True,
        )
        try:
            vectors, payload = _shard_task(task)
        finally:
            executor._unlink()
        assert len(vectors) == 1 and vectors[0].shape == (len(unique_ids),)
        assert "search.serve.shard_seconds" in payload["metrics"]["histograms"]
        assert "spans" not in payload  # no contexts shipped, no spans back

        # The raw scores equal in-process scoring of the same candidates.
        from repro.search.executor import _pair_score

        expected = [
            _pair_score(model, None, database[i], database[0])
            for i in unique_ids
        ]
        assert vectors[0].tolist() == expected


class TestWorkerTelemetry:
    """Request telemetry across the shm worker boundary (in-process).

    ``_shard_task`` is exercised against a real shared-memory snapshot —
    the same body the pool runs — and its payload merged with
    ``_merge_worker_telemetry``, so the cross-process contract is
    covered even on single-core hosts where the pool path never runs.
    """

    def _run_worker(self, database, model, contexts, queries=None):
        executor, name = _published(model, database)
        task = (
            name,
            0,
            len(database),
            np.arange(len(database)),
            queries if queries is not None else [database[0]],
            contexts,
            True,
        )
        try:
            return _shard_task(task)
        finally:
            executor._unlink()

    def test_context_crosses_the_worker_boundary(self, database, model):
        context = RequestContext.make(42, tenant="acme")
        _, payload = self._run_worker(
            database, model, [context.to_wire()]
        )
        (span_payload,) = payload["spans"]
        assert span_payload["request_id"] == 42
        assert span_payload["stage"] == "execute.shard"
        assert span_payload["parent"] == "execute"
        assert span_payload["attrs"]["shard"] == f"0:{len(database)}"
        assert "obs.context.worker_failures" not in (
            payload["metrics"]["counters"]
        )

    def test_nondefault_bounds_survive_the_merge(self, database, model):
        """Satellite check: LATENCY_BUCKETS histograms merge exactly.

        The worker's ``search.serve.shard_seconds`` histogram uses
        non-default bucket bounds; a merge that re-created it with
        DEFAULT_BUCKETS would corrupt every quantile.
        """
        _, first = self._run_worker(
            database, model, [RequestContext.make(1).to_wire()]
        )
        _, second = self._run_worker(
            database,
            model,
            [RequestContext.make(2).to_wire(), None],
            queries=[database[0], database[1]],
        )
        with metrics_enabled() as registry:
            spans = _merge_worker_telemetry(first)
            spans += _merge_worker_telemetry(second)
        merged = registry.histogram("search.serve.shard_seconds")
        assert merged.bounds == LATENCY_BUCKETS
        assert merged.count == 3  # one query + two queries
        worker_total = (
            first["metrics"]["histograms"][
                "search.serve.shard_seconds"
            ]["total"]
            + second["metrics"]["histograms"][
                "search.serve.shard_seconds"
            ]["total"]
        )
        assert merged.total == pytest.approx(worker_total)
        # Spans from both workers survive and rejoin request trees.
        tracker = RequestTracker()
        assert tracker.ingest(spans, parent="execute") == 2
        assert tracker.request_ids() == [1, 2]

    def test_malformed_context_counts_worker_failure(
        self, database, model
    ):
        vectors, payload = self._run_worker(
            database, model, [{"deadline": 1.0}]  # no request_id
        )
        assert len(vectors) == 1  # scoring is unaffected
        counters = payload["metrics"]["counters"]
        assert counters["obs.context.worker_failures"] == 1
        assert "spans" not in payload

    def test_executor_ingests_worker_spans(self, database, model):
        """End-to-end: tracker-on run_batch yields shard spans."""
        tracker = RequestTracker()
        executor = ShardedExecutor(
            model, list(database), workers=1, tracker=tracker
        )
        request = QueryRequest(
            request_id=0,
            graph=database[0],
            top_k=3,
            submitted_at=0.0,
            context=RequestContext.make(0),
        )
        (batch,) = BatchScheduler().build_batches([request])
        executor.run_batch(batch, pending_since=0.0)
        spans = {span.stage for span in tracker.spans_for(0)}
        assert {"pending", "execute", "execute.shard", "rank"} <= spans
        (shard_span,) = [
            span
            for span in tracker.spans_for(0)
            if span.stage == "execute.shard"
        ]
        assert shard_span.parent == "execute"


def _die_in_worker(task):
    """A task body whose pool workers die mid-batch (in-process it works)."""
    if parallel.in_pool_worker:
        os._exit(1)
    return _shard_task(task)


def _gone(name):
    try:
        shared_memory.SharedMemory(name=name).close()
    except FileNotFoundError:
        return True
    return False


class TestServingPool:
    """The pool path with a real two-worker pool, on any host."""

    @pytest.fixture(autouse=True)
    def _two_workers(self, monkeypatch):
        # Bypass the CPU-count clamp so the pool path engages even on
        # single-core hosts.
        monkeypatch.setattr(
            executor_mod, "available_workers", lambda requested=None: 2
        )

    @pytest.fixture
    def index(self, database, model):
        from repro.search import SimilaritySearchIndex

        index = SimilaritySearchIndex(model)
        index.add_many(database)
        return index

    def _serve(self, executor, queries, top_k=3, **kwargs):
        return executor.run_batch(
            _batch(BatchScheduler(), queries, top_k), **kwargs
        )

    def test_pool_matches_flat_and_stays_alive(self, database, index):
        executor = ShardedExecutor(
            index.model, index._graphs, num_shards=3, workers=2
        )
        queries = [database[0], database[4]]
        expected = [index._query_flat(query, top_k=3) for query in queries]
        rankings = self._serve(executor, queries)
        assert [list(ranking) for ranking in rankings] == expected
        pool, name = parallel._serving, executor._snapshot[-1]
        rankings = self._serve(executor, queries)
        assert [list(ranking) for ranking in rankings] == expected
        # The second batch reused the pool and the published snapshot.
        assert parallel._serving is pool
        assert executor._snapshot[-1] == name
        executor._unlink()

    def test_dedup_is_database_wide(self, database, index):
        executor = ShardedExecutor(index.model, index._graphs, workers=2)
        ids = np.arange(2, len(database))
        with metrics_enabled() as registry:
            (ranking,) = self._serve(
                executor, [database[0]], top_k=len(ids), candidates=ids
            )
        # database[2:] holds one clone (of database[3]): one pass saved.
        assert registry.counter("search.serve.candidate_dedup_hits") == 1
        flat = index._query_flat(database[0], top_k=len(database))
        assert list(ranking) == [r for r in flat if r.index >= 2]
        executor._unlink()

    def test_worker_death_falls_back_then_gets_a_fresh_pool(
        self, database, index, monkeypatch
    ):
        executor = ShardedExecutor(index.model, index._graphs, workers=2)
        queries = [database[0], database[2]]
        expected = [index._query_flat(query, top_k=3) for query in queries]
        self._serve(executor, queries)
        broken = parallel._serving
        monkeypatch.setattr(executor_mod, "_shard_task", _die_in_worker)
        with metrics_enabled() as registry:
            rankings = self._serve(executor, queries)
        assert [list(ranking) for ranking in rankings] == expected
        assert (
            registry.counter(
                "perf.parallel.worker_failures", kind="BrokenProcessPool"
            )
            == 1
        )
        assert parallel._serving is None
        monkeypatch.setattr(executor_mod, "_shard_task", _shard_task)
        with metrics_enabled() as registry:
            rankings = self._serve(executor, queries)
        assert [list(ranking) for ranking in rankings] == expected
        assert parallel._serving is not None
        assert parallel._serving is not broken
        assert registry.counter("perf.parallel.worker_failures") == 0
        executor._unlink()

    def test_segment_failure_scores_serially(
        self, database, index, monkeypatch
    ):
        def _refuse(*args, **kwargs):
            raise OSError("no shared memory on this host")

        monkeypatch.setattr(shared_memory, "SharedMemory", _refuse)
        executor = ShardedExecutor(index.model, index._graphs, workers=2)
        with metrics_enabled() as registry:
            (ranking,) = self._serve(executor, [database[1]])
        assert list(ranking) == index._query_flat(database[1], top_k=3)
        assert (
            registry.counter("search.serve.shm_failures", kind="OSError")
            == 1
        )
        assert executor._snapshot is None

    def test_worker_spans_rejoin_request_trees(self, database, model):
        tracker = RequestTracker()
        executor = ShardedExecutor(
            model, list(database), workers=2, tracker=tracker
        )
        request = QueryRequest(
            request_id=0,
            graph=database[0],
            top_k=3,
            submitted_at=0.0,
            context=RequestContext.make(0),
        )
        (batch,) = BatchScheduler().build_batches([request])
        executor.run_batch(batch, pending_since=0.0)
        shards = [
            span.attr_dict()["shard"]
            for span in tracker.spans_for(0)
            if span.stage == "execute.shard"
        ]
        # One span per worker slice of the five unique candidates.
        assert sorted(shards) == ["0:3", "3:5"]
        executor._unlink()

    def test_no_segment_outlives_its_version_or_executor(
        self, database, model
    ):
        graphs = list(database[:4])
        executor = ShardedExecutor(model, graphs, workers=2)
        self._serve(executor, [database[0]])
        first = executor._snapshot[-1]
        assert not _gone(first)
        graphs.append(database[4])
        self._serve(executor, [database[0]])
        second = executor._snapshot[-1]
        assert second != first and _gone(first)
        del executor
        gc.collect()
        assert _gone(second)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_leaves_the_segment_alone(self, database, model):
        executor, name = _published(model, database)
        child = os.fork()
        if child == 0:  # collect the inherited executor, then leave
            del executor
            gc.collect()
            os._exit(0)
        os.waitpid(child, 0)
        assert not _gone(name)
        executor._unlink()
        assert _gone(name)


def test_exit_is_prompt_after_stopping_the_resource_tracker():
    """Pool workers must not hold the resource tracker's pipe open:
    stopping the tracker waits for EOF on it, so a worker that kept the
    inherited fd would hang the process until the pool exits."""
    script = """
import numpy as np
from multiprocessing import resource_tracker
from repro.graphs import generate_graph
from repro.models import build_model
from repro.perf import parallel
from repro.search import executor as executor_mod
from repro.search.requests import QueryRequest
from repro.search.scheduler import BatchScheduler

executor_mod.available_workers = lambda requested=None: 2
rng = np.random.default_rng(0)
graphs = [generate_graph("AIDS", rng) for _ in range(4)]
model = build_model("GMN-Li", input_dim=graphs[0].feature_dim)
executor = executor_mod.ShardedExecutor(model, graphs, workers=2)
request = QueryRequest(request_id=0, graph=graphs[0], top_k=2, submitted_at=0.0)
(batch,) = BatchScheduler().build_batches([request])
executor.run_batch(batch)
assert parallel._serving is not None
resource_tracker._resource_tracker._stop()
print("stopped")
"""
    source = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(source), env.get("PYTHONPATH")])
    )
    child = subprocess.Popen(
        [sys.executable, "-c", script],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        # Take the pool workers down with the hung process.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the process hung after stopping the resource tracker")
    assert child.returncode == 0, stderr
    assert "stopped" in stdout

"""Tests for the wired serving pipeline (admission → … → rank)."""

import numpy as np
import pytest

from repro.graphs import Graph, generate_graph, substitute_edges
from repro.models import build_model
from repro.obs import metrics_enabled
from repro.obs.context import RequestTracker
from repro.obs.exemplars import ExemplarBuffer
from repro.obs.timeseries import TimeseriesRecorder
from repro.search import SimilaritySearchIndex
from repro.search import executor as executor_mod


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(3)
    return [generate_graph("AIDS", rng) for _ in range(6)]


@pytest.fixture(scope="module")
def index(database):
    model = build_model("GMN-Li", input_dim=database[0].feature_dim)
    idx = SimilaritySearchIndex(model)
    idx.add_many(database)
    return idx


class TestServe:
    def test_responses_align_with_submissions(self, index, database):
        rng = np.random.default_rng(4)
        stream = [
            database[0],
            substitute_edges(database[2], 1, rng),
            database[0],  # hot duplicate, deduped by the scheduler
        ]
        pipeline = index.pipeline(max_batch_queries=2)
        responses = pipeline.serve(stream, top_k=3)
        assert len(responses) == len(stream)
        assert [r.request_id for r in responses] == [0, 1, 2]
        assert all(r.ok for r in responses)
        # Duplicate submissions share one frozen ranking.
        assert responses[0].results == responses[2].results
        for graph, response in zip(stream, responses):
            assert list(response.results) == index._query_flat(graph, top_k=3)

    def test_rejected_submission_is_none(self, index, database):
        pipeline = index.pipeline(max_queue_depth=2)
        responses = pipeline.serve(database[:4], top_k=1)
        assert responses[0] is not None and responses[1] is not None
        assert responses[2] is None and responses[3] is None
        assert pipeline.stats()["rejected"] == 2.0

    def test_expired_requests_get_expired_status(self, index, database):
        clock = FakeClock()
        pipeline = index.pipeline(clock=clock)
        pipeline.submit(database[0], top_k=2, timeout_seconds=1.0)
        pipeline.submit(database[1], top_k=2)
        clock.now = 5.0
        responses = pipeline.run_until_drained()
        assert responses[0].status == "expired"
        assert responses[0].results == ()
        assert responses[1].ok
        assert list(responses[1].results) == index._query_flat(
            database[1], top_k=2
        )

    def test_incremental_adds_served_without_rebuild(self, database):
        model = build_model("GMN-Li", input_dim=database[0].feature_dim)
        idx = SimilaritySearchIndex(model)
        idx.add_many(database[:3])
        pipeline = idx.pipeline()
        first = pipeline.serve([database[0]], top_k=3)[0]
        idx.add(database[4])
        second = pipeline.serve([database[0]], top_k=4)[0]
        assert len(first.results) == 3
        assert len(second.results) == 4
        assert {r.index for r in second.results} == {0, 1, 2, 3}


class TestStats:
    def test_counts_and_latency_quantiles(self, index, database):
        with metrics_enabled():
            pipeline = index.pipeline()
            pipeline.serve(database[:3], top_k=1)
            stats = pipeline.stats()
        assert stats["admitted"] == 3.0
        assert stats["completed"] == 3.0
        assert stats["queue_depth"] == 0.0
        assert stats["latency_p50_seconds"] > 0.0
        assert stats["latency_p99_seconds"] >= stats["latency_p50_seconds"]

    def test_stats_without_metrics_has_no_quantiles(self, index, database):
        pipeline = index.pipeline()
        pipeline.serve([database[0]], top_k=1)
        stats = pipeline.stats()
        assert "latency_p50_seconds" not in stats
        assert stats["completed"] == 1.0


class TestTelemetry:
    STAGES = (
        "admission",
        "schedule",
        "pending",
        "execute",
        "rank",
        "respond",
    )

    def _traced_pipeline(self, index, **kwargs):
        tracker = RequestTracker()
        exemplars = ExemplarBuffer(k_slowest=2)
        pipeline = index.pipeline(
            tracker=tracker, exemplars=exemplars, **kwargs
        )
        return pipeline, tracker, exemplars

    def test_every_response_joins_to_a_full_span_tree(
        self, index, database
    ):
        pipeline, tracker, _ = self._traced_pipeline(
            index, max_batch_queries=2
        )
        stream = [database[0], database[1], database[0], database[2]]
        responses = pipeline.serve(stream, top_k=3)
        assert all(r.ok for r in responses)
        for response in responses:
            budgets = tracker.budgets(response.request_id)
            assert set(budgets) == set(self.STAGES)
            tree = tracker.tree(response.request_id)
            execute = next(
                node
                for node in tree["spans"]
                if node["stage"] == "execute"
            )
            # Every tree carries per-shard execution detail — dedup
            # followers via replication, primaries natively.
            assert execute["children"], tree
            assert all(
                child["stage"] == "execute.shard"
                for child in execute["children"]
            )

    def test_budgets_sum_to_measured_latency(self, index, database):
        pipeline, tracker, _ = self._traced_pipeline(index)
        responses = pipeline.serve(database[:4], top_k=2)
        for response in responses:
            budget = sum(tracker.budgets(response.request_id).values())
            # Stage spans share boundary clock readings, so attribution
            # is exact (the ISSUE floor is >= 95%).
            assert budget == pytest.approx(
                response.latency_seconds, rel=1e-9
            )

    def test_baggage_travels_with_the_request(self, index, database):
        pipeline, _, _ = self._traced_pipeline(index)
        request = pipeline.submit(database[0], top_k=1, tenant="acme")
        assert request.context.bag() == {"tenant": "acme"}
        pipeline.run_until_drained()

    def test_dedup_followers_share_replicated_shard_spans(
        self, index, database
    ):
        pipeline, tracker, _ = self._traced_pipeline(index)
        responses = pipeline.serve([database[0], database[0]], top_k=1)
        assert responses[0].results == responses[1].results
        follower_tree = tracker.tree(1)
        execute = next(
            node
            for node in follower_tree["spans"]
            if node["stage"] == "execute"
        )
        assert execute["children"]
        assert all(
            child["attrs"].get("replicated_from") == "0"
            for child in execute["children"]
        )
        annotations = tracker.annotations_for(1)
        assert annotations["primary"] == "0"
        assert annotations["group_size"] == "2"

    def test_expired_request_has_admission_only_tree(
        self, index, database
    ):
        clock = FakeClock()
        pipeline, tracker, exemplars = self._traced_pipeline(
            index, clock=clock
        )
        pipeline.submit(database[0], top_k=1, timeout_seconds=1.0)
        clock.now = 5.0
        (response,) = pipeline.run_until_drained()
        assert response.status == "expired"
        budgets = tracker.budgets(response.request_id)
        assert set(budgets) == {"admission", "respond"}
        assert sum(budgets.values()) == pytest.approx(
            response.latency_seconds
        )
        (span,) = [
            s
            for s in tracker.spans_for(response.request_id)
            if s.stage == "admission"
        ]
        assert span.attr_dict() == {"expired": "True"}
        # Expirations are always retained as exemplars.
        assert [e.request_id for e in exemplars.expired()] == [0]

    def test_exemplars_keep_slowest_trees(self, index, database):
        pipeline, _, exemplars = self._traced_pipeline(index)
        pipeline.serve(database[:4], top_k=1)
        slowest = exemplars.slowest()
        assert len(slowest) == 2  # k_slowest
        assert all(e.tree is not None for e in slowest)
        assert (
            slowest[0].latency_seconds >= slowest[1].latency_seconds
        )

    def test_exemplars_without_tracker_have_no_tree(
        self, index, database
    ):
        exemplars = ExemplarBuffer(k_slowest=1)
        pipeline = index.pipeline(exemplars=exemplars)
        pipeline.serve([database[0]], top_k=1)
        (exemplar,) = exemplars.slowest()
        assert exemplar.tree is None

    def test_budget_histograms_recorded_per_stage(self, index, database):
        with metrics_enabled() as registry:
            pipeline, _, _ = self._traced_pipeline(index)
            pipeline.serve(database[:2], top_k=1)
        for stage in self.STAGES:
            histogram = registry.histogram(
                "search.serve.budget_seconds", stage=stage
            )
            assert histogram.count == 2, stage

    def test_recorder_snapshots_once_per_round(self, index, database):
        recorder = TimeseriesRecorder(interval_seconds=1e-9)
        with metrics_enabled():
            pipeline = index.pipeline(recorder=recorder)
            pipeline.serve(database[:2], top_k=1)
            stats = pipeline.stats()
        assert len(recorder.windows) >= 1
        assert stats["windows"] == float(len(recorder.windows))
        window = recorder.windows[0]
        assert window.counters["search.serve.admitted"] == 2.0

    def test_stats_report_tracker_health(self, index, database):
        pipeline, tracker, exemplars = self._traced_pipeline(index)
        pipeline.serve(database[:3], top_k=1)
        stats = pipeline.stats()
        assert stats["tracked_requests"] == 3.0
        assert stats["dropped_spans"] == 0.0
        assert stats["exemplars"] == float(len(exemplars))

    def test_traced_results_stay_bit_identical_to_flat(
        self, index, database
    ):
        pipeline, _, _ = self._traced_pipeline(index, max_batch_queries=2)
        with metrics_enabled():
            responses = pipeline.serve(database[:4], top_k=3)
        for graph, response in zip(database[:4], responses):
            assert list(response.results) == index._query_flat(
                graph, top_k=3
            )


class TestPolicies:
    @pytest.mark.parametrize("policy", ["fifo", "deadline", "size_bucketed"])
    def test_every_policy_matches_flat(self, index, database, policy):
        rng = np.random.default_rng(5)
        stream = [
            substitute_edges(database[i % len(database)], 1, rng)
            for i in range(4)
        ]
        pipeline = index.pipeline(policy=policy, max_batch_queries=2)
        responses = pipeline.serve(stream, top_k=3)
        for graph, response in zip(stream, responses):
            assert list(response.results) == index._query_flat(graph, top_k=3)


class TestEmptyGraphContract:
    """A 0-node query, and a 0-node graph in the database, are served:
    status ``ok``, finite scores, bit-identical to the flat path, on the
    serial path and through the worker pool."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_empty_graphs_serve_finite_flat_scores(
        self, database, workers, monkeypatch
    ):
        monkeypatch.setattr(
            executor_mod, "available_workers", lambda requested=None: workers
        )
        dim = database[0].feature_dim
        empty = Graph(0, [], np.zeros((0, dim)))
        index = SimilaritySearchIndex(build_model("GMN-Li", input_dim=dim))
        index.add_many(database + [empty])
        top_k = len(database) + 1
        queries = [empty, database[1]]
        responses = index.pipeline(workers=workers).serve(queries, top_k=top_k)
        for query, response in zip(queries, responses):
            assert response.ok
            scores = np.array([result.score for result in response.results])
            assert scores.shape == (top_k,) and np.all(np.isfinite(scores))
            flat = index._query_flat(query, top_k)
            assert [r.index for r in response.results] == [r.index for r in flat]
            assert scores.tobytes() == np.array([r.score for r in flat]).tobytes()

"""Tests for the batch scheduler: dedup grouping, policies, chunking."""

import numpy as np
import pytest

from repro.graphs import generate_graph
from repro.obs import metrics_enabled
from repro.search.requests import QueryRequest
from repro.search.scheduler import BatchScheduler, SchedulingPolicy


@pytest.fixture(scope="module")
def graphs():
    rng = np.random.default_rng(1)
    return [generate_graph("AIDS", rng) for _ in range(4)]


def _request(request_id, graph, top_k=3, deadline=None):
    return QueryRequest(
        request_id=request_id,
        graph=graph,
        top_k=top_k,
        submitted_at=0.0,
        deadline=deadline,
    )


class TestPolicyParse:
    def test_accepts_enum_and_value(self):
        assert SchedulingPolicy.parse("fifo") is SchedulingPolicy.FIFO
        assert (
            SchedulingPolicy.parse(SchedulingPolicy.DEADLINE)
            is SchedulingPolicy.DEADLINE
        )

    def test_unknown_lists_known(self):
        with pytest.raises(ValueError, match="size_bucketed"):
            SchedulingPolicy.parse("round_robin")


class TestGrouping:
    def test_identical_requests_collapse(self, graphs):
        scheduler = BatchScheduler()
        requests = [
            _request(0, graphs[0]),
            _request(1, graphs[1]),
            _request(2, graphs[0]),
        ]
        groups = scheduler.group_requests(requests)
        assert [len(g) for g in groups] == [2, 1]
        assert groups[0].primary.request_id == 0
        assert [r.request_id for r in groups[0].requests] == [0, 2]

    def test_top_k_is_part_of_the_key(self, graphs):
        scheduler = BatchScheduler()
        requests = [
            _request(0, graphs[0], top_k=3),
            _request(1, graphs[0], top_k=5),
        ]
        assert len(scheduler.group_requests(requests)) == 2


class TestOrdering:
    def test_fifo_orders_by_arrival(self, graphs):
        scheduler = BatchScheduler(policy="fifo")
        requests = [_request(i, graphs[i % len(graphs)]) for i in range(4)]
        (batch,) = scheduler.build_batches(requests)
        assert [g.primary.request_id for g in batch.groups] == [0, 1, 2, 3]

    def test_deadline_orders_urgent_first(self, graphs):
        scheduler = BatchScheduler(policy="deadline")
        requests = [
            _request(0, graphs[0], deadline=None),
            _request(1, graphs[1], deadline=9.0),
            _request(2, graphs[2], deadline=3.0),
        ]
        (batch,) = scheduler.build_batches(requests)
        assert [g.primary.request_id for g in batch.groups] == [2, 1, 0]

    def test_size_bucketed_orders_by_node_count(self, graphs):
        scheduler = BatchScheduler(policy="size_bucketed")
        requests = [_request(i, graph) for i, graph in enumerate(graphs)]
        (batch,) = scheduler.build_batches(requests)
        sizes = [g.graph.num_nodes for g in batch.groups]
        assert sizes == sorted(sizes)


class TestBatching:
    def test_chunks_respect_max_batch_queries(self, graphs):
        scheduler = BatchScheduler(max_batch_queries=3)
        requests = [_request(i, graphs[i % len(graphs)]) for i in range(8)]
        batches = scheduler.build_batches(requests)
        # 8 requests over 4 distinct graphs -> 4 groups -> sizes 3 + 1.
        assert [batch.num_queries for batch in batches] == [3, 1]
        assert sum(batch.num_requests for batch in batches) == 8
        assert [batch.batch_id for batch in batches] == [0, 1]

    def test_empty_round(self):
        assert BatchScheduler().build_batches([]) == []

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            BatchScheduler(max_batch_queries=0)

    def test_description_mentions_policy_and_sizes(self, graphs):
        scheduler = BatchScheduler(policy="size_bucketed")
        (batch,) = scheduler.build_batches(
            [_request(0, graphs[0]), _request(1, graphs[0])]
        )
        description = batch.get_description()
        assert "size_bucketed" in description
        assert "1 queries serving 2 requests" in description

    def test_dedup_counter(self, graphs):
        with metrics_enabled() as registry:
            scheduler = BatchScheduler()
            scheduler.build_batches(
                [_request(i, graphs[0]) for i in range(3)]
            )
        assert registry.counter("search.serve.deduped_requests") == 2
        assert registry.counter("search.serve.batches") == 1

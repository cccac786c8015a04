"""Tests for cross-pair (batch-scoped) duplicate analysis."""

import pytest

from repro.emf import batch_matching_counts, cross_pair_headroom
from repro.graphs import Graph, GraphPair
from repro.models import GraphSim


def _trace(pair, model=None):
    return (model or GraphSim()).forward_pair(pair)


def _ring_pair(n=6):
    g = Graph.from_undirected_edges(n, [(i, (i + 1) % n) for i in range(n)])
    return GraphPair(g, g.copy())


class TestBatchCounts:
    def test_identical_pairs_collapse_across_batch(self):
        """Two identical pairs share every feature combination, so the
        batch scope halves the per-pair-unique count."""
        model = GraphSim()
        traces = [_trace(_ring_pair(), model), _trace(_ring_pair(), model)]
        counts = batch_matching_counts(traces)
        assert counts["batch_unique"] == counts["per_pair_unique"] // 2

    def test_scopes_are_ordered(self):
        model = GraphSim()
        traces = [_trace(_ring_pair(5), model), _trace(_ring_pair(7), model)]
        counts = batch_matching_counts(traces)
        assert counts["batch_unique"] <= counts["per_pair_unique"] <= counts["total"]

    def test_empty_batch(self):
        headroom = cross_pair_headroom([])
        assert headroom["headroom"] == 0.0
        assert headroom["paper_emf_remaining"] == 1.0

    def test_single_pair_no_headroom(self):
        traces = [_trace(_ring_pair())]
        headroom = cross_pair_headroom(traces)
        assert headroom["headroom"] == pytest.approx(0.0, abs=1e-12)

    def test_rings_of_any_size_share_features(self):
        """All ring nodes are degree-2 with degree-2 neighbors, so rings
        of different sizes still produce identical node features — the
        batch scope deduplicates them even though per-pair EMF cannot."""
        model = GraphSim()
        traces = [_trace(_ring_pair(5), model), _trace(_ring_pair(9), model)]
        headroom = cross_pair_headroom(traces)
        assert headroom["headroom"] > 0.0

    def test_disjoint_feature_spaces_no_headroom(self):
        # A ring pair and a star pair share no node features.
        model = GraphSim()
        star = Graph.from_undirected_edges(6, [(0, i) for i in range(1, 6)])
        traces = [
            _trace(_ring_pair(5), model),
            _trace(GraphPair(star, star.copy()), model),
        ]
        headroom = cross_pair_headroom(traces)
        assert headroom["headroom"] == pytest.approx(0.0, abs=1e-12)

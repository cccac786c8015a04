"""Tests for the analytical layer FLOP breakdown (Fig. 3 accounting)."""

import pytest

from repro.graphs import Graph, GraphPair
from repro.trace import layer_flop_breakdown, pair_flop_breakdown


class TestLayerFlopBreakdown:
    def test_matching_term(self):
        breakdown = layer_flop_breakdown(10, 20, 0, 0, feature_dim=8)
        assert breakdown["match"] == 2 * 10 * 20 * 8

    def test_aggregate_term(self):
        breakdown = layer_flop_breakdown(4, 4, 6, 10, feature_dim=8)
        assert breakdown["aggregate"] == 2 * 16 * 8

    def test_combine_with_weights(self):
        breakdown = layer_flop_breakdown(
            3, 5, 0, 0, feature_dim=8, combine_includes_weights=True
        )
        assert breakdown["combine"] == 2 * 8 * 8 * 8

    def test_combine_without_weights(self):
        breakdown = layer_flop_breakdown(
            3, 5, 0, 0, feature_dim=8, combine_includes_weights=False
        )
        assert breakdown["combine"] == 2 * 8 * 8

    def test_invalid_feature_dim(self):
        with pytest.raises(ValueError):
            layer_flop_breakdown(1, 1, 0, 0, feature_dim=0)

    def test_quadratic_matching_growth(self):
        """Section III-B: 100-node graphs need 10,000 matchings."""
        small = layer_flop_breakdown(10, 10, 0, 0)["match"]
        large = layer_flop_breakdown(100, 100, 0, 0)["match"]
        assert large == 100 * small


class TestPairFlopBreakdown:
    def test_wraps_pair_counts(self):
        target = Graph.from_undirected_edges(4, [(0, 1), (1, 2)])
        query = Graph.from_undirected_edges(3, [(0, 1)])
        pair = GraphPair(target, query)
        breakdown = pair_flop_breakdown(pair, feature_dim=4)
        assert breakdown["match"] == 2 * 4 * 3 * 4
        assert breakdown["aggregate"] == 2 * (4 + 2) * 4

    def test_paper_example_100_nodes(self):
        """The intro's example: two 100-node/1000-edge graphs incur more
        than 10x the matching computation of intra-graph processing."""
        # 1000 directed edges each ~ use denser rings
        target = Graph.from_undirected_edges(
            100, [(i, (i + k) % 100) for i in range(100) for k in range(1, 6)]
        )
        pair = GraphPair(target, target.copy())
        breakdown = pair_flop_breakdown(
            pair, feature_dim=64, combine_includes_weights=False
        )
        assert breakdown["match"] > 4 * (
            breakdown["aggregate"] + breakdown["combine"]
        )

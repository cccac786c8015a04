"""Tests for graph statistics."""

import pytest

from repro.graphs import Graph, dataset_profile, graph_profile


class TestGraphProfile:
    def test_ring_profile(self):
        g = Graph.from_undirected_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        profile = graph_profile(g)
        assert profile["num_nodes"] == 6
        assert profile["num_edges"] == 6
        assert profile["mean_degree"] == pytest.approx(2.0)
        assert profile["degree_std"] == pytest.approx(0.0)
        assert profile["num_components"] == 1
        assert profile["clustering"] == pytest.approx(0.0)

    def test_triangle_clustering(self):
        g = Graph.from_undirected_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert graph_profile(g)["clustering"] == pytest.approx(1.0)

    def test_components_counted(self):
        g = Graph.from_undirected_edges(4, [(0, 1), (2, 3)])
        assert graph_profile(g)["num_components"] == 2

    def test_star_max_degree(self):
        g = Graph.from_undirected_edges(5, [(0, i) for i in range(1, 5)])
        profile = graph_profile(g)
        assert profile["max_degree"] == 4
        assert profile["wl_unique_fraction"] == pytest.approx(2 / 5)


class TestDatasetProfile:
    def test_averages_over_sample(self):
        rings = [
            Graph.from_undirected_edges(n, [(i, (i + 1) % n) for i in range(n)])
            for n in (4, 6, 8)
        ]
        profile = dataset_profile(rings)
        assert profile["num_nodes"] == pytest.approx(6.0)
        assert profile["mean_degree"] == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dataset_profile([])

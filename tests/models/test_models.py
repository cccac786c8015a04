"""Integration tests for the three Table I GMN models."""

import numpy as np
import pytest

from repro.graphs import Graph, GraphPair, load_dataset
from repro.models import MODEL_NAMES, GMNLi, GraphSim, SimGNN, build_model


@pytest.fixture(scope="module")
def aids_pairs():
    return load_dataset("AIDS", seed=0, num_pairs=4)


def _unlabeled_pair(n=8, seed=0):
    edges = [(i, (i + 1) % n) for i in range(n)]
    target = Graph.from_undirected_edges(n, edges)
    query = Graph.from_undirected_edges(n, edges[:-1] + [(0, n // 2)])
    return GraphPair(target, query, label=1)


class TestRegistry:
    def test_three_models(self):
        assert set(MODEL_NAMES) == {"GMN-Li", "GraphSim", "SimGNN"}

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            build_model("GNN-X")

    def test_table1_configurations(self):
        gmn = GMNLi()
        assert gmn.num_layers == 5
        assert gmn.similarity == "euclidean"
        assert gmn.matching_mode == "layer-wise"

        gs = GraphSim()
        assert gs.num_layers == 3
        assert gs.similarity == "cosine"
        assert gs.matching_mode == "layer-wise"

        sg = SimGNN()
        assert sg.num_layers == 3
        assert sg.similarity == "dot"
        assert sg.matching_mode == "model-wise"


class TestForwardPass:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_score_in_unit_interval(self, name):
        model = build_model(name)
        trace = model.forward_pair(_unlabeled_pair())
        assert 0.0 <= trace.score <= 1.0

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_deterministic(self, name):
        pair = _unlabeled_pair()
        t1 = build_model(name, seed=3).forward_pair(pair)
        t2 = build_model(name, seed=3).forward_pair(pair)
        assert t1.score == t2.score

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_input_dim_validated(self, name):
        model = build_model(name, input_dim=4)
        with pytest.raises(ValueError):
            model.forward_pair(_unlabeled_pair())

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_runs_on_labeled_dataset(self, name, aids_pairs):
        input_dim = aids_pairs[0].target.feature_dim
        model = build_model(name, input_dim=input_dim)
        trace = model.forward_pair(aids_pairs[0])
        assert np.isfinite(trace.score)


class TestTraceStructure:
    def test_layerwise_models_match_every_layer(self):
        pair = _unlabeled_pair()
        for model in (GMNLi(), GraphSim()):
            trace = model.forward_pair(pair)
            assert trace.num_matching_layers == model.num_layers
            assert all(layer.has_matching for layer in trace.layers)

    def test_modelwise_matches_last_layer_only(self):
        trace = SimGNN().forward_pair(_unlabeled_pair())
        assert trace.num_matching_layers == 1
        assert trace.layers[-1].has_matching
        assert not trace.layers[0].has_matching

    def test_matching_pair_counts(self):
        pair = _unlabeled_pair(n=8)
        trace = GMNLi().forward_pair(pair)
        assert trace.total_matching_pairs == 5 * 8 * 8
        trace = SimGNN().forward_pair(pair)
        assert trace.total_matching_pairs == 8 * 8

    def test_features_recorded_per_layer(self):
        pair = _unlabeled_pair(n=6)
        trace = GraphSim().forward_pair(pair)
        for layer in trace.layers:
            assert layer.target_features.shape == (6, 64)
            assert layer.query_features.shape == (6, 64)

    def test_flops_positive_everywhere(self):
        pair = _unlabeled_pair()
        for name in MODEL_NAMES:
            trace = build_model(name).forward_pair(pair)
            assert trace.total_flops.total > 0
            for layer in trace.layers:
                assert layer.flops.total > 0

    def test_gmnli_matching_dominates_on_large_graphs(self):
        """Section III-B: matching FLOPs dominate as graphs grow."""
        n = 500
        edges = [(i, (i + 1) % n) for i in range(n)]
        g = Graph.from_undirected_edges(n, edges)
        pair = GraphPair(g, g.copy())
        trace = GMNLi().forward_pair(pair)
        flops = trace.total_flops
        assert flops.fraction("match") > 0.5


class TestDuplicateFeaturePropagation:
    """The paper's Fig. 5/6 worked example: nodes with isomorphic l-hop
    neighborhoods carry identical features at layer l, producing
    identical similarity-matrix rows."""

    def test_symmetric_nodes_share_features(self):
        # Star graph: all leaves are mutually isomorphic at every depth.
        leaves = 5
        g = Graph.from_undirected_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
        pair = GraphPair(g, g.copy())
        trace = GraphSim().forward_pair(pair)
        for layer in trace.layers:
            feats = layer.target_features
            for i in range(2, leaves + 1):
                assert np.allclose(feats[1], feats[i])

    def test_asymmetric_nodes_differ(self):
        g = Graph.from_undirected_edges(4, [(0, 1), (1, 2), (2, 3)])
        pair = GraphPair(g, g.copy())
        trace = GraphSim().forward_pair(pair)
        feats = trace.layers[0].target_features
        assert not np.allclose(feats[0], feats[1])

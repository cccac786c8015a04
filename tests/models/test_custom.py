"""Tests for the configurable CustomGMN."""

import pytest

from repro.graphs import Graph, GraphPair, load_dataset
from repro.models.custom import CustomGMN
from repro.sim import AcceleratorSimulator, awbgcn_config, cegma_config
from repro.trace.profiler import profile_batches


def _pair(n=10):
    g = Graph.from_undirected_edges(n, [(i, (i + 1) % n) for i in range(n)])
    return GraphPair(g, g.copy(), label=1)


class TestConfiguration:
    def test_layer_count_respected(self):
        model = CustomGMN(num_layers=4)
        trace = model.forward_pair(_pair())
        assert len(trace.layers) == 4

    @pytest.mark.parametrize("kind", ["dot", "cosine", "euclidean"])
    def test_similarity_kinds(self, kind):
        model = CustomGMN(similarity=kind)
        trace = model.forward_pair(_pair())
        assert trace.layers[-1].similarity == kind

    def test_model_wise_matching(self):
        model = CustomGMN(matching_mode="model-wise", num_layers=3)
        trace = model.forward_pair(_pair())
        assert trace.num_matching_layers == 1

    def test_cross_messages_set_in_layer_usage(self):
        assert CustomGMN(cross_messages=True).matching_usage == "in-layer"
        assert CustomGMN(cross_messages=False).matching_usage == "writeback"

    def test_invalid_similarity_rejected(self):
        with pytest.raises(ValueError):
            CustomGMN(similarity="manhattan")

    def test_head_features_exposed(self):
        trace = CustomGMN(hidden_dim=16).forward_pair(_pair())
        assert trace.head_features.shape == (32,)

    def test_score_in_unit_interval(self):
        trace = CustomGMN().forward_pair(_pair())
        assert 0.0 < trace.score <= 1.0


class TestEmfIntegration:
    def test_use_emf_preserves_score(self):
        pair = _pair(12)
        dense = CustomGMN(seed=3, cross_messages=False).forward_pair(pair)
        filtered = CustomGMN(
            seed=3, cross_messages=False, use_emf=True
        ).forward_pair(pair)
        assert filtered.score == pytest.approx(dense.score, abs=1e-9)


class TestExtensionStudy:
    def test_cegma_gain_scales_with_matching_depth(self):
        """The extension question the class exists for: more matching
        layers mean more EMF-removable work, hence larger CEGMA gains."""
        pairs = load_dataset("RD-B", seed=0, num_pairs=2)
        input_dim = pairs[0].target.feature_dim

        def gain(num_layers):
            model = CustomGMN(input_dim=input_dim, num_layers=num_layers)
            traces = profile_batches(model, pairs, batch_size=2)
            cegma = AcceleratorSimulator(cegma_config()).simulate_batches(traces)
            awb = AcceleratorSimulator(awbgcn_config()).simulate_batches(traces)
            return awb.latency_seconds / cegma.latency_seconds

        assert gain(5) > gain(1)

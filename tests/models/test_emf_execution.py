"""End-to-end EMF-filtered model execution.

The paper's central accuracy claim: filtering redundant matchings does
not change the model's output ("without jeopardizing accuracy",
Section III-C). These tests run each model densely and EMF-filtered on
the same pairs and compare scores and FLOPs.
"""

import pytest

from repro.graphs import Graph, GraphPair, load_dataset
from repro.models import MODEL_NAMES, build_model


def _duplicate_heavy_pair(leaves=8):
    g = Graph.from_undirected_edges(
        leaves + 1, [(0, i) for i in range(1, leaves + 1)]
    )
    return GraphPair(g, g.copy())


@pytest.fixture(scope="module")
def dataset_pairs():
    return load_dataset("GITHUB", seed=0, num_pairs=3)


class TestScorePreservation:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_scores_match_on_exact_duplicates(self, name):
        pair = _duplicate_heavy_pair()
        dense = build_model(name, seed=1).forward_pair(pair)
        filtered = build_model(name, seed=1, use_emf=True).forward_pair(pair)
        assert filtered.score == pytest.approx(dense.score, abs=1e-9)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_scores_match_on_dataset(self, name, dataset_pairs):
        input_dim = dataset_pairs[0].target.feature_dim
        dense_model = build_model(name, input_dim=input_dim, seed=2)
        emf_model = build_model(name, input_dim=input_dim, seed=2, use_emf=True)
        for pair in dataset_pairs:
            dense = dense_model.forward_pair(pair)
            filtered = emf_model.forward_pair(pair)
            # Lossless up to feature quantization (1e-6); scores pass
            # through bounded heads, so deviations stay tiny.
            assert filtered.score == pytest.approx(dense.score, abs=1e-4)


class TestFlopReduction:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_matching_flops_reduced(self, name, dataset_pairs):
        input_dim = dataset_pairs[0].target.feature_dim
        dense_model = build_model(name, input_dim=input_dim, seed=0)
        emf_model = build_model(name, input_dim=input_dim, seed=0, use_emf=True)
        pair = dataset_pairs[0]
        dense = dense_model.forward_pair(pair).total_flops.counts["match"]
        filtered = emf_model.forward_pair(pair).total_flops.counts["match"]
        assert filtered < dense * 0.6

    def test_embedding_flops_unchanged(self, dataset_pairs):
        input_dim = dataset_pairs[0].target.feature_dim
        dense_model = build_model("GraphSim", input_dim=input_dim, seed=0)
        emf_model = build_model(
            "GraphSim", input_dim=input_dim, seed=0, use_emf=True
        )
        pair = dataset_pairs[0]
        dense = dense_model.forward_pair(pair).total_flops
        filtered = emf_model.forward_pair(pair).total_flops
        assert dense.counts["aggregate"] == filtered.counts["aggregate"]
        assert dense.counts["combine"] == filtered.counts["combine"]


class TestWallClockBenefit:
    def test_filtered_is_not_slower_in_python(self, dataset_pairs):
        """Even in plain numpy, filtering duplicate-heavy workloads
        should not make inference slower (the unique submatrix is far
        smaller)."""
        import time

        input_dim = dataset_pairs[0].target.feature_dim
        dense_model = build_model("GMN-Li", input_dim=input_dim, seed=0)
        emf_model = build_model(
            "GMN-Li", input_dim=input_dim, seed=0, use_emf=True
        )
        pair = dataset_pairs[0]
        dense_model.forward_pair(pair)  # warm up
        emf_model.forward_pair(pair)

        start = time.perf_counter()
        for _ in range(3):
            dense_model.forward_pair(pair)
        dense_time = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(3):
            emf_model.forward_pair(pair)
        filtered_time = time.perf_counter() - start
        assert filtered_time < dense_time * 2.0

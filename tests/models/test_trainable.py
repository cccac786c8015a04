"""Tests for the end-to-end trainable GMN."""

import pytest

from repro.graphs import Graph, GraphPair, load_dataset
from repro.models.trainable import TrainableGMN


@pytest.fixture(scope="module")
def aids_split():
    pairs = load_dataset("AIDS", seed=0, num_pairs=96)
    return pairs[:64], pairs[64:]


class TestConstruction:
    def test_parameter_count(self):
        model = TrainableGMN(hidden_dim=8, num_layers=3)
        # encoder + 3 layer weights + head.
        assert len(model.parameters) == 5

    def test_cross_messages_widen_updates(self):
        with_cross = TrainableGMN(hidden_dim=8, cross_messages=True)
        without = TrainableGMN(hidden_dim=8, cross_messages=False)
        assert with_cross.layer_weights[0].shape == (16, 8)
        assert without.layer_weights[0].shape == (8, 8)

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            TrainableGMN(num_layers=0)


class TestScoring:
    def test_score_in_unit_interval(self, aids_split):
        train, _ = aids_split
        model = TrainableGMN(input_dim=train[0].target.feature_dim)
        score = model.score_pair(train[0])
        assert 0.0 < score < 1.0

    def test_deterministic(self, aids_split):
        train, _ = aids_split
        dim = train[0].target.feature_dim
        a = TrainableGMN(input_dim=dim, seed=3).score_pair(train[0])
        b = TrainableGMN(input_dim=dim, seed=3).score_pair(train[0])
        assert a == b


class TestTraining:
    def test_loss_decreases(self, aids_split):
        train, _ = aids_split
        model = TrainableGMN(
            input_dim=train[0].target.feature_dim, hidden_dim=16, seed=0
        )
        losses = model.fit(train[:24], epochs=25)
        assert losses[-1] < losses[0] - 0.05

    def test_learns_above_chance(self, aids_split):
        """The paper's premise: GMNs learn the similarity task. Trained
        end to end, the model clears chance comfortably on held-out
        pairs."""
        train, test = aids_split
        model = TrainableGMN(
            input_dim=train[0].target.feature_dim, hidden_dim=16, seed=1
        )
        model.fit(train, epochs=60)
        assert model.accuracy(test) >= 0.6

    def test_both_matching_modes_learn(self, aids_split):
        """Layer-wise cross messages and the Siamese baseline both learn
        at this scale; resolving the paper's layer-wise accuracy
        *advantage* needs larger models/datasets than this harness runs
        (documented in the module docstring)."""
        train, test = aids_split
        dim = train[0].target.feature_dim
        for cross in (True, False):
            model = TrainableGMN(
                input_dim=dim, hidden_dim=16, cross_messages=cross, seed=1
            )
            model.fit(train, epochs=60)
            assert model.accuracy(test) > 0.55

    def test_unlabeled_pairs_rejected(self):
        g = Graph.from_undirected_edges(4, [(0, 1), (1, 2)])
        model = TrainableGMN()
        with pytest.raises(ValueError):
            model.fit([GraphPair(g, g.copy(), label=None)], epochs=1)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            TrainableGMN().fit([], epochs=1)

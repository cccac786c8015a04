"""Unit tests for numpy neural-network layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counters import FlopCounter
from repro.models import MLP, Conv2D, GCNLayer, Linear, NeuralTensorNetwork, relu, sigmoid
from repro.graphs import Graph


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestFlopCounter:
    def test_starts_at_zero(self):
        assert FlopCounter().total == 0

    def test_add_and_total(self):
        c = FlopCounter()
        c.add("match", 10)
        c.add("aggregate", 5)
        assert c.total == 15
        assert c.counts["match"] == 10

    def test_fraction(self):
        c = FlopCounter()
        c.add("match", 30)
        c.add("combine", 70)
        assert c.fraction("match") == pytest.approx(0.3)

    def test_fraction_of_empty_counter(self):
        assert FlopCounter().fraction("match") == 0.0

    def test_unknown_phase_rejected(self):
        with pytest.raises(KeyError):
            FlopCounter().add("mystery", 1)

    def test_merged_is_non_destructive(self):
        a, b = FlopCounter(), FlopCounter()
        a.add("match", 1)
        b.add("match", 2)
        merged = a.merged(b)
        assert merged.counts["match"] == 3
        assert a.counts["match"] == 1


class TestActivations:
    def test_relu_clamps_negatives(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_sigmoid_range(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-6)
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1.0, abs=1e-6)

    def test_sigmoid_no_overflow(self):
        assert np.all(np.isfinite(sigmoid(np.array([-1e9, 1e9]))))


class TestLinear:
    def test_shape(self):
        layer = Linear(4, 8, _rng())
        out = layer.forward(np.zeros((5, 4)))
        assert out.shape == (5, 8)

    def test_wrong_input_dim_rejected(self):
        layer = Linear(4, 8, _rng())
        with pytest.raises(ValueError):
            layer.forward(np.zeros((5, 3)))

    def test_flops_counted(self):
        layer = Linear(4, 8, _rng())
        flops = FlopCounter()
        layer.forward(np.zeros((5, 4)), flops, phase="combine")
        assert flops.counts["combine"] == 2 * 5 * 4 * 8

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            Linear(0, 3, _rng())

    def test_deterministic_given_seed(self):
        a = Linear(4, 4, _rng(7)).weight
        b = Linear(4, 4, _rng(7)).weight
        assert np.array_equal(a, b)


class TestMLP:
    def test_shapes_through_stack(self):
        mlp = MLP([6, 12, 3], _rng())
        assert mlp.forward(np.zeros((2, 6))).shape == (2, 3)
        assert mlp.in_dim == 6
        assert mlp.out_dim == 3

    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([5], _rng())

    def test_no_activation_after_last_layer(self):
        # With a negative bias forced on the output layer, outputs can go
        # negative -- proving no trailing ReLU.
        mlp = MLP([2, 2], _rng())
        mlp.layers[-1].bias[:] = -100.0
        out = mlp.forward(np.zeros((1, 2)))
        assert np.all(out < 0)

    @given(batch=st.integers(1, 8))
    @settings(max_examples=10, deadline=None)
    def test_property_batch_independence(self, batch):
        mlp = MLP([3, 5, 2], _rng(1))
        x = np.arange(batch * 3, dtype=float).reshape(batch, 3)
        full = mlp.forward(x)
        rows = np.vstack([mlp.forward(x[i : i + 1]) for i in range(batch)])
        assert np.allclose(full, rows)


class TestGCNLayer:
    def test_shape_and_flops(self):
        g = Graph.from_undirected_edges(4, [(0, 1), (1, 2), (2, 3)])
        layer = GCNLayer(3, 5, _rng())
        flops = FlopCounter()
        out = layer.forward(
            g.normalized_adjacency(), np.ones((4, 3)), g.num_edges, flops
        )
        assert out.shape == (4, 5)
        assert flops.counts["aggregate"] == 2 * (6 + 4) * 3
        assert flops.counts["combine"] == 2 * 4 * 3 * 5

    def test_isomorphic_nodes_get_equal_features(self):
        # Path graph 0-1-2: endpoints 0 and 2 are symmetric.
        g = Graph.from_undirected_edges(3, [(0, 1), (1, 2)])
        layer = GCNLayer(1, 8, _rng())
        out = layer.forward(g.normalized_adjacency(), np.ones((3, 1)), g.num_edges)
        assert np.allclose(out[0], out[2])
        assert not np.allclose(out[0], out[1])


class TestNTN:
    def test_output_slices(self):
        ntn = NeuralTensorNetwork(8, 4, _rng())
        out = ntn.forward(np.ones(8), np.ones(8))
        assert out.shape == (4,)
        assert np.all(out >= 0)  # ReLU output

    def test_shape_validation(self):
        ntn = NeuralTensorNetwork(8, 4, _rng())
        with pytest.raises(ValueError):
            ntn.forward(np.ones(7), np.ones(8))

    def test_symmetric_inputs_nonzero(self):
        ntn = NeuralTensorNetwork(4, 2, _rng(3))
        out = ntn.forward(np.ones(4), np.ones(4))
        assert out.shape == (2,)


class TestConv2D:
    def test_output_channels_and_pooling(self):
        conv = Conv2D(1, 4, _rng())
        out = conv.forward(np.ones((1, 8, 8)))
        assert out.shape == (4, 4, 4)

    def test_no_pool(self):
        conv = Conv2D(1, 4, _rng())
        out = conv.forward(np.ones((1, 8, 8)), pool=False)
        assert out.shape == (4, 8, 8)

    def test_input_validation(self):
        conv = Conv2D(2, 4, _rng())
        with pytest.raises(ValueError):
            conv.forward(np.ones((1, 8, 8)))

    def test_flops_counted(self):
        conv = Conv2D(1, 2, _rng())
        flops = FlopCounter()
        conv.forward(np.ones((1, 4, 4)), flops)
        assert flops.counts["other"] == 2 * 4 * 4 * 1 * 9 * 2

    def test_translation_of_constant_input(self):
        # A constant input must give a constant interior response.
        conv = Conv2D(1, 1, _rng(2))
        out = conv.forward(np.ones((1, 6, 6)), pool=False)
        interior = out[0, 1:-1, 1:-1]
        assert np.allclose(interior, interior[0, 0])


def _conv_per_pixel(conv, x, pool):
    """Reference: the per-pixel im2col loop, then the same GEMM."""
    channels, height, width = x.shape
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    patches = np.empty((height * width, channels * 9))
    idx = 0
    for i in range(height):
        for j in range(width):
            patches[idx] = padded[:, i : i + 3, j : j + 3].ravel()
            idx += 1
    kernel = conv.weight.reshape(conv.out_channels, -1).T
    out = relu(patches @ kernel + conv.bias)
    out = out.T.reshape(conv.out_channels, height, width)
    if pool and height >= 2 and width >= 2:
        h2, w2 = height // 2, width // 2
        out = out[:, : h2 * 2, : w2 * 2]
        out = out.reshape(conv.out_channels, h2, 2, w2, 2).max(axis=(2, 4))
    return out


class TestConv2DIm2col:
    """The strided im2col equals the per-pixel loop bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (3, 5), (16, 16)])
    @pytest.mark.parametrize("channels", [1, 16])
    @pytest.mark.parametrize("pool", [True, False])
    def test_matches_per_pixel_loop(self, shape, channels, pool):
        rng = _rng(7)
        conv = Conv2D(channels, 16, rng)
        conv.bias = rng.normal(size=16)
        x = rng.normal(size=(channels, *shape))
        out = conv.forward(x, pool=pool)
        reference = _conv_per_pixel(conv, x, pool)
        assert out.shape == reference.shape
        assert out.tobytes() == reference.tobytes()

"""Neural-network building blocks implemented in pure numpy.

Only inference is needed for the paper's evaluation (the accelerator runs
trained models), so layers implement forward passes with deterministic,
seed-controlled Glorot initialization standing in for trained weights.
Every layer tracks the floating-point operations it performs through a
:class:`FlopCounter`, categorized by GMN phase (aggregate / combine /
match / other), which feeds the Fig. 3 breakdown and the platform models.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..counters import FlopCounter

__all__ = [
    "FlopCounter",
    "Linear",
    "MLP",
    "GCNLayer",
    "NeuralTensorNetwork",
    "Conv2D",
    "relu",
    "sigmoid",
    "glorot",
]

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear:
    """Affine transform ``x @ W + b``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        if in_dim < 1 or out_dim < 1:
            raise ValueError("dimensions must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = glorot(rng, in_dim, out_dim)
        self.bias = np.zeros(out_dim)

    def flop_count(self, rows: int) -> int:
        """FLOPs of :meth:`forward` over ``rows`` input rows."""
        return 2 * rows * self.in_dim * self.out_dim

    def forward(
        self, x: np.ndarray, flops: Optional[FlopCounter] = None, phase: str = "other"
    ) -> np.ndarray:
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"expected input dim {self.in_dim}, got {x.shape[-1]}"
            )
        if flops is not None:
            flops.add(phase, self.flop_count(int(np.prod(x.shape[:-1]))))
        return x @ self.weight + self.bias


class MLP:
    """Multi-layer perceptron with ReLU between layers (none after last)."""

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator) -> None:
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.sizes = list(sizes)
        self.layers = [
            Linear(sizes[i], sizes[i + 1], rng) for i in range(len(sizes) - 1)
        ]

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def flop_count(self, rows: int) -> int:
        """FLOPs of :meth:`forward` over ``rows`` input rows."""
        return sum(layer.flop_count(rows) for layer in self.layers)

    def forward(
        self, x: np.ndarray, flops: Optional[FlopCounter] = None, phase: str = "other"
    ) -> np.ndarray:
        for index, layer in enumerate(self.layers):
            x = layer.forward(x, flops, phase)
            if index + 1 < len(self.layers):
                x = relu(x)
        return x


class GCNLayer:
    """Standard GCN layer: ``sigma(A_hat X W)`` (Kipf & Welling).

    The aggregation (``A_hat X``) and combination (``X W`` + activation)
    phases are counted separately, matching the paper's Fig. 3 breakdown.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = glorot(rng, in_dim, out_dim)
        self.bias = np.zeros(out_dim)

    def forward(
        self,
        norm_adjacency: np.ndarray,
        x: np.ndarray,
        num_edges: int,
        flops: Optional[FlopCounter] = None,
        activation=relu,
    ) -> np.ndarray:
        """Apply the layer.

        ``num_edges`` is the number of directed edges in the underlying
        graph; aggregation FLOPs are counted sparsely (one multiply-add
        per edge per feature, plus the self loop), which is how every
        GNN accelerator in the paper executes the SpMM.
        """
        aggregated = norm_adjacency @ x
        if flops is not None:
            flops.add("aggregate", 2 * (num_edges + x.shape[0]) * self.in_dim)
            flops.add("combine", 2 * x.shape[0] * self.in_dim * self.out_dim)
        return activation(aggregated @ self.weight + self.bias)


class NeuralTensorNetwork:
    """SimGNN's NTN: scores interaction of two graph-level embeddings.

    ``g(h1, h2) = relu(h1^T W[k] h2 + V [h1; h2] + b)`` with ``k`` slices.
    """

    def __init__(self, dim: int, slices: int, rng: np.random.Generator) -> None:
        self.dim = dim
        self.slices = slices
        self.tensor = glorot(rng, dim, dim * slices).reshape(dim, dim, slices)
        self.linear = glorot(rng, 2 * dim, slices)
        self.bias = np.zeros(slices)

    def forward(
        self,
        h1: np.ndarray,
        h2: np.ndarray,
        flops: Optional[FlopCounter] = None,
    ) -> np.ndarray:
        if h1.shape != (self.dim,) or h2.shape != (self.dim,):
            raise ValueError("NTN expects graph-level vectors of the right dim")
        bilinear = np.einsum("i,ijk,j->k", h1, self.tensor, h2)
        concat = np.concatenate([h1, h2])
        if flops is not None:
            flops.add("other", 2 * self.dim * self.dim * self.slices)
            flops.add("other", 2 * 2 * self.dim * self.slices)
        return relu(bilinear + concat @ self.linear + self.bias)


class Conv2D:
    """Minimal 3x3 same-padding convolution with optional 2x2 max-pool.

    Used by GraphSim's CNN stages over (padded) similarity matrices. The
    implementation favours clarity over speed; similarity matrices are
    resized to a small fixed extent before convolution.
    """

    KERNEL = 3

    def __init__(
        self, in_channels: int, out_channels: int, rng: np.random.Generator
    ) -> None:
        self.in_channels = in_channels
        self.out_channels = out_channels
        fan_in = in_channels * self.KERNEL * self.KERNEL
        limit = np.sqrt(6.0 / (fan_in + out_channels))
        self.weight = rng.uniform(
            -limit, limit, size=(out_channels, in_channels, self.KERNEL, self.KERNEL)
        )
        self.bias = np.zeros(out_channels)

    def forward(
        self,
        x: np.ndarray,
        flops: Optional[FlopCounter] = None,
        pool: bool = True,
    ) -> np.ndarray:
        """``x`` has shape (in_channels, H, W); returns (out_channels, H', W')."""
        if x.ndim != 3 or x.shape[0] != self.in_channels:
            raise ValueError(
                f"expected ({self.in_channels}, H, W) input, got {x.shape}"
            )
        channels, height, width = x.shape
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        # im2col: gather 3x3 patches.
        patches = np.empty((height * width, channels * 9))
        idx = 0
        for i in range(height):
            for j in range(width):
                patches[idx] = padded[:, i : i + 3, j : j + 3].ravel()
                idx += 1
        kernel = self.weight.reshape(self.out_channels, -1).T
        out = relu(patches @ kernel + self.bias)
        out = out.T.reshape(self.out_channels, height, width)
        if flops is not None:
            flops.add("other", 2 * height * width * channels * 9 * self.out_channels)
        if pool and height >= 2 and width >= 2:
            h2, w2 = height // 2, width // 2
            out = out[:, : h2 * 2, : w2 * 2]
            out = out.reshape(self.out_channels, h2, 2, w2, 2).max(axis=(2, 4))
        return out

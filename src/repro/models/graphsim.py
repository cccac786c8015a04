"""GraphSim (Bai et al., AAAI'20).

Table I configuration: ``3*(GCN[1,64], SIM[64,1])`` node embedding with a
cosine similarity matrix after every GCN layer, three CNN towers
(``CNN[1,16,32,64,128]``) — one per similarity matrix scale — and a final
MLP head ``[128*3,128,64,32,16,1]``.

The published GraphSim orders nodes by BFS and resizes similarity
matrices to a fixed extent before the CNNs; we reproduce the fixed-extent
step by zero-padding small matrices and resampling large ones to
``SIM_MATRIX_EXTENT`` (the CNN tower input), which preserves the FLOP
profile and the layer-wise matching workload CEGMA targets.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..graphs.interop import propagation_matrix
from ..graphs.pairs import GraphPair
from ..trace.events import LayerTrace
from .base import GMNModel
from .layers import MLP, Conv2D, FlopCounter, GCNLayer, sigmoid

__all__ = ["GraphSim"]

SIM_MATRIX_EXTENT = 16
CNN_CHANNELS = (1, 16, 32, 64, 128)


class GraphSim(GMNModel):
    """GraphSim with layer-wise cosine matching."""

    def __init__(
        self,
        input_dim: int = 1,
        hidden_dim: int = 64,
        seed: int = 0,
        use_emf: bool = False,
    ) -> None:
        super().__init__(
            name="GraphSim",
            similarity="cosine",
            matching_mode="layer-wise",
            num_layers=3,
            hidden_dim=hidden_dim,
            seed=seed,
            use_emf=use_emf,
        )
        self.input_dim = input_dim
        rng = self._rng
        dims = [input_dim] + [hidden_dim] * self.num_layers
        self.gcn_layers = [
            GCNLayer(dims[i], dims[i + 1], rng) for i in range(self.num_layers)
        ]
        self.cnn_towers: List[List[Conv2D]] = [
            [
                Conv2D(CNN_CHANNELS[i], CNN_CHANNELS[i + 1], rng)
                for i in range(len(CNN_CHANNELS) - 1)
            ]
            for _ in range(self.num_layers)
        ]
        self.head = MLP(
            [CNN_CHANNELS[-1] * self.num_layers, 128, 64, 32, 16, 1], rng
        )

    # ------------------------------------------------------------------
    def _fixed_extent(self, similarity: np.ndarray) -> np.ndarray:
        """Resize a similarity matrix to the CNN input extent.

        Smaller matrices are zero-padded; larger ones are resampled at
        evenly spaced rows/columns (GraphSim's BFS-ordered resize), which
        keeps signal from the whole matrix rather than one corner.
        """
        fixed = np.zeros((SIM_MATRIX_EXTENT, SIM_MATRIX_EXTENT))
        n, m = similarity.shape
        if n == 0 or m == 0:
            return fixed
        rows = (
            np.arange(n)
            if n <= SIM_MATRIX_EXTENT
            else np.linspace(0, n - 1, SIM_MATRIX_EXTENT).astype(int)
        )
        cols = (
            np.arange(m)
            if m <= SIM_MATRIX_EXTENT
            else np.linspace(0, m - 1, SIM_MATRIX_EXTENT).astype(int)
        )
        fixed[: len(rows), : len(cols)] = similarity[np.ix_(rows, cols)]
        return fixed

    def _cnn_tower(
        self, tower: List[Conv2D], matrix: np.ndarray, flops: FlopCounter
    ) -> np.ndarray:
        activations = matrix[None, :, :]
        for conv in tower:
            activations = conv.forward(activations, flops)
        # Global average pool over the remaining spatial extent.
        return activations.mean(axis=(1, 2))

    # ------------------------------------------------------------------
    def forward_pair(self, pair: GraphPair):
        target, query = pair.target, pair.query
        if target.feature_dim != self.input_dim or query.feature_dim != self.input_dim:
            raise ValueError(
                f"{self.name} was built for input dim {self.input_dim}, got "
                f"{target.feature_dim}/{query.feature_dim}"
            )
        norm_t = propagation_matrix(target)
        norm_q = propagation_matrix(query)
        x, y = target.node_features, query.node_features

        layer_traces: List[LayerTrace] = []
        readout_flops = FlopCounter()
        pooled: List[np.ndarray] = []
        for index, gcn in enumerate(self.gcn_layers):
            flops = FlopCounter()
            x = gcn.forward(norm_t, x, target.num_edges, flops)
            y = gcn.forward(norm_q, y, query.num_edges, flops)
            # Layer-wise matching: cosine similarity over the layer output.
            sim = self._similarity(x, y, "cosine", flops)
            pooled.append(self._cnn_tower(self.cnn_towers[index], self._fixed_extent(sim), readout_flops))
            layer_traces.append(
                LayerTrace(
                    layer_index=index,
                    target_features=x.copy(),
                    query_features=y.copy(),
                    in_dim=gcn.in_dim,
                    out_dim=gcn.out_dim,
                    has_matching=True,
                    similarity="cosine",
                    flops=flops,
                )
            )

        features = np.concatenate(pooled)
        score = float(sigmoid(self.head.forward(features, readout_flops))[0])
        return self._make_trace(
            pair, layer_traces, readout_flops, score, head_features=features
        )

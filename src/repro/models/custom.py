"""Configurable GMN for extension studies.

The paper evaluates three fixed models; CEGMA itself is
model-agnostic — it only needs per-layer features and a matching stage.
``CustomGMN`` lets users compose their own: any layer count, hidden
width, similarity kind, layer-wise or model-wise matching, optional
GMN-Li-style cross-graph attention messages. Traces from custom models
drive all simulators and experiments exactly like the Table I models,
so questions such as "how does CEGMA's gain scale with matching depth?"
become one-liners (see ``tests/models/test_custom.py``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..graphs.interop import propagation_matrix
from ..graphs.pairs import GraphPair
from ..trace.events import LayerTrace
from .base import GMNModel
from .layers import MLP, FlopCounter, GCNLayer, Linear
from .similarity import SIMILARITY_KINDS, cross_graph_attention

__all__ = ["CustomGMN"]


class CustomGMN(GMNModel):
    """A GCN-backbone GMN with configurable matching.

    Parameters
    ----------
    num_layers, hidden_dim:
        Backbone shape (GCN layers, all ``hidden_dim`` wide).
    similarity:
        Matching similarity kind.
    matching_mode:
        "layer-wise" or "model-wise".
    cross_messages:
        When True, each matching layer feeds the attention-weighted
        cross-graph message back into the node update (GMN-Li style,
        update MLP over ``[x, mu]``); when False matching results are
        written out only (SimGNN/GraphSim style).
    """

    def __init__(
        self,
        input_dim: int = 1,
        hidden_dim: int = 64,
        num_layers: int = 3,
        similarity: str = "dot",
        matching_mode: str = "layer-wise",
        cross_messages: bool = False,
        seed: int = 0,
        use_emf: bool = False,
    ) -> None:
        if similarity not in SIMILARITY_KINDS:
            raise ValueError(
                f"unknown similarity {similarity!r}; known: {SIMILARITY_KINDS}"
            )
        super().__init__(
            name=f"CustomGMN({num_layers}x{hidden_dim},{similarity})",
            similarity=similarity,
            matching_mode=matching_mode,
            num_layers=num_layers,
            hidden_dim=hidden_dim,
            seed=seed,
            matching_usage="in-layer" if cross_messages else "writeback",
            use_emf=use_emf,
        )
        self.input_dim = input_dim
        self.cross_messages = cross_messages
        rng = self._rng
        dims = [input_dim] + [hidden_dim] * num_layers
        self.gcn_layers = [
            GCNLayer(dims[i], dims[i + 1], rng) for i in range(num_layers)
        ]
        if cross_messages:
            self.update_mlps = [
                MLP([2 * hidden_dim, hidden_dim], rng)
                for _ in range(num_layers)
            ]
        self.readout = Linear(hidden_dim, hidden_dim, rng)

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
        for index, gcn in enumerate(self.gcn_layers):
            flops = FlopCounter()
            x = gcn.forward(norm_t, x, target.num_edges, flops)
            y = gcn.forward(norm_q, y, query.num_edges, flops)
            has_matching = self.layer_has_matching(index)
            if has_matching:
                similarity = self._similarity(x, y, self.similarity, flops)
                if self.cross_messages:
                    mu_target = cross_graph_attention(x, y, similarity, flops)
                    mu_query = cross_graph_attention(
                        y, x, similarity.T, flops
                    )
                    x = self.update_mlps[index].forward(
                        np.concatenate([x, mu_target], axis=1),
                        flops,
                        phase="combine",
                    )
                    y = self.update_mlps[index].forward(
                        np.concatenate([y, mu_query], axis=1),
                        flops,
                        phase="combine",
                    )
            layer_traces.append(
                LayerTrace(
                    layer_index=index,
                    target_features=x.copy(),
                    query_features=y.copy(),
                    in_dim=gcn.in_dim,
                    out_dim=self.hidden_dim,
                    has_matching=has_matching,
                    similarity=self.similarity if has_matching else None,
                    flops=flops,
                )
            )

        h_target = self.readout.forward(x.mean(axis=0), readout_flops)
        h_query = self.readout.forward(y.mean(axis=0), readout_flops)
        distance = float(np.linalg.norm(h_target - h_query))
        score = 1.0 / (1.0 + distance)
        head_features = np.concatenate(
            [np.abs(h_target - h_query), h_target * h_query]
        )
        return self._make_trace(
            pair, layer_traces, readout_flops, score, head_features=head_features
        )

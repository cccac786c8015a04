"""GMN model base class.

All three evaluated models (GMN-Li, GraphSim, SimGNN — Table I) share the
two-stage structure of Fig. 1: per-layer intra-graph node embedding plus
cross-graph node matching, either layer-wise (GMN-Li, GraphSim) or
model-wise (SimGNN, last layer only). ``forward_pair`` runs inference and
returns a :class:`~repro.trace.events.PairTrace` that records, per layer,
the node features entering the matching stage and the per-phase FLOPs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.pairs import GraphPair
from ..trace.events import LayerTrace, PairTrace
from ..counters import FlopCounter
from .similarity import filtered_similarity_matrix, similarity_matrix

__all__ = ["GMNModel", "MATCHING_MODES"]

MATCHING_MODES = ("layer-wise", "model-wise")


class GMNModel(ABC):
    """Abstract Graph Matching Network.

    Parameters
    ----------
    name:
        Model identifier (used in experiment tables).
    similarity:
        Similarity kind of the matching stage ("dot", "cosine",
        "euclidean").
    matching_mode:
        "layer-wise" computes Eq. 2 in every layer; "model-wise" only in
        the last layer (SimGNN), which the paper notes has less
        optimization potential for CEGMA.
    hidden_dim:
        Node feature width inside the network (64 for all Table I models).
    seed:
        Seed for the deterministic weight initialization.
    use_emf:
        When True, every matching stage runs through the Elastic
        Matching Filter: only unique nodes' similarities are computed
        and duplicates receive broadcast copies. This is the software
        realization of CEGMA's filter; results are lossless up to the
        EMF's feature quantization (exact on the fixed-point hardware).
    """

    def __init__(
        self,
        name: str,
        similarity: str,
        matching_mode: str,
        num_layers: int,
        hidden_dim: int = 64,
        seed: int = 0,
        matching_usage: str = "writeback",
        use_emf: bool = False,
    ) -> None:
        if matching_mode not in MATCHING_MODES:
            raise ValueError(
                f"unknown matching mode {matching_mode!r}; known: {MATCHING_MODES}"
            )
        if num_layers < 1:
            raise ValueError("models need at least one layer")
        self.name = name
        self.similarity = similarity
        self.matching_mode = matching_mode
        self.num_layers = num_layers
        self.hidden_dim = hidden_dim
        self.seed = seed
        self.matching_usage = matching_usage
        self.use_emf = use_emf
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _similarity(
        self,
        x: np.ndarray,
        y: np.ndarray,
        kind: str,
        flops: Optional[FlopCounter] = None,
    ) -> np.ndarray:
        """Matching-stage similarity, optionally EMF-filtered.

        FLOPs recorded reflect the work actually performed: the filtered
        path only pays for the unique rows/columns.
        """
        if not self.use_emf:
            return similarity_matrix(x, y, kind, flops)
        return filtered_similarity_matrix(x, y, kind, flops)

    def layer_has_matching(self, layer_index: int) -> bool:
        """Whether the matching stage runs in the given layer."""
        if self.matching_mode == "layer-wise":
            return True
        return layer_index == self.num_layers - 1

    @abstractmethod
    def forward_pair(self, pair: GraphPair) -> PairTrace:
        """Run inference on one graph pair, returning the full trace."""

    def score_pairs(
        self, pairs: Sequence[GraphPair]
    ) -> List[Tuple[float, Optional[np.ndarray]]]:
        """Score and head features of every pair, without a trace.

        The entry point serving scores through. This default runs
        :meth:`forward_pair` per pair; a model with a batched forward
        overrides it, and must return exactly what ``forward_pair``
        would for each pair.
        """
        return [
            (trace.score, trace.head_features)
            for trace in map(self.forward_pair, pairs)
        ]

    def score_pair(self, pair: GraphPair) -> float:
        """Similarity score only (convenience wrapper)."""
        return self.score_pairs([pair])[0][0]

    # ------------------------------------------------------------------
    def _make_trace(
        self,
        pair: GraphPair,
        layers: List[LayerTrace],
        readout_flops: FlopCounter,
        score: float,
        head_features: Optional[np.ndarray] = None,
    ) -> PairTrace:
        return PairTrace(
            self.name,
            pair,
            layers,
            readout_flops,
            float(score),
            self.matching_usage,
            head_features,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(layers={self.num_layers}, "
            f"similarity={self.similarity!r}, mode={self.matching_mode!r})"
        )

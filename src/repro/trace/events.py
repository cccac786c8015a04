"""Trace record structures.

The CEGMA simulator is trace-driven (Section V-A): models run once on the
"CPU" (here: numpy) and emit a trace of per-layer node features, FLOP
counts, and matching activity. Every platform model (CEGMA, HyGCN,
AWB-GCN, PyG-CPU/GPU) consumes the same trace, which guarantees that
cross-platform comparisons are over identical workloads.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..graphs.pairs import GraphPair
from ..counters import FlopCounter

__all__ = ["LayerTrace", "PairTrace"]


class LayerTrace:
    """One GMN layer's workload for one graph pair.

    Attributes
    ----------
    layer_index:
        0-based layer number.
    target_features, query_features:
        Node features *entering* the layer (the features the matching
        stage of this layer reads, i.e. ``X^l`` / ``Y^l`` of Eq. 2).
    in_dim, out_dim:
        Feature dimensionality entering and leaving the layer.
    has_matching:
        Whether this layer performs cross-graph matching (every layer in
        layer-wise GMNs; only the last in SimGNN's model-wise matching).
    similarity:
        Similarity kind used if ``has_matching``.
    flops:
        Per-phase FLOP counts for this layer only.
    """

    __slots__ = (
        "layer_index",
        "target_features",
        "query_features",
        "in_dim",
        "out_dim",
        "has_matching",
        "similarity",
        "flops",
        "_matching_plan",
        "_plan_summary",
    )

    def __init__(
        self,
        layer_index: int,
        target_features: np.ndarray,
        query_features: np.ndarray,
        in_dim: int,
        out_dim: int,
        has_matching: bool,
        similarity: Optional[str],
        flops: FlopCounter,
    ) -> None:
        self.layer_index = layer_index
        self.target_features = target_features
        self.query_features = query_features
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.has_matching = has_matching
        self.similarity = similarity
        self.flops = flops
        self._matching_plan = None
        # Cached PlanSummary of the plan, shared by every platform the
        # batched engine simulates from this trace.
        self._plan_summary = None

    def matching_plan(self):
        """Default-parameter EMF :class:`~repro.emf.filter.MatchingPlan`.

        Memoized on the trace: every platform simulator filters the same
        layer features, so the plan is computed once per layer and shared
        across all platforms/variants simulated from this trace.
        """
        if self._matching_plan is None:
            from ..emf.filter import MatchingPlan  # deferred: avoids cycle

            self._matching_plan = MatchingPlan.from_features(
                self.target_features, self.query_features
            )
        return self._matching_plan

    @property
    def num_matching_pairs(self) -> int:
        if not self.has_matching:
            return 0
        return self.target_features.shape[0] * self.query_features.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LayerTrace(layer={self.layer_index}, in={self.in_dim}, "
            f"out={self.out_dim}, matching={self.has_matching})"
        )


class PairTrace:
    """Full trace of one model inference over one graph pair.

    ``matching_usage`` records how the model consumes similarity
    results: "writeback" (SimGNN, GraphSim — written to memory for a
    later stage) or "in-layer" (GMN-Li — consumed within the layer),
    which selects the Matching Controller's broadcast vs. on-chip-reuse
    mode (Section IV-D).
    """

    __slots__ = (
        "model_name",
        "pair",
        "layers",
        "readout_flops",
        "score",
        "matching_usage",
        "head_features",
    )

    def __init__(
        self,
        model_name: str,
        pair: GraphPair,
        layers: List[LayerTrace],
        readout_flops: FlopCounter,
        score: float,
        matching_usage: str = "writeback",
        head_features: Optional[np.ndarray] = None,
    ) -> None:
        if matching_usage not in ("writeback", "in-layer"):
            raise ValueError(f"unknown matching_usage {matching_usage!r}")
        self.model_name = model_name
        self.pair = pair
        self.layers = layers
        self.readout_flops = readout_flops
        self.score = score
        self.matching_usage = matching_usage
        # Feature vector entering the prediction head; used to train
        # lightweight scoring heads on top of the (untrained) backbone.
        self.head_features = head_features

    @property
    def total_flops(self) -> FlopCounter:
        total = self.readout_flops
        for layer in self.layers:
            total = total.merged(layer.flops)
        return total

    @property
    def num_matching_layers(self) -> int:
        return sum(1 for layer in self.layers if layer.has_matching)

    @property
    def total_matching_pairs(self) -> int:
        return sum(layer.num_matching_pairs for layer in self.layers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PairTrace(model={self.model_name!r}, layers={len(self.layers)}, "
            f"score={self.score:.4f})"
        )

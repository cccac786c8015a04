"""Cross-graph node similarity functions (Eq. 2 of the paper).

Given per-layer node features ``X`` (target graph, n x f) and ``Y``
(query graph, m x f), the matching stage computes the similarity matrix
``S = X Y^T / K`` where ``K`` depends on the similarity kind:

- dot-product: ``K = 1``
- euclidean:  ``K = 2`` and scores are normalized by subtracting the
  squared row/column magnitudes, giving ``-||x_i - y_j||^2`` up to sign
  conventions (this is the formulation of GMN-Li).
- cosine: ``K_ij = ||x_i|| * ||y_j||``
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..emf.filter import MatchingPlan
from .layers import FlopCounter

__all__ = [
    "SIMILARITY_KINDS",
    "similarity_matrix",
    "filtered_similarity_matrix",
    "matching_flops",
    "attention_flops",
    "cross_graph_attention",
    "cross_graph_attention_unique",
]

SIMILARITY_KINDS = ("dot", "cosine", "euclidean")

_EPS = 1e-12


def similarity_matrix(
    x: np.ndarray,
    y: np.ndarray,
    kind: str = "dot",
    flops: Optional[FlopCounter] = None,
) -> np.ndarray:
    """All-to-all similarity between target features x and query features y.

    ``x`` (n x f) and ``y`` (m x f) may carry the same leading axes, a
    stack of equal-shape pairs (g x n x f and g x m x f); each pair's
    matrix is then computed by the same kernel as a lone pair's.
    """
    if kind not in SIMILARITY_KINDS:
        raise ValueError(f"unknown similarity {kind!r}; known: {SIMILARITY_KINDS}")
    if (
        x.ndim < 2
        or x.shape[:-2] != y.shape[:-2]
        or x.shape[-1] != y.shape[-1]
    ):
        raise ValueError(
            f"feature matrices must share the feature dim, got {x.shape} and {y.shape}"
        )
    if flops is not None:
        pairs = int(np.prod(x.shape[:-2]))
        flops.add(
            "match",
            pairs * matching_flops(x.shape[-2], y.shape[-2], x.shape[-1], kind),
        )

    inner = x @ np.swapaxes(y, -1, -2)
    if kind == "dot":
        return inner
    if kind == "cosine":
        x_norm = np.linalg.norm(x, axis=-1)
        y_norm = np.linalg.norm(y, axis=-1)
        return inner / np.maximum(
            x_norm[..., :, None] * y_norm[..., None, :], _EPS
        )
    # euclidean: S = X Y^T / 2, then subtract squared magnitudes,
    # yielding -||x - y||^2 / 2 (monotone in negative distance).
    x_sq = np.einsum("...ij,...ij->...i", x, x)
    y_sq = np.einsum("...ij,...ij->...i", y, y)
    return inner - 0.5 * (x_sq[..., :, None] + y_sq[..., None, :])


def filtered_similarity_matrix(
    x: np.ndarray,
    y: np.ndarray,
    kind: str = "dot",
    flops: Optional[FlopCounter] = None,
) -> np.ndarray:
    """All-to-all similarity via the Elastic Matching Filter.

    Detects duplicate rows in ``x`` and ``y`` (Algorithm 1), computes the
    similarity of unique rows/columns only, and broadcasts to the full
    matrix. The result is exactly equal to :func:`similarity_matrix` —
    the EMF is lossless — while the FLOPs recorded reflect only the
    unique workload.
    """
    plan = MatchingPlan.from_features(x, y)
    unique = similarity_matrix(
        x[plan.target_filter.unique_indices],
        y[plan.query_filter.unique_indices],
        kind,
        flops,
    )
    return plan.broadcast(unique)


def matching_flops(n: int, m: int, feature_dim: int, kind: str = "dot") -> int:
    """FLOPs of the all-to-all matching stage.

    The dominating term is the ``n*m*f`` inner-product matrix; cosine adds
    the norm computations and a division per entry, euclidean adds the
    squared-magnitude normalization.
    """
    if kind not in SIMILARITY_KINDS:
        raise ValueError(f"unknown similarity {kind!r}")
    base = 2 * n * m * feature_dim
    if kind == "dot":
        return base
    if kind == "cosine":
        return base + 2 * (n + m) * feature_dim + n * m
    return base + 2 * (n + m) * feature_dim + 2 * n * m


def attention_flops(n: int, m: int, feature_dim: int) -> int:
    """FLOPs of :func:`cross_graph_attention` for n targets, m queries."""
    if n * m == 0:
        return 0
    # softmax (~3 ops/entry) + weighted sum (2*n*m*f) + subtraction.
    return 3 * n * m + 2 * n * m * feature_dim + n * feature_dim


def cross_graph_attention(
    x: np.ndarray,
    y: np.ndarray,
    similarity: np.ndarray,
    flops: Optional[FlopCounter] = None,
) -> np.ndarray:
    """GMN-Li's cross-graph message: attention-weighted difference.

    ``a_ij = softmax_j(S_ij)``; ``mu_i = x_i - sum_j a_ij y_j``. Returns
    the per-target-node cross-graph message ``mu`` (n x f). Callers invoke
    it twice (swapping roles) to obtain messages for both graphs. Like
    :func:`similarity_matrix`, it takes a stack of equal-shape pairs on
    leading axes as well as one pair.
    """
    if similarity.shape != x.shape[:-1] + y.shape[-2:-1]:
        raise ValueError("similarity matrix shape mismatch")
    if similarity.size == 0:
        # One side is empty (degenerate pair): there is nothing to
        # attend to, so the attended term is zero and mu = x.
        return x.copy()
    shifted = similarity - similarity.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    weights /= weights.sum(axis=-1, keepdims=True)
    attended = weights @ y
    if flops is not None:
        pairs = int(np.prod(similarity.shape[:-2]))
        n, m = similarity.shape[-2:]
        flops.add("match", pairs * attention_flops(n, m, y.shape[-1]))
    return x - attended


def cross_graph_attention_unique(
    unique_x: np.ndarray,
    unique_y: np.ndarray,
    unique_similarity: np.ndarray,
    column_multiplicities: np.ndarray,
    flops: Optional[FlopCounter] = None,
) -> np.ndarray:
    """EMF-filtered cross-graph attention over the unique similarity matrix.

    Duplicate query nodes contribute identical softmax terms, so the full
    attention of Eq. (attention over all m query nodes) equals a
    count-weighted softmax over the u_q unique columns:
    ``a_ik = c_k exp(S_ik) / sum_k c_k exp(S_ik)``. The result is the
    cross-graph message for each *unique* target node; duplicates are
    broadcast by the caller. Exact (not approximate) with respect to the
    dense computation, at O(u_t * u_q) cost.
    """
    if unique_similarity.shape != (unique_x.shape[0], unique_y.shape[0]):
        raise ValueError("unique similarity matrix shape mismatch")
    if column_multiplicities.shape[0] != unique_y.shape[0]:
        raise ValueError("one multiplicity per unique query node required")
    if unique_similarity.size == 0:
        # One side is empty (degenerate pair): zero attended term.
        return unique_x.copy()
    shifted = unique_similarity - unique_similarity.max(axis=1, keepdims=True)
    weights = np.exp(shifted) * column_multiplicities[None, :]
    weights /= weights.sum(axis=1, keepdims=True)
    attended = weights @ unique_y
    if flops is not None:
        rows, cols = unique_similarity.shape
        flops.add(
            "match", 4 * rows * cols + 2 * rows * cols * unique_y.shape[1]
        )
    return unique_x - attended

"""Elastic Matching Filter — Algorithm 1 of the paper.

Per layer, node features output by layer ``l-1`` are hashed into 32-bit
tags. The first node carrying a tag is a *unique node* and enters the
RecordSet; subsequent nodes with the same tag are *duplicate nodes* and
enter the TagMap, affiliated with their unique counterpart. During the
matching stage only unique nodes are matched; duplicate nodes' similarity
rows/columns are copies of their unique counterpart's results (Fig. 6).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..obs.metrics import get_metrics
from .xxhash import (
    FEATURE_QUANTIZATION_DECIMALS,
    hash_feature_matrix,
    hash_feature_vector,
    quantize_features,
)

__all__ = [
    "FilterResult",
    "elastic_matching_filter",
    "MatchingPlan",
    "PlanSummary",
]

class FilterResult:
    """Output of Algorithm 1 for one graph's feature matrix.

    Attributes
    ----------
    record_set:
        ``{unique_node_index: tag}`` — the RecordSet ``R_l``.
    tag_map:
        ``{duplicate_node_index: unique_node_index}`` — the TagMap ``M_l``.
    num_nodes:
        Total nodes digested.
    hash_conflicts:
        Number of nodes whose tag collided with a node holding *different*
        features (counted when verification is enabled; the paper reports
        zero conflicts across all experiments and so do we).
    """

    __slots__ = ("record_set", "tag_map", "num_nodes", "hash_conflicts")

    def __init__(
        self,
        record_set: Dict[int, int],
        tag_map: Dict[int, int],
        num_nodes: int,
        hash_conflicts: int = 0,
    ) -> None:
        self.record_set = record_set
        self.tag_map = tag_map
        self.num_nodes = num_nodes
        self.hash_conflicts = hash_conflicts

    @property
    def unique_indices(self) -> List[int]:
        return sorted(self.record_set)

    @property
    def num_unique(self) -> int:
        return len(self.record_set)

    @property
    def num_duplicates(self) -> int:
        return len(self.tag_map)

    @property
    def unique_fraction(self) -> float:
        return self.num_unique / self.num_nodes if self.num_nodes else 1.0

    def representative(self, node: int) -> int:
        """The unique node whose matching results ``node`` shares."""
        return self.tag_map.get(node, node)

    def multiplicities(self) -> np.ndarray:
        """How many nodes each unique node represents (itself included),
        aligned with :attr:`unique_indices`."""
        counts = {index: 1 for index in self.record_set}
        for unique_index in self.tag_map.values():
            counts[unique_index] += 1
        return np.array(
            [counts[index] for index in self.unique_indices], dtype=np.int64
        )

    def expand_rows(self, unique_rows: np.ndarray) -> np.ndarray:
        """Broadcast per-unique-node rows back to all nodes.

        ``unique_rows`` is aligned with :attr:`unique_indices`; the
        result has one row per original node, duplicates receiving their
        unique counterpart's row.
        """
        position = {
            node: pos for pos, node in enumerate(self.unique_indices)
        }
        if unique_rows.shape[0] != len(position):
            raise ValueError(
                f"expected {len(position)} unique rows, got {unique_rows.shape[0]}"
            )
        index = np.array(
            [position[self.representative(i)] for i in range(self.num_nodes)],
            dtype=np.int64,
        )
        return unique_rows[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FilterResult(unique={self.num_unique}, "
            f"duplicates={self.num_duplicates})"
        )


def elastic_matching_filter(
    features: np.ndarray,
    seed: int = 0,
    decimals: int = FEATURE_QUANTIZATION_DECIMALS,
    verify_conflicts: bool = True,
    method: str = "bytes",
) -> FilterResult:
    """Run Algorithm 1 over a feature matrix (one graph, one layer).

    Parameters
    ----------
    features:
        ``(num_nodes, feature_dim)`` array of node features entering the
        layer whose matching is being filtered.
    seed:
        Hash seed (a hardware constant).
    decimals:
        Feature quantization applied before hashing; see
        :func:`repro.emf.xxhash.quantize_features` (the single place
        quantization happens).
    verify_conflicts:
        (xxhash method only) When True, tag hits are verified against the
        actual quantized feature *bytes* — the same bit-stream the hash
        digests, so bit-identical rows (including NaN payloads) are
        always duplicates; a mismatch is counted as a hash conflict and
        the node is conservatively treated as unique (no accuracy loss).
        The hardware omits this check because the measured conflict rate
        is negligible; we keep it on by default to *measure* that rate.
    method:
        ``"bytes"`` (default) keys nodes by their exact quantized feature
        bytes — semantically identical to a conflict-free hash and fast
        enough for full-dataset simulation. ``"xxhash"`` runs the
        hardware-faithful XXH32 tagging (used for validation; the two
        methods produce identical RecordSet/TagMap whenever XXH32 has no
        conflicts, which is every observed case). The bytes method runs
        a per-node dict loop; the xxhash method digests the whole matrix
        in one batch XXH32 pass, held bit for bit to the per-node
        reference loop :func:`_filter_scalar` by ``repro validate``.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be 2-D (nodes x feature_dim)")
    if method not in ("bytes", "xxhash"):
        raise ValueError(f"unknown method {method!r}")
    # Quantize exactly once; every downstream hash/compare sees the same
    # quantized array (decimals=None below means "already quantized").
    quantized = quantize_features(features, decimals)
    if method == "bytes":
        result = _filter_bytes(quantized)
    else:
        result = _filter_vectorized(quantized, seed, verify_conflicts)
    registry = get_metrics()
    if registry is not None:
        registry.inc("emf.filter.calls")
        registry.inc("emf.filter.nodes", result.num_nodes)
        registry.inc("emf.filter.unique_nodes", result.num_unique)
        registry.inc("emf.filter.duplicate_hits", result.num_duplicates)
        registry.inc("emf.filter.hash_conflicts", result.hash_conflicts)
    return result


def _filter_bytes(quantized: np.ndarray) -> FilterResult:
    """The bytes method: a per-node dict loop keyed by feature bytes."""
    record_set: Dict[int, int] = {}
    tag_map: Dict[int, int] = {}
    seen_bytes: Dict[bytes, int] = {}
    for index in range(quantized.shape[0]):
        key = quantized[index].tobytes()
        if key in seen_bytes:
            tag_map[index] = seen_bytes[key]
        else:
            seen_bytes[key] = index
            # Derive a stable 32-bit tag without the full hash cost.
            record_set[index] = hash(key) & 0xFFFFFFFF
    return FilterResult(record_set, tag_map, quantized.shape[0], 0)


def _filter_scalar(
    quantized: np.ndarray, seed: int, verify_conflicts: bool
) -> FilterResult:
    """Reference XXH32 per-node loop (the original Algorithm 1 digest
    order), which :func:`_filter_vectorized` must match bit for bit."""
    record_set: Dict[int, int] = {}
    tag_map: Dict[int, int] = {}
    conflicts = 0
    seen: Dict[int, int] = {}  # tag -> unique node index
    for index in range(quantized.shape[0]):
        tag = hash_feature_vector(quantized[index], seed, decimals=None)
        if tag in seen:
            counterpart = seen[tag]
            # Bitwise comparison, matching the byte stream the hash
            # digests: value comparison would misclassify bit-identical
            # NaN rows as conflicts and diverge from the bytes method.
            if verify_conflicts and (
                quantized[index].tobytes()
                != quantized[counterpart].tobytes()
            ):
                conflicts += 1
                record_set[index] = tag
                continue
            tag_map[index] = counterpart
        else:
            seen[tag] = index
            record_set[index] = tag
    return FilterResult(record_set, tag_map, quantized.shape[0], conflicts)


def _first_occurrence_groups(keys: np.ndarray) -> np.ndarray:
    """Map every element to the index of its first equal occurrence."""
    _, first_index, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    return first_index[inverse.ravel()]


def _filter_vectorized(
    quantized: np.ndarray, seed: int, verify_conflicts: bool
) -> FilterResult:
    """The xxhash method: one batch XXH32 pass + ``np.unique`` grouping."""
    num_nodes = quantized.shape[0]
    if num_nodes == 0:
        return FilterResult({}, {}, 0, 0)

    tags = hash_feature_matrix(quantized, seed, decimals=None)
    holders = _first_occurrence_groups(tags)
    indices = np.arange(num_nodes)
    is_holder = holders == indices
    if verify_conflicts:
        # A tag hit only counts as a duplicate when the quantized
        # features match the first holder's bit for bit; otherwise it is
        # a conflict and the node conservatively stays unique. Compare
        # the raw bit patterns (as the hash does), not float values —
        # NaN != NaN would otherwise turn bit-identical rows into
        # spurious conflicts and diverge from the bytes method.
        bits = np.ascontiguousarray(quantized).view(np.uint64)
        same_features = np.all(bits == bits[holders], axis=1)
        duplicate_mask = ~is_holder & same_features
        conflict_mask = ~is_holder & ~same_features
    else:
        duplicate_mask = ~is_holder
        conflict_mask = np.zeros(num_nodes, dtype=bool)
    record_mask = is_holder | conflict_mask
    record_set = dict(
        zip(
            indices[record_mask].tolist(),
            tags[record_mask].astype(np.int64).tolist(),
        )
    )
    tag_map = dict(
        zip(
            indices[duplicate_mask].tolist(),
            holders[duplicate_mask].tolist(),
        )
    )
    return FilterResult(
        record_set, tag_map, num_nodes, int(conflict_mask.sum())
    )


class MatchingPlan:
    """EMF-filtered matching workload for one (target, query) layer.

    Wraps the two per-graph filter results and provides the reduced
    workload counts plus the broadcast step that reconstructs the full
    similarity matrix from the unique-only computation.
    """

    __slots__ = ("target_filter", "query_filter")

    def __init__(self, target_filter: FilterResult, query_filter: FilterResult) -> None:
        self.target_filter = target_filter
        self.query_filter = query_filter

    @classmethod
    def from_features(
        cls,
        target_features: np.ndarray,
        query_features: np.ndarray,
        seed: int = 0,
        method: str = "bytes",
    ) -> "MatchingPlan":
        return cls(
            elastic_matching_filter(target_features, seed, method=method),
            elastic_matching_filter(query_features, seed, method=method),
        )

    # ------------------------------------------------------------------
    @property
    def total_matchings(self) -> int:
        return self.target_filter.num_nodes * self.query_filter.num_nodes

    @property
    def unique_matchings(self) -> int:
        return self.target_filter.num_unique * self.query_filter.num_unique

    @property
    def redundant_matchings(self) -> int:
        return self.total_matchings - self.unique_matchings

    @property
    def remaining_fraction(self) -> float:
        """Fraction of matchings still computed after filtering (Fig. 18)."""
        if self.total_matchings == 0:
            return 1.0
        return self.unique_matchings / self.total_matchings

    # ------------------------------------------------------------------
    def unique_similarity(self, full_similarity: np.ndarray) -> np.ndarray:
        """Rows/columns of the similarity matrix that must be computed."""
        rows = self.target_filter.unique_indices
        cols = self.query_filter.unique_indices
        return full_similarity[np.ix_(rows, cols)]

    def broadcast(self, unique_similarity: np.ndarray) -> np.ndarray:
        """Reconstruct the full similarity matrix from unique results.

        This is the Matching Controller's type-(a) broadcast: every
        duplicate row/column is filled from its unique counterpart.
        """
        rows = self.target_filter.unique_indices
        cols = self.query_filter.unique_indices
        if unique_similarity.shape != (len(rows), len(cols)):
            raise ValueError(
                f"expected {(len(rows), len(cols))} unique results, got "
                f"{unique_similarity.shape}"
            )
        row_position = {node: position for position, node in enumerate(rows)}
        col_position = {node: position for position, node in enumerate(cols)}
        n = self.target_filter.num_nodes
        m = self.query_filter.num_nodes
        row_index = np.array(
            [
                row_position[self.target_filter.representative(i)]
                for i in range(n)
            ],
            dtype=np.int64,
        )
        col_index = np.array(
            [
                col_position[self.query_filter.representative(j)]
                for j in range(m)
            ],
            dtype=np.int64,
        )
        return unique_similarity[np.ix_(row_index, col_index)]

    def summary(self) -> "PlanSummary":
        """The simulator-facing projection of this plan.

        Exactly the fields the cycle simulators consume — active index
        tuples, remaining fraction, unique count — with the RecordSet /
        TagMap dictionaries dropped, so it is cheap to persist in the
        trace-cache sidecar and to ship across process boundaries.
        """
        return PlanSummary(
            tuple(self.target_filter.unique_indices),
            tuple(self.query_filter.unique_indices),
            self.remaining_fraction,
            self.unique_matchings,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatchingPlan(unique={self.unique_matchings}/"
            f"{self.total_matchings})"
        )


class PlanSummary:
    """Simulator-facing slice of a :class:`MatchingPlan`.

    Carries only what the batched engine's workload preparation reads:
    the sorted unique-node index tuples for both sides (the window
    schedulers' active sets), the remaining matching fraction, and the
    unique matching count. Values are bit-identical to reading the same
    fields off the full plan, by construction.
    """

    __slots__ = (
        "target_actives",
        "query_actives",
        "remaining_fraction",
        "unique_matchings",
    )

    def __init__(
        self,
        target_actives: tuple,
        query_actives: tuple,
        remaining_fraction: float,
        unique_matchings: int,
    ) -> None:
        self.target_actives = target_actives
        self.query_actives = query_actives
        self.remaining_fraction = remaining_fraction
        self.unique_matchings = unique_matchings

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanSummary):
            return NotImplemented
        return (
            self.target_actives == other.target_actives
            and self.query_actives == other.query_actives
            and self.remaining_fraction == other.remaining_fraction
            and self.unique_matchings == other.unique_matchings
        )

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanSummary(actives={len(self.target_actives)}x"
            f"{len(self.query_actives)}, unique={self.unique_matchings})"
        )

"""Elastic Matching Filter — Algorithm 1 of the paper.

Per layer, node features output by layer ``l-1`` are hashed into 32-bit
tags. The first node carrying a tag is a *unique node* and enters the
RecordSet; subsequent nodes with the same tag are *duplicate nodes* and
enter the TagMap, affiliated with their unique counterpart. During the
matching stage only unique nodes are matched; duplicate nodes' similarity
rows/columns are copies of their unique counterpart's results (Fig. 6).
:class:`FilterResult` holds both as arrays: the RecordSet is
``unique_indices`` (with ``tags``), the TagMap is ``inverse``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from ..obs.metrics import get_metrics
from .xxhash import (
    FEATURE_QUANTIZATION_DECIMALS,
    hash_feature_matrix,
    hash_feature_vector,
    quantize_features,
)

__all__ = [
    "first_occurrence",
    "FilterResult",
    "elastic_matching_filter",
    "MatchingPlan",
    "PlanSummary",
]


def first_occurrence(keys: Iterable[Hashable]) -> Tuple[np.ndarray, np.ndarray]:
    """Group equal keys onto their first occurrence.

    Returns ``(representatives, inverse)``: the ascending positions of
    each distinct key's first occurrence, and for every position the
    slot of its representative — so ``rows[inverse]`` broadcasts one
    row per group back to every position. Keys compare by hash and
    ``==``, so byte keys group bit-identical rows exactly. This is the
    one grouping body behind the filter methods and the executor's
    candidate dedup.
    """
    slots: Dict[Hashable, int] = {}
    representatives: List[int] = []
    inverse: List[int] = []
    for position, key in enumerate(keys):
        slot = slots.setdefault(key, len(representatives))
        if slot == len(representatives):
            representatives.append(position)
        inverse.append(slot)
    return (
        np.array(representatives, dtype=np.int64),
        np.array(inverse, dtype=np.int64),
    )


class FilterResult:
    """Output of Algorithm 1 for one graph's feature matrix.

    Attributes
    ----------
    unique_indices:
        Ascending unique node indices — the RecordSet ``R_l``.
    inverse:
        ``int64`` array: ``inverse[i]`` is the position in
        :attr:`unique_indices` of the unique node whose results node
        ``i`` shares (a unique node points at itself).
    tags:
        ``uint32`` tags of the unique nodes, aligned with
        :attr:`unique_indices`; None for the bytes method, which
        digests no hash.
    num_nodes:
        Total nodes digested.
    hash_conflicts:
        Number of nodes whose tag collided with a node holding *different*
        features (counted when verification is enabled; the paper reports
        zero conflicts across all experiments and so do we).
    """

    __slots__ = (
        "unique_indices", "inverse", "tags", "num_nodes", "hash_conflicts"
    )

    def __init__(
        self,
        unique_indices: List[int],
        inverse: np.ndarray,
        tags: Optional[np.ndarray] = None,
        hash_conflicts: int = 0,
    ) -> None:
        self.unique_indices = unique_indices
        self.inverse = inverse
        self.tags = tags
        self.num_nodes = len(inverse)
        self.hash_conflicts = hash_conflicts

    @property
    def num_unique(self) -> int:
        return len(self.unique_indices)

    @property
    def num_duplicates(self) -> int:
        return self.num_nodes - self.num_unique

    @property
    def unique_fraction(self) -> float:
        return self.num_unique / self.num_nodes if self.num_nodes else 1.0

    @property
    def tag_map(self) -> Dict[int, int]:
        """The TagMap ``M_l``: ``{duplicate node: its unique node}``,
        derived from :attr:`inverse` on each read."""
        holders = np.asarray(self.unique_indices, dtype=np.int64)[self.inverse]
        duplicates = np.flatnonzero(holders != np.arange(self.num_nodes))
        return dict(zip(duplicates.tolist(), holders[duplicates].tolist()))

    def representative(self, node: int) -> int:
        """The unique node whose matching results ``node`` shares."""
        return self.unique_indices[self.inverse[node]]

    def multiplicities(self) -> np.ndarray:
        """How many nodes each unique node represents (itself included),
        aligned with :attr:`unique_indices`."""
        return np.bincount(self.inverse, minlength=self.num_unique)

    def expand_rows(self, unique_rows: np.ndarray) -> np.ndarray:
        """Broadcast per-unique-node rows back to all nodes.

        ``unique_rows`` is aligned with :attr:`unique_indices`; the
        result has one row per original node, duplicates receiving their
        unique counterpart's row.
        """
        if unique_rows.shape[0] != self.num_unique:
            raise ValueError(
                f"expected {self.num_unique} unique rows, got {unique_rows.shape[0]}"
            )
        return unique_rows[self.inverse]

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
        conflicts, which is every observed case). Both group nodes
        with :func:`first_occurrence`: the bytes method keys it by
        feature bytes, the xxhash method by the tags of one batch XXH32
        pass, held bit for bit to the per-node reference loop
        :func:`_filter_scalar` by ``repro validate``.
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


#: Fewest rows for which :func:`_group_rows` beats the dict loop of
#: :func:`first_occurrence`; below it the loop's lower fixed cost wins.
_GROUP_ROWS_MIN = 64


def _filter_bytes(quantized: np.ndarray) -> FilterResult:
    """The bytes method: nodes grouped by their quantized feature bytes.

    Matrices of :data:`_GROUP_ROWS_MIN` rows or more are grouped in
    array form by :func:`_group_rows`; smaller ones, and any matrix on
    which its row hash collides, by :func:`first_occurrence` over each
    row's bytes, the reference the array form is held to.
    """
    grouped = None
    if quantized.shape[0] >= _GROUP_ROWS_MIN:
        grouped = _group_rows(quantized)
    if grouped is None:
        grouped = first_occurrence([row.tobytes() for row in quantized])
    representatives, inverse = grouped
    return FilterResult(representatives.tolist(), inverse)


@lru_cache(maxsize=16)
def _row_multipliers(width: int) -> np.ndarray:
    """Fixed odd uint64 multipliers, one per column (read-only)."""
    rng = np.random.default_rng(width)
    draws = rng.integers(0, 2**63, size=width, dtype=np.uint64)
    multipliers = draws * np.uint64(2) + np.uint64(1)
    multipliers.flags.writeable = False
    return multipliers


def _row_hash(bits: np.ndarray) -> np.ndarray:
    """Multiply-sum hash of each row of a uint64 matrix, modulo 2**64.

    Odd multipliers make rows that differ in one word hash apart; other
    collisions are possible, and :func:`_group_rows` detects them.
    """
    return bits @ _row_multipliers(bits.shape[1])


def _same_rows(bits: np.ndarray, holders: np.ndarray) -> bool:
    """Whether every row is bit-identical to the row it is grouped onto."""
    return np.array_equal(bits, bits[holders])


def _group_rows(quantized: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """:func:`first_occurrence` over the rows' bytes, in array form.

    Rows are keyed by :func:`_row_hash` of their bits, sorted stably so
    each hash group's first position is its first occurrence, and then
    compared bit for bit with their group's first row. Returns None when
    any row differs from it (a hash collision); the caller then groups
    with the dict loop.
    """
    count = quantized.shape[0]
    bits = np.ascontiguousarray(quantized).view(np.uint64)
    hashes = _row_hash(bits)
    order = np.argsort(hashes, kind="stable")
    ordered = hashes[order]
    starts = np.empty(count, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    firsts = order[starts]
    slots = np.empty(firsts.size, dtype=np.int64)
    slots[np.argsort(firsts)] = np.arange(firsts.size)
    inverse = np.empty(count, dtype=np.int64)
    inverse[order] = slots[np.cumsum(starts) - 1]
    representatives = np.sort(firsts)
    if not _same_rows(bits, representatives[inverse]):
        return None
    return representatives, inverse


def _filter_scalar(
    quantized: np.ndarray, seed: int, verify_conflicts: bool
) -> FilterResult:
    """Reference XXH32 per-node loop (the original Algorithm 1 digest
    order), which :func:`_filter_vectorized` must match bit for bit."""
    recorded: Dict[int, int] = {}  # unique node index -> tag
    inverse = np.empty(quantized.shape[0], dtype=np.int64)
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
                inverse[index] = len(recorded)
                recorded[index] = tag
                continue
            inverse[index] = inverse[counterpart]
        else:
            seen[tag] = index
            inverse[index] = len(recorded)
            recorded[index] = tag
    return FilterResult(
        list(recorded),
        inverse,
        np.array(list(recorded.values()), dtype=np.uint32),
        conflicts,
    )


def _filter_vectorized(
    quantized: np.ndarray, seed: int, verify_conflicts: bool
) -> FilterResult:
    """The xxhash method: one batch XXH32 pass, then the nodes grouped
    by tag."""
    tags = hash_feature_matrix(quantized, seed, decimals=None)
    representatives, inverse = first_occurrence(tags.tolist())
    conflicts = 0
    if verify_conflicts:
        # A tag hit only counts as a duplicate when the quantized
        # features match the first holder's bit for bit; otherwise it is
        # a conflict and the node conservatively stays unique. Compare
        # the raw bit patterns (as the hash does), not float values —
        # NaN != NaN would otherwise turn bit-identical rows into
        # spurious conflicts and diverge from the bytes method.
        holders = representatives[inverse]
        bits = np.ascontiguousarray(quantized).view(np.uint64)
        conflict_mask = ~np.all(bits == bits[holders], axis=1)
        conflicts = int(conflict_mask.sum())
        if conflicts:
            owners = np.where(
                conflict_mask, np.arange(len(holders)), holders
            )
            representatives, inverse = first_occurrence(owners.tolist())
    return FilterResult(
        representatives.tolist(), inverse, tags[representatives], conflicts
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
        shape = (self.target_filter.num_unique, self.query_filter.num_unique)
        if unique_similarity.shape != shape:
            raise ValueError(
                f"expected {shape} unique results, got "
                f"{unique_similarity.shape}"
            )
        return unique_similarity[
            np.ix_(self.target_filter.inverse, self.query_filter.inverse)
        ]

    def summary(self) -> "PlanSummary":
        """The simulator-facing projection of this plan.

        Exactly the fields the cycle simulators consume — active index
        tuples, remaining fraction, unique count — with the inverse and
        tag arrays dropped, so it is cheap to keep on the trace and
        share across every platform simulated from it.
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

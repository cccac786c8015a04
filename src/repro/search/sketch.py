"""Sublinear candidate retrieval from EMF/WL sketches (ROADMAP item 2).

Every query used to pay O(database) full GMN scoring. This module
turns the paper's own duplicate-detection machinery into an index:

- **Tokens.** Each graph is summarized as a set of uint64 tokens — one
  per (layer, node-hash) — where layer 0 is the EMF's XXH32 tag set
  (:func:`repro.emf.signatures.node_feature_tags`, the per-layer
  node-hash population Algorithm 1 deduplicates) and layers ``1..R``
  are canonical WL color hashes
  (:func:`repro.graphs.wl.wl_color_hashes`), which predict the deeper
  GNN layers' duplicate structure without running a model.
- **MinHash.** The token set is sketched into ``num_perm`` minimum
  values of independent 64-bit hash permutations; the fraction of
  agreeing slots estimates token-set Jaccard similarity.
- **LSH banding.** Signatures split into bands of ``band_rows`` rows;
  graphs sharing any full band land in the same inverted-index bucket
  (NeuroMatch / HGMN's coarse-to-fine pruning shape).
- **Recall floor.** Band matches are padded deterministically with the
  sketch-most-similar remaining graphs up to
  ``max(top_k, min_candidates, ceil(recall_floor * database))``, so a
  band miss cannot starve the exact reranker.

:class:`CandidateRetriever` slots between the batch scheduler and the
:class:`~repro.search.executor.ShardedExecutor`: the executor scores
only the retrieved candidate union and ranks it with the same per-pair
scores and the same :class:`~repro.search.results.SearchResult` total
order as flat retrieval. So the answer is exact *within the candidate
set*, and equals flat retrieval's only when the candidates hold every
flat top-k member.

Below ``recall_floor=1.0`` the sketch is approximate: pruning can drop
a true top-k member, and no lower floor is known to be exact. On the
perfbench ``unique_ingest`` graphs, the floor each query needed to keep
its flat top-5 had a median of 0.55 and a maximum of 1.0, and a run at
0.75 served a wrong top-5 (``perfbench/README.md``). The default floor
of 0.5 is therefore an approximate setting. Only 1.0, which makes every
database graph a candidate, is exact. The ``search.sketch_vs_flat``
differential check gates top-k agreement on the validate workloads
only; agreement there does not carry over to other workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..emf.signatures import node_feature_tags
from ..graphs.graph import Graph
from ..graphs.wl import wl_color_hashes
from ..obs import get_metrics

__all__ = [
    "SketchConfig",
    "graph_tokens",
    "minhash_signature",
    "sketch_signature",
    "SketchStore",
    "CandidateRetriever",
]

#: Signature slot for an empty token set (zero-node graphs): no
#: permutation has a minimum, so every slot holds the identity that
#: only another empty graph can share.
EMPTY_SLOT = np.uint64(0xFFFFFFFFFFFFFFFF)

_U64 = np.uint64


@dataclass(frozen=True)
class SketchConfig:
    """Sketch and retrieval parameters.

    ``num_perm``, ``band_rows``, ``wl_rounds``, and ``seed`` define the
    signature itself (persisted with the database; signatures from
    different values are incomparable). ``recall_floor`` and
    ``min_candidates`` are retrieval-time knobs — how aggressively band
    matches may prune — and can change per pipeline without resketching.
    """

    num_perm: int = 64
    band_rows: int = 4
    wl_rounds: int = 2
    seed: int = 0
    recall_floor: float = 0.5
    min_candidates: int = 8

    def __post_init__(self) -> None:
        if self.num_perm < 1:
            raise ValueError("num_perm must be positive")
        if self.band_rows < 1 or self.num_perm % self.band_rows:
            raise ValueError("band_rows must divide num_perm")
        if self.wl_rounds < 0:
            raise ValueError("wl_rounds must be non-negative")
        if not 0.0 <= self.recall_floor <= 1.0:
            raise ValueError("recall_floor must be in [0, 1]")
        if self.min_candidates < 0:
            raise ValueError("min_candidates must be non-negative")

    @property
    def num_bands(self) -> int:
        return self.num_perm // self.band_rows

    def candidate_floor(self, top_k: int, database_size: int) -> int:
        """Smallest candidate set retrieval may return."""
        floor = max(
            top_k,
            self.min_candidates,
            math.ceil(self.recall_floor * database_size),
        )
        return min(database_size, floor)

    # -- persistence (see repro.search.storage schema v3) ---------------
    def to_params(self) -> np.ndarray:
        """Signature-defining parameters as an int64 array."""
        return np.array(
            [self.num_perm, self.band_rows, self.wl_rounds, self.seed],
            dtype=np.int64,
        )

    @classmethod
    def from_params(cls, params: np.ndarray) -> "SketchConfig":
        num_perm, band_rows, wl_rounds, seed = (
            int(value) for value in np.asarray(params).ravel()[:4]
        )
        return cls(
            num_perm=num_perm,
            band_rows=band_rows,
            wl_rounds=wl_rounds,
            seed=seed,
        )

    def compatible_with(self, params: np.ndarray) -> bool:
        """Whether persisted signatures under ``params`` match ours."""
        return bool(np.array_equal(self.to_params(), np.asarray(params)))


@lru_cache(maxsize=32)
def _permutations(num_perm: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Multipliers (odd) and offsets of the 64-bit hash family."""
    rng = np.random.default_rng((seed, 0x5EED))
    multipliers = (
        rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64) << _U64(1)
    ) | _U64(1)
    offsets = rng.integers(0, 1 << 64, size=num_perm, dtype=np.uint64)
    return multipliers, offsets


def _mix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: decorrelates the affine permutation hashes."""
    values = values ^ (values >> _U64(30))
    values = values * _U64(0xBF58476D1CE4E5B9)
    values = values ^ (values >> _U64(27))
    values = values * _U64(0x94D049BB133111EB)
    return values ^ (values >> _U64(31))


def graph_tokens(graph: Graph, config: SketchConfig) -> np.ndarray:
    """The graph's sketch token set: layer-tagged node hashes.

    Layer 0 holds the EMF XXH32 tag set; layers ``1..wl_rounds`` hold
    the canonical WL color hashes of that round. Each token is
    ``(layer << 32) | hash`` so equal node hashes at different depths
    stay distinct. Sorted unique uint64; empty for zero-node graphs.
    """
    layers: List[np.ndarray] = [
        node_feature_tags(graph.node_features, seed=config.seed).astype(
            np.uint64
        )
    ]
    if config.wl_rounds > 0:
        rounds = wl_color_hashes(graph, config.wl_rounds, seed=config.seed)
        # Round 0 duplicates the EMF tags (same hash of the same rows);
        # only the refinement rounds add information.
        layers.extend(
            np.unique(round_hashes) & _U64(0xFFFFFFFF)
            for round_hashes in rounds[1:]
        )
    tagged = [
        tokens | (_U64(layer) << _U64(32))
        for layer, tokens in enumerate(layers)
    ]
    if not tagged:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(tagged))


def minhash_signature(tokens: np.ndarray, config: SketchConfig) -> np.ndarray:
    """MinHash the token set: ``num_perm`` minima of hash permutations.

    Deterministic in ``(tokens, num_perm, seed)``; an empty token set
    yields all-:data:`EMPTY_SLOT` so only empty graphs match it.
    """
    if tokens.size == 0:
        return np.full(config.num_perm, EMPTY_SLOT, dtype=np.uint64)
    multipliers, offsets = _permutations(config.num_perm, config.seed)
    hashed = _mix64(
        tokens[None, :] * multipliers[:, None] + offsets[:, None]
    )
    return hashed.min(axis=1)


def sketch_signature(graph: Graph, config: SketchConfig) -> np.ndarray:
    """The graph's persisted sketch row: MinHash over its tokens."""
    return minhash_signature(graph_tokens(graph, config), config)


def _band_keys(signature: np.ndarray, config: SketchConfig) -> List[bytes]:
    """LSH bucket keys: one bytes key per band of the signature."""
    banded = signature.reshape(config.num_bands, config.band_rows)
    return [row.astype("<u8").tobytes() for row in banded]


class SketchStore:
    """Per-graph sketch signatures aligned with a live graph list.

    Holds a reference to the index's graph list (the same
    live-reference pattern as the executor's signature cache) and
    extends lazily on :meth:`sync`, so graphs added after construction
    are sketched exactly once. ``signatures`` preloads rows persisted
    by :meth:`SimilaritySearchIndex.save` for the first graphs.
    """

    def __init__(
        self,
        graphs: List[Graph],
        config: Optional[SketchConfig] = None,
        signatures: Optional[np.ndarray] = None,
    ) -> None:
        self._graphs = graphs
        self.config = config or SketchConfig()
        self._rows: List[np.ndarray] = []
        if signatures is not None:
            signatures = np.asarray(signatures, dtype=np.uint64)
            if signatures.ndim != 2 or signatures.shape[1] != self.config.num_perm:
                raise ValueError(
                    "preloaded signatures must be (graphs, num_perm) "
                    f"uint64; got shape {signatures.shape}"
                )
            if signatures.shape[0] > len(graphs):
                raise ValueError(
                    "more preloaded signatures than database graphs"
                )
            self._rows = [np.array(row) for row in signatures]

    def __len__(self) -> int:
        return len(self._rows)

    def sync(self) -> None:
        """Sketch graphs added since the last sync (drop removed ones)."""
        for graph in self._graphs[len(self._rows):]:
            self._rows.append(sketch_signature(graph, self.config))
        del self._rows[len(self._graphs):]

    def signature(self, index: int) -> np.ndarray:
        return self._rows[index]

    def matrix(self) -> np.ndarray:
        """All signatures as one ``(graphs, num_perm)`` uint64 matrix."""
        self.sync()
        if not self._rows:
            return np.empty((0, self.config.num_perm), dtype=np.uint64)
        return np.vstack(self._rows)


class CandidateRetriever:
    """Band-match + recall-floor candidate retrieval over a store.

    Maintains the inverted band index incrementally as the store's
    graph list grows; retrieval is fully deterministic (band matches,
    then padding by descending estimated Jaccard with ascending-index
    tie-break). Counters: ``search.sketch.candidates`` (candidate-set
    sizes), ``search.sketch.bands`` (matched buckets), and
    ``search.sketch.recall_floor`` (candidates added by padding) — the
    candidate counter staying below ``queries * database`` is what
    "sublinear" means operationally.
    """

    def __init__(self, store: SketchStore) -> None:
        self.store = store
        self.config = store.config
        self._buckets: List[Dict[bytes, List[int]]] = [
            {} for _ in range(self.config.num_bands)
        ]
        self._indexed = 0
        # Plain-int mirrors of the metric counters so pipeline stats
        # work with metrics off.
        self.queries = 0
        self.candidates_retrieved = 0
        self.floor_padded = 0

    def _sync(self) -> None:
        self.store.sync()
        total = len(self.store)
        if total < self._indexed:
            # The database shrank (not a supported index operation, but
            # the store tolerates it) — rebuild from scratch.
            self._buckets = [{} for _ in range(self.config.num_bands)]
            self._indexed = 0
        for graph_id in range(self._indexed, total):
            signature = self.store.signature(graph_id)
            for band, key in enumerate(_band_keys(signature, self.config)):
                self._buckets[band].setdefault(key, []).append(graph_id)
        self._indexed = total

    def retrieve(self, graph: Graph, top_k: int) -> np.ndarray:
        """Candidate database ids for one query (sorted ascending)."""
        self._sync()
        database_size = len(self.store)
        if database_size == 0:
            return np.empty(0, dtype=np.int64)
        signature = sketch_signature(graph, self.config)
        member = np.zeros(database_size, dtype=bool)
        bands_matched = 0
        for band, key in enumerate(_band_keys(signature, self.config)):
            bucket = self._buckets[band].get(key)
            if bucket:
                bands_matched += 1
                member[bucket] = True
        floor = self.config.candidate_floor(top_k, database_size)
        padded = 0
        matched = int(member.sum())
        if matched < floor:
            # Deterministic padding: estimated Jaccard (fraction of
            # agreeing signature slots) descending, index ascending.
            agreement = (self.store.matrix() == signature[None, :]).mean(axis=1)
            order = np.lexsort((np.arange(database_size), -agreement))
            for graph_id in order:
                if not member[graph_id]:
                    member[graph_id] = True
                    padded += 1
                    if matched + padded >= floor:
                        break
        candidates = np.flatnonzero(member).astype(np.int64)
        self.queries += 1
        self.candidates_retrieved += len(candidates)
        self.floor_padded += padded
        registry = get_metrics()
        if registry is not None:
            registry.inc("search.sketch.candidates", len(candidates))
            registry.inc("search.sketch.bands", bands_matched)
            if padded:
                registry.inc("search.sketch.recall_floor", padded)
        return candidates

    def retrieve_batch(
        self, queries: Sequence[Tuple[Graph, int]]
    ) -> np.ndarray:
        """Union candidate set for one execution batch.

        The executor scores each batch against the union of its
        queries' candidate sets (one shard plan per batch, like the
        flat path); each query is still ranked over at least its own
        retrieved candidates, so agreement with per-query retrieval can
        only improve.
        """
        sets = [self.retrieve(graph, top_k) for graph, top_k in queries]
        if not sets:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(sets))

    def stats(self) -> Dict[str, float]:
        """Retrieval counters for pipeline stats (metrics-independent)."""
        return {
            "sketch_queries": float(self.queries),
            "sketch_candidates": float(self.candidates_retrieved),
            "sketch_floor_padded": float(self.floor_padded),
        }

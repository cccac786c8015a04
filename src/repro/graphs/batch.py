"""Batched graph pairs and the global adjacency matrix (Fig. 15).

CEGMA processes batches of graph pairs against a single *global adjacency
matrix*: all target-graph adjacencies are packed into the top-left block,
all query-graph adjacencies into the bottom-right block, and the
cross-graph matching pairs occupy the top-right block (block-diagonal,
one block per pair, since nodes are only matched within their own pair).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .pairs import GraphPair

__all__ = ["GraphPairBatch", "make_batches"]


class GraphPairBatch:
    """A batch of graph pairs with global-index bookkeeping.

    Global node indexing follows Fig. 15: target nodes of all pairs come
    first (pair order), then query nodes of all pairs. ``target_offsets``
    and ``query_offsets`` give each pair's starting global index.
    """

    __slots__ = (
        "pairs",
        "target_offsets",
        "query_offsets",
        "num_target_nodes",
        "num_query_nodes",
    )

    def __init__(self, pairs: Sequence[GraphPair]) -> None:
        if not pairs:
            raise ValueError("batch must contain at least one pair")
        self.pairs: List[GraphPair] = list(pairs)
        self.target_offsets: List[int] = []
        self.query_offsets: List[int] = []
        offset = 0
        for pair in self.pairs:
            self.target_offsets.append(offset)
            offset += pair.target.num_nodes
        self.num_target_nodes = offset
        for pair in self.pairs:
            self.query_offsets.append(offset)
            offset += pair.query.num_nodes
        self.num_query_nodes = offset - self.num_target_nodes

    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return len(self.pairs)

    @property
    def total_nodes(self) -> int:
        return self.num_target_nodes + self.num_query_nodes

    @property
    def num_matching_pairs(self) -> int:
        """All-to-all cross-graph comparisons summed over the batch."""
        return sum(pair.num_matching_pairs for pair in self.pairs)

    @property
    def num_intra_edges(self) -> int:
        """Directed intra-graph edges summed over targets and queries."""
        return sum(
            pair.target.num_edges + pair.query.num_edges for pair in self.pairs
        )

    # ------------------------------------------------------------------
    def iter_with_offsets(self) -> Iterator[Tuple[GraphPair, int, int]]:
        """Yield ``(pair, target_offset, query_offset)`` per pair."""
        for pair, t_off, q_off in zip(
            self.pairs, self.target_offsets, self.query_offsets
        ):
            yield pair, t_off, q_off

    def global_adjacency(self) -> np.ndarray:
        """Dense global adjacency matrix per Fig. 15.

        ``A[i, j] = 1`` for intra-graph edges (target block top-left,
        query block bottom-right) and ``A[i, j] = 2`` for cross-graph
        matching pairs (top-right block), so callers can distinguish the
        two workloads visually and programmatically.
        """
        n = self.total_nodes
        matrix = np.zeros((n, n), dtype=np.int8)
        for pair, t_off, q_off in self.iter_with_offsets():
            target, query = pair.target, pair.query
            matrix[t_off + target.src, t_off + target.dst] = 1
            matrix[q_off + query.src, q_off + query.dst] = 1
            matrix[
                t_off : t_off + target.num_nodes, q_off : q_off + query.num_nodes
            ] = 2
        return matrix

    def global_matching_mask(self) -> np.ndarray:
        """Boolean mask over (target node, query node) global indices."""
        mask = np.zeros(
            (self.num_target_nodes, self.num_query_nodes), dtype=bool
        )
        for pair, t_off, q_off in self.iter_with_offsets():
            q_local = q_off - self.num_target_nodes
            mask[
                t_off : t_off + pair.target.num_nodes,
                q_local : q_local + pair.query.num_nodes,
            ] = True
        return mask

    def stacked_target_features(self) -> np.ndarray:
        return np.vstack([pair.target.node_features for pair in self.pairs])

    def stacked_query_features(self) -> np.ndarray:
        return np.vstack([pair.query.node_features for pair in self.pairs])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphPairBatch(batch_size={self.batch_size}, "
            f"total_nodes={self.total_nodes})"
        )


def make_batches(
    pairs: Sequence[GraphPair], batch_size: int
) -> List[GraphPairBatch]:
    """Split pairs into batches of ``batch_size`` (last batch may be short)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return [
        GraphPairBatch(pairs[i : i + batch_size])
        for i in range(0, len(pairs), batch_size)
    ]

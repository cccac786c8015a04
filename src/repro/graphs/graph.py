"""Core graph data structure used throughout the CEGMA reproduction.

Graphs are stored in a compact CSR-like representation backed by numpy
arrays. The representation is intentionally framework-free: the same
``Graph`` object feeds the numpy GMN models, the trace profiler, and the
cycle-level simulators.

Nodes are indexed ``0..num_nodes-1``. Edges are directed internally; an
undirected input graph stores each edge in both directions, which mirrors
how GNN frameworks (and the paper's adjacency-matrix formulation) treat
message passing over undirected graphs.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

__all__ = ["Graph"]


class Graph:
    """An attributed graph with CSR adjacency and dense node features.

    Parameters
    ----------
    num_nodes:
        Number of nodes in the graph.
    edges:
        Iterable of ``(src, dst)`` pairs. Duplicate edges and self loops
        are preserved as given (callers that need canonical undirected
        graphs should use :meth:`from_undirected_edges`).
    node_features:
        Optional ``(num_nodes, feature_dim)`` float array. When omitted,
        every node receives the constant feature ``[1.0]`` which matches
        the "unlabelled graphs, identical initial features" setting used
        in the paper's motivation (Section III-C).
    """

    __slots__ = (
        "num_nodes",
        "src",
        "dst",
        "indptr",
        "neighbors",
        "node_features",
    )

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        node_features: Optional[np.ndarray] = None,
    ) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
        if isinstance(edges, np.ndarray):
            # Fast path for loaders that already hold an (E, 2) array;
            # validation and destination sorting below apply unchanged.
            edge_array = np.asarray(edges, dtype=np.int64)
        else:
            edge_array = np.asarray(list(edges), dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError("edges must be pairs of (src, dst)")
        if edge_array.size and (
            edge_array.min() < 0 or edge_array.max() >= num_nodes
        ):
            raise ValueError("edge endpoints out of range")

        self.num_nodes = int(num_nodes)
        # Sort edges by destination so that CSR rows group incoming
        # messages per destination node (aggregation order).
        order = np.lexsort((edge_array[:, 0], edge_array[:, 1])) if edge_array.size else np.array([], dtype=np.int64)
        edge_array = edge_array[order] if edge_array.size else edge_array
        self.src = np.ascontiguousarray(edge_array[:, 0])
        self.dst = np.ascontiguousarray(edge_array[:, 1])

        # indptr[v]..indptr[v+1] delimits incoming edges of node v.
        counts = np.bincount(self.dst, minlength=num_nodes) if self.num_edges else np.zeros(num_nodes, dtype=np.int64)
        self.indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self.neighbors = self.src  # sources of incoming edges, CSR-ordered

        if node_features is None:
            node_features = np.ones((num_nodes, 1), dtype=np.float64)
        node_features = np.asarray(node_features, dtype=np.float64)
        if node_features.ndim != 2 or node_features.shape[0] != num_nodes:
            raise ValueError(
                "node_features must have shape (num_nodes, feature_dim), got "
                f"{node_features.shape} for {num_nodes} nodes"
            )
        self.node_features = node_features

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_undirected_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        node_features: Optional[np.ndarray] = None,
    ) -> "Graph":
        """Build a graph from undirected edges, storing both directions.

        Duplicate undirected edges and self loops are removed.
        """
        canonical = set()
        for u, v in edges:
            if u == v:
                continue
            canonical.add((min(u, v), max(u, v)))
        directed = []
        for u, v in sorted(canonical):
            directed.append((u, v))
            directed.append((v, u))
        return cls(num_nodes, directed, node_features)

    @classmethod
    def from_dense_adjacency(
        cls,
        adjacency: np.ndarray,
        node_features: Optional[np.ndarray] = None,
    ) -> "Graph":
        """Build a graph from a dense 0/1 adjacency matrix."""
        adjacency = np.asarray(adjacency)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError("adjacency must be square")
        srcs, dsts = np.nonzero(adjacency)
        return cls(adjacency.shape[0], zip(srcs.tolist(), dsts.tolist()), node_features)

    # ------------------------------------------------------------------
    # Properties and views
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.src.shape[0])

    @property
    def num_undirected_edges(self) -> int:
        """Number of undirected edges, assuming a symmetric edge list."""
        self_loops = int(np.count_nonzero(self.src == self.dst))
        return (self.num_edges - self_loops) // 2 + self_loops

    @property
    def feature_dim(self) -> int:
        return int(self.node_features.shape[1])

    def in_degree(self) -> np.ndarray:
        """Incoming degree per node."""
        return np.diff(self.indptr)

    def out_degree(self) -> np.ndarray:
        """Outgoing degree per node."""
        return np.bincount(self.src, minlength=self.num_nodes)

    def in_neighbors(self, node: int) -> np.ndarray:
        """Sources of the edges incoming to ``node``."""
        return self.neighbors[self.indptr[node] : self.indptr[node + 1]]

    def edge_list(self) -> np.ndarray:
        """Directed edges as an ``(E, 2)`` array of ``(src, dst)``."""
        return np.stack([self.src, self.dst], axis=1)

    def dense_adjacency(self) -> np.ndarray:
        """Dense ``(N, N)`` 0/1 adjacency matrix, ``A[src, dst] = 1``."""
        adjacency = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        if self.num_edges:
            adjacency[self.src, self.dst] = 1.0
        return adjacency

    def normalized_adjacency(self, add_self_loops: bool = True) -> np.ndarray:
        """Symmetric-normalized adjacency ``D^-1/2 (A + I) D^-1/2``.

        This is the propagation matrix of a standard GCN layer (Kipf &
        Welling), which the paper's GraphSim/SimGNN embeddings use.
        """
        adjacency = self.dense_adjacency()
        if add_self_loops:
            adjacency = adjacency + np.eye(self.num_nodes)
        degree = adjacency.sum(axis=1)
        with np.errstate(divide="ignore"):
            inv_sqrt = 1.0 / np.sqrt(degree)
        inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
        return adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_features(self, node_features: np.ndarray) -> "Graph":
        """Return a copy of this graph with different node features."""
        return Graph(self.num_nodes, zip(self.src.tolist(), self.dst.tolist()), node_features)

    def undirected_edge_set(self) -> set:
        """Canonical set of undirected edges (u < v), excluding loops."""
        pairs = set()
        for u, v in zip(self.src.tolist(), self.dst.tolist()):
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        return pairs

    def copy(self) -> "Graph":
        return Graph(
            self.num_nodes,
            zip(self.src.tolist(), self.dst.tolist()),
            self.node_features.copy(),
        )

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"feature_dim={self.feature_dim})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.node_features, other.node_features)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.num_nodes,
                self.src.tobytes(),
                self.dst.tobytes(),
                self.node_features.tobytes(),
            )
        )

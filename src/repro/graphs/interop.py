"""Interoperability with networkx and scipy.sparse.

- networkx conversion lets users bring their own graphs (and lets the
  test-suite verify motif copies are genuinely isomorphic);
- the scipy CSR propagation matrix keeps the numpy GMN models usable on
  the multi-thousand-node graphs of the large-graph study (Fig. 25),
  where a dense (n x n) adjacency would be wasteful.

Both packages load on first use, inside the functions that call them.
Together they add about 27 MB to a process's RSS, and serving and the
simulators never reach them; the GCN models reach scipy only on graphs
over :data:`SPARSE_THRESHOLD` nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .graph import Graph

if TYPE_CHECKING:
    import networkx as nx
    import scipy.sparse as sp

__all__ = [
    "propagation_matrix",
    "to_networkx",
    "from_networkx",
    "sparse_adjacency",
    "sparse_normalized_adjacency",
]


def to_networkx(graph: Graph) -> nx.Graph:
    """Convert to an undirected networkx graph (features as 'x' attrs).

    Assumes the Graph stores each undirected edge in both directions
    (the :meth:`Graph.from_undirected_edges` convention).
    """
    import networkx as nx

    result = nx.Graph()
    for node in range(graph.num_nodes):
        result.add_node(node, x=graph.node_features[node].tolist())
    result.add_edges_from(graph.undirected_edge_set())
    return result


def from_networkx(
    graph: nx.Graph, feature_key: Optional[str] = "x"
) -> Graph:
    """Build a Graph from a networkx graph.

    Node labels must be hashable; they are relabeled to ``0..n-1`` in
    sorted order. Features come from the ``feature_key`` node attribute
    when every node carries it, else default to ones.
    """
    nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in graph.edges]
    features = None
    if feature_key is not None and all(
        feature_key in graph.nodes[node] for node in nodes
    ):
        features = np.asarray(
            [np.atleast_1d(graph.nodes[node][feature_key]) for node in nodes],
            dtype=np.float64,
        )
    return Graph.from_undirected_edges(len(nodes), edges, features)


def sparse_adjacency(graph: Graph) -> sp.csr_matrix:
    """Directed adjacency as a scipy CSR matrix, ``A[src, dst] = 1``."""
    import scipy.sparse as sp

    data = np.ones(graph.num_edges)
    return sp.csr_matrix(
        (data, (graph.src, graph.dst)),
        shape=(graph.num_nodes, graph.num_nodes),
    )


def sparse_normalized_adjacency(
    graph: Graph, add_self_loops: bool = True
) -> sp.csr_matrix:
    """Sparse ``D^-1/2 (A + I) D^-1/2``; equals the dense version."""
    import scipy.sparse as sp

    adjacency = sparse_adjacency(graph)
    if add_self_loops:
        adjacency = adjacency + sp.eye(graph.num_nodes, format="csr")
    degree = np.asarray(adjacency.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degree)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    scaling = sp.diags(inv_sqrt)
    return (scaling @ adjacency @ scaling).tocsr()


# Above this node count the dense (n x n) propagation matrix becomes
# wasteful; GCN-style models switch to the sparse path.
SPARSE_THRESHOLD = 1024


def propagation_matrix(graph: Graph, add_self_loops: bool = True):
    """Normalized propagation matrix, dense or sparse by graph size.

    Returns the dense ``numpy`` matrix for small graphs and the scipy
    CSR equivalent beyond :data:`SPARSE_THRESHOLD` nodes; both support
    the ``@ features`` product the GCN layers perform.
    """
    if graph.num_nodes > SPARSE_THRESHOLD:
        return sparse_normalized_adjacency(graph, add_self_loops)
    return graph.normalized_adjacency(add_self_loops)

"""Graph statistics: profiles of datasets and generated graphs.

Quantifies what the synthetic datasets look like beyond Table II's
node/edge averages: degree distribution, clustering, connectivity, and
the duplicate structure (WL unique fraction). Used by the
``dataset_profile`` experiment and available for users validating their
own registered datasets.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .graph import Graph
from .interop import to_networkx
from .wl import unique_color_fraction

__all__ = ["graph_profile", "dataset_profile"]


def graph_profile(graph: Graph, wl_rounds: int = 3) -> Dict[str, float]:
    """Structural summary of one graph."""
    import networkx as nx

    degrees = graph.in_degree()
    nx_graph = to_networkx(graph)
    num_components = (
        nx.number_connected_components(nx_graph) if graph.num_nodes else 0
    )
    clustering = (
        float(nx.average_clustering(nx_graph)) if graph.num_nodes else 0.0
    )
    return {
        "num_nodes": float(graph.num_nodes),
        "num_edges": float(graph.num_undirected_edges),
        "mean_degree": float(degrees.mean()) if graph.num_nodes else 0.0,
        "max_degree": float(degrees.max()) if graph.num_nodes else 0.0,
        "degree_std": float(degrees.std()) if graph.num_nodes else 0.0,
        "clustering": clustering,
        "num_components": float(num_components),
        "wl_unique_fraction": unique_color_fraction(graph, wl_rounds),
    }


def dataset_profile(
    graphs: Sequence[Graph], wl_rounds: int = 3
) -> Dict[str, float]:
    """Mean structural summary over a sample of graphs."""
    if not graphs:
        raise ValueError("need at least one graph")
    profiles: List[Dict[str, float]] = [
        graph_profile(graph, wl_rounds) for graph in graphs
    ]
    return {
        key: float(np.mean([profile[key] for profile in profiles]))
        for key in profiles[0]
    }

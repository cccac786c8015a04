"""Synthetic graph generators.

The paper evaluates on six public graph-classification datasets (Table II).
Those datasets are not bundled here, so we substitute generators that match
the published statistics (average node/edge counts) *and* the structural
property CEGMA exploits: repeated isomorphic subgraphs. Each generator
composes repeated motif copies (high WL-color duplication) with a random
component (high WL-color diversity), so the duplicate-node rate is
controllable per dataset.

The ``random_graph`` generator follows the protocol of GMN-Li (Li et al.,
ICML'19), used by the paper for the large-graph study (Figs. 2 and 25):
Erdos-Renyi graphs with an expected degree, paired by edge substitution.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .graph import Graph
from .motifs import MOTIF_BUILDERS, motif_edges

__all__ = [
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "random_graph",
    "motif_soup_graph",
    "MotifSpec",
]

Edge = Tuple[int, int]


class MotifSpec:
    """A motif type to replicate inside a motif-soup graph.

    Parameters
    ----------
    name:
        Motif family name from :data:`repro.graphs.motifs.MOTIF_BUILDERS`.
    parameter:
        Size parameter passed to the motif builder.
    copies:
        How many identical copies to instantiate. Copies beyond the first
        contribute only duplicate WL colors, i.e. duplicate node features
        in a GNN over unlabelled nodes.
    """

    __slots__ = ("name", "parameter", "copies")

    def __init__(self, name: str, parameter: int, copies: int) -> None:
        if name not in MOTIF_BUILDERS:
            raise KeyError(f"unknown motif {name!r}")
        if copies < 1:
            raise ValueError("copies must be >= 1")
        self.name = name
        self.parameter = parameter
        self.copies = copies

    @property
    def nodes_per_copy(self) -> int:
        num_nodes, _ = motif_edges(self.name, self.parameter)
        return num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MotifSpec({self.name!r}, {self.parameter}, copies={self.copies})"


def erdos_renyi_graph(
    num_nodes: int,
    num_edges: int,
    rng: np.random.Generator,
) -> Graph:
    """G(n, m) random graph with exactly ``num_edges`` undirected edges."""
    max_edges = num_nodes * (num_nodes - 1) // 2
    num_edges = min(num_edges, max_edges)
    chosen: set = set()
    # Rejection sampling is fast for the sparse graphs we generate.
    while len(chosen) < num_edges:
        need = num_edges - len(chosen)
        us = rng.integers(0, num_nodes, size=2 * need + 8)
        vs = rng.integers(0, num_nodes, size=2 * need + 8)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u == v:
                continue
            chosen.add((min(u, v), max(u, v)))
            if len(chosen) == num_edges:
                break
    return Graph.from_undirected_edges(num_nodes, sorted(chosen))


def barabasi_albert_graph(
    num_nodes: int,
    attach: int,
    rng: np.random.Generator,
) -> Graph:
    """Preferential-attachment graph: each new node attaches to ``attach``
    existing nodes chosen proportionally to degree."""
    if num_nodes < attach + 1:
        raise ValueError("num_nodes must exceed attach")
    edges: List[Edge] = []
    repeated: List[int] = list(range(attach))
    for new_node in range(attach, num_nodes):
        chosen = set()
        while len(chosen) < attach:
            pick = repeated[rng.integers(0, len(repeated))]
            chosen.add(pick)
        for t in chosen:
            edges.append((t, new_node))
            repeated.append(t)
            repeated.append(new_node)
    return Graph.from_undirected_edges(num_nodes, edges)


def random_graph(
    num_nodes: int,
    expected_degree: float,
    rng: np.random.Generator,
) -> Graph:
    """Random graph generation following GMN-Li's protocol.

    Li et al. generate Erdos-Renyi graphs with ``p = expected_degree / n``
    for their synthetic similarity experiments; the CEGMA paper reuses the
    recipe for its large-graph scaling study.
    """
    num_edges = int(round(expected_degree * num_nodes / 2.0))
    return erdos_renyi_graph(num_nodes, num_edges, rng)


def motif_soup_graph(
    motif_specs: Sequence[MotifSpec],
    random_nodes: int,
    random_edges: int,
    rng: np.random.Generator,
    bridge_fraction: float = 0.0,
    num_labels: int = 1,
) -> Graph:
    """Compose repeated motif copies with a random component.

    Parameters
    ----------
    motif_specs:
        Motif types and copy counts. Copies are structurally identical,
        so their nodes carry duplicate WL colors at every GNN layer.
    random_nodes, random_edges:
        Size of the Erdos-Renyi component providing WL-color diversity
        (its nodes are unlikely to be duplicates).
    bridge_fraction:
        Fraction of motif copies attached to the random component with a
        single bridge edge (0 keeps them disjoint, preserving exact
        duplication; >0 trades duplication for connectivity).
    num_labels:
        Number of node label classes. Labels are one-hot initial features
        assigned per *motif position*, so copies of the same motif still
        duplicate exactly; labels only diversify across motif positions
        (this models small-molecule atom types in AIDS).
    """
    edges: List[Edge] = []
    labels: List[int] = []
    offset = 0
    copy_ports: List[int] = []
    for spec in motif_specs:
        num_motif_nodes, motif_edge_list = motif_edges(spec.name, spec.parameter)
        # One deterministic label per position within the motif, shared by
        # all copies so that copies remain exact duplicates.
        position_labels = rng.integers(0, num_labels, size=num_motif_nodes)
        for _ in range(spec.copies):
            edges.extend((offset + u, offset + v) for u, v in motif_edge_list)
            labels.extend(position_labels.tolist())
            copy_ports.append(offset)
            offset += num_motif_nodes

    random_offset = offset
    if random_nodes:
        random_component = erdos_renyi_graph(random_nodes, random_edges, rng)
        for u, v in random_component.undirected_edge_set():
            edges.append((random_offset + u, random_offset + v))
        labels.extend(rng.integers(0, num_labels, size=random_nodes).tolist())
        offset += random_nodes

    if bridge_fraction > 0.0 and random_nodes:
        num_bridges = int(round(bridge_fraction * len(copy_ports)))
        for port in rng.permutation(copy_ports)[:num_bridges].tolist():
            anchor = random_offset + int(rng.integers(0, random_nodes))
            edges.append((port, anchor))

    features = np.zeros((offset, max(num_labels, 1)), dtype=np.float64)
    if offset:
        features[np.arange(offset), np.asarray(labels, dtype=np.int64)] = 1.0
    return Graph.from_undirected_edges(offset, edges, features)

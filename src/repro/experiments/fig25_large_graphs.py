"""Fig. 25: speedups on large synthetic graphs.

Graphs are generated with the GMN-Li protocol (8 originals per size,
paired by edge substitution). The paper finds CEGMA's advantage *grows*
with graph size — 10.8x / 9.6x over HyGCN / AWB-GCN at 1000 nodes,
rising to 37.5x / 36.6x at 5000 nodes — because larger graphs contain
more duplicate subgraphs.

Note on workload structure: plain Erdos-Renyi graphs carry almost no
duplicate l-hop neighborhoods, so (as in the dataset generators) the
large graphs replicate motif structure: each graph is a union of
repeated stars/trees plus a random component, preserving the property
the paper attributes to large real graphs.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..analysis.metrics import ResultTable
from ..graphs.batch import GraphPairBatch
from ..graphs.generators import MotifSpec, motif_soup_graph
from ..graphs.pairs import make_positive_negative_pairs
from ..models import build_model
from ..platforms import build_platform
from ..trace.profiler import BatchTrace, profile_pairs
from .common import ExperimentResult

__all__ = ["run", "large_graph"]


def large_graph(num_nodes: int, rng: np.random.Generator):
    """A large graph with size-proportional duplicate structure."""
    star = max(8, num_nodes // 40)
    copies = max(2, num_nodes // (4 * star))
    specs = [
        MotifSpec("star", star, copies=copies),
        MotifSpec("star", max(4, star // 2), copies=copies),
        MotifSpec("binary_tree", 4, copies=max(2, copies // 2)),
    ]
    used = sum(spec.nodes_per_copy * spec.copies for spec in specs)
    random_nodes = max(8, num_nodes - used)
    return motif_soup_graph(
        specs,
        random_nodes=random_nodes,
        random_edges=2 * random_nodes,
        rng=rng,
    )


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    sizes = (500, 1000) if quick else (1000, 2000, 3000, 4000, 5000)
    originals_per_size = 2 if quick else 8
    rng = np.random.default_rng(seed)
    model = build_model("GMN-Li", seed=seed)
    platforms = {
        "HyGCN": build_platform("HyGCN"),
        "AWB-GCN": build_platform("AWB-GCN"),
        "CEGMA": build_platform("CEGMA"),
    }

    table = ResultTable(
        ["nodes", "CEGMA vs HyGCN", "CEGMA vs AWB-GCN"],
        title="Speedup on large graphs, GMN-Li (Fig. 25)",
    )
    data: Dict[int, Dict[str, float]] = {}
    for size in sizes:
        pairs = []
        for _ in range(originals_per_size):
            graph = large_graph(size, rng)
            positive, negative = make_positive_negative_pairs(graph, rng)
            pairs.extend([positive, negative])
        batch = GraphPairBatch(pairs)
        traces = BatchTrace(batch, profile_pairs(model, pairs))
        results = {
            name: simulator.simulate_batch(traces)
            for name, simulator in platforms.items()
        }
        cegma = results["CEGMA"].latency_seconds
        row = {
            "HyGCN": results["HyGCN"].latency_seconds / cegma,
            "AWB-GCN": results["AWB-GCN"].latency_seconds / cegma,
        }
        table.add_row(size, row["HyGCN"], row["AWB-GCN"])
        data[size] = row

    return ExperimentResult(
        "fig25",
        "Large-graph speedups grow with size (paper: 10.8x->37.5x over "
        "HyGCN from 1k to 5k nodes)",
        table,
        data,
    )

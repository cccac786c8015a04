"""Fig. 2: GMN-Li latency per pair vs. graph size (V100 and AWB-GCN).

The paper measures 33 ms (V100) / 24 ms (AWB-GCN) per 1000-node pair,
growing to 671 ms / 514 ms at 5000 nodes — far beyond real-time budgets
(~20 ms). We regenerate the series from random graphs built with the
GMN-Li protocol and the platform models.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..analysis.metrics import ResultTable
from ..baselines import pyg_gpu_model
from ..graphs.pairs import GraphPair
from ..graphs.generators import random_graph
from ..models import build_model
from ..platforms import build_platform
from ..trace.profiler import BatchTrace
from ..graphs.batch import GraphPairBatch
from .common import ExperimentResult

__all__ = ["run"]

EXPECTED_DEGREE = 4.0


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    sizes = (200, 500, 1000) if quick else (1000, 2000, 3000, 4000, 5000)
    rng = np.random.default_rng(seed)
    model = build_model("GMN-Li", seed=seed)
    gpu = pyg_gpu_model()
    awb = build_platform("AWB-GCN")

    table = ResultTable(
        ["nodes", "V100 ms/pair", "AWB-GCN ms/pair"],
        title="Latency per pair, GMN-Li on random graphs (Fig. 2)",
    )
    data: Dict[int, Dict[str, float]] = {}
    for size in sizes:
        graph = random_graph(size, EXPECTED_DEGREE, rng)
        pair = GraphPair(graph, graph.copy())
        trace = model.forward_pair(pair)
        batch = BatchTrace(GraphPairBatch([pair]), [trace])
        gpu_latency = gpu.simulate_batch(batch).latency_per_pair
        awb_latency = awb.simulate_batch(batch).latency_per_pair
        table.add_row(size, gpu_latency * 1e3, awb_latency * 1e3)
        data[size] = {"PyG-GPU": gpu_latency, "AWB-GCN": awb_latency}

    return ExperimentResult(
        "fig02",
        "GMN-Li latency scaling on V100 and AWB-GCN",
        table,
        {"series": data, "expected_degree": EXPECTED_DEGREE},
    )

"""Fig. 4: node reuse-distance CDFs under the baseline regime.

GraphSim, feature dim 64, batch 32, 128 KB input buffer (512 nodes).
The paper finds most revisits exceed the buffer: AIDS would need ~4x
the capacity and REDDIT-BINARY ~128x.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.metrics import ResultTable
from ..analysis.reuse import fraction_within, profile_reuse, reuse_distance_cdf
from ..graphs.datasets import load_dataset
from .common import ExperimentResult

__all__ = ["run", "FIG4_DATASETS", "BUFFER_NODES"]

FIG4_DATASETS = ("AIDS", "COLLAB", "RD-B")
BUFFER_NODES = 512  # 128 KB / (64 features x 4 B)
NUM_LAYERS = 3  # GraphSim


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    batch = 32  # the batch size is load-bearing for the reuse regime
    table = ResultTable(
        ["dataset", "reuses<=2^6", "reuses<=2^9", "reuses<=2^12", "buffer hit rate"],
        title="Baseline node reuse-distance CDF (Fig. 4)",
    )
    data: Dict[str, Dict] = {}
    for dataset in FIG4_DATASETS:
        pairs = load_dataset(dataset, seed=seed, num_pairs=batch)
        distances = profile_reuse(
            pairs, capacity=BUFFER_NODES, num_layers=NUM_LAYERS, cegma=False
        )
        thresholds, cdf = reuse_distance_cdf(distances)
        hit_rate = fraction_within(distances, BUFFER_NODES)
        table.add_row(
            dataset,
            float(cdf[6]),
            float(cdf[9]),
            float(cdf[12]),
            hit_rate,
        )
        data[dataset] = {
            "thresholds": thresholds.tolist(),
            "cdf": cdf.tolist(),
            "hit_rate": hit_rate,
        }

    return ExperimentResult(
        "fig04",
        "Baseline reuse distances (GraphSim, batch processing)",
        table,
        data,
    )

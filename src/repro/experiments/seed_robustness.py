"""Seed robustness: do the reproduced shapes depend on the random seed?

Dataset generation, pair perturbation, and weight initialization are
all seeded. This experiment regenerates the Fig. 18 anchors and the
CEGMA-vs-AWB-GCN speedup across several seeds and reports the spread —
the reproduction's conclusions should not be a property of seed 0.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..analysis.metrics import ResultTable
from ..analysis.redundancy import remaining_matching_fraction
from ..platforms import build_platform
from .common import ExperimentResult, workload_size, workload_traces

__all__ = ["run", "SEEDS"]

SEEDS = (0, 1, 2)
MODEL = "GraphSim"


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    table = ResultTable(
        ["seed", "AIDS removed %", "RD-5K removed %", "RD-B speedup vs AWB"],
        title=f"Seed robustness ({MODEL})",
    )
    data: Dict[int, Dict[str, float]] = {}
    for run_seed in SEEDS:
        row: Dict[str, float] = {}
        for dataset in ("AIDS", "RD-5K"):
            num_pairs, batch_size = workload_size(quick, dataset)
            traces = [
                trace
                for batch in workload_traces(
                    MODEL, dataset, num_pairs, batch_size, run_seed
                )
                for trace in batch.pair_traces
            ]
            row[dataset] = 1.0 - remaining_matching_fraction(traces)
        num_pairs, batch_size = workload_size(quick, "RD-B")
        batches = list(
            workload_traces(MODEL, "RD-B", num_pairs, batch_size, run_seed)
        )
        awb = build_platform("AWB-GCN").simulate_batches(batches)
        cegma = build_platform("CEGMA").simulate_batches(batches)
        row["speedup"] = awb.latency_seconds / cegma.latency_seconds
        table.add_row(
            run_seed, 100 * row["AIDS"], 100 * row["RD-5K"], row["speedup"]
        )
        data[run_seed] = row

    spreads = {
        metric: float(
            np.std([row[metric] for row in data.values()])
            / np.mean([row[metric] for row in data.values()])
        )
        for metric in ("AIDS", "RD-5K", "speedup")
    }
    return ExperimentResult(
        "seed_robustness",
        "Anchors and speedups are stable across seeds "
        f"(rel. std: {', '.join(f'{k}={v:.1%}' for k, v in spreads.items())})",
        table,
        {"per_seed": data, "relative_std": spreads},
    )

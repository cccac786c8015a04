"""AOE decision precision vs. a lookahead oracle.

Section V-C states "The Algorithm 2 can achieve 90% precision compared
to the optimal decisions". This experiment replays the coordinated
window with a rollout-based oracle at every two-way decision point and
reports how often AOE's constant-time estimate agrees.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..analysis.metrics import ResultTable
from ..cgc.oracle import oracle_decisions
from ..graphs.datasets import load_dataset
from .common import ExperimentResult

__all__ = ["run"]

WORKLOADS = (("AIDS", 8), ("COLLAB", 32), ("GITHUB", 32), ("RD-B", 64))


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    num_pairs = 4 if quick else 16
    table = ResultTable(
        ["dataset", "capacity", "AOE precision", "decision points"],
        title="AOE precision vs lookahead oracle (Section V-C: ~90%)",
    )
    data: Dict[str, Dict[str, float]] = {}
    all_precisions = []
    for dataset, capacity in WORKLOADS:
        pairs = load_dataset(dataset, seed=seed, num_pairs=num_pairs)
        precisions = []
        points = 0
        for pair in pairs:
            decisions = oracle_decisions(pair, capacity)
            if not decisions:
                continue
            points += len(decisions)
            precisions.append(
                sum(1 for aoe, oracle in decisions if aoe == oracle)
                / len(decisions)
            )
        precision = float(np.mean(precisions)) if precisions else 1.0
        table.add_row(dataset, capacity, precision, points)
        data[dataset] = {"precision": precision, "decision_points": points}
        all_precisions.extend(precisions)

    mean = float(np.mean(all_precisions)) if all_precisions else 1.0
    table.add_row("MEAN", "", mean, sum(d["decision_points"] for d in data.values()))
    return ExperimentResult(
        "aoe_precision",
        "AOE vs oracle decision agreement (paper: ~90%)",
        table,
        {"per_dataset": data, "mean_precision": mean},
    )

"""Matching-redundancy measurement (Figs. 7 and 18).

Fig. 7 reports the ratio between redundant and unique matchings per
model/dataset; Fig. 18 reports the percentage of matchings that remain
after the EMF removes redundancy. Both derive from running the models,
filtering each matching layer's features with Algorithm 1, and counting.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..trace.events import PairTrace

__all__ = [
    "pair_matching_counts",
    "remaining_matching_fraction",
    "redundant_to_unique_ratio",
    "dataset_redundancy",
]


def pair_matching_counts(trace: PairTrace) -> Dict[str, int]:
    """Total vs unique matchings summed over a pair's matching layers.

    Reads each layer's memoized default plan, so a layer the simulator
    has already filtered is not filtered again.
    """
    total = 0
    unique = 0
    for layer in trace.layers:
        if not layer.has_matching:
            continue
        plan = layer.matching_plan()
        total += plan.total_matchings
        unique += plan.unique_matchings
    return {"total": total, "unique": unique, "redundant": total - unique}


def remaining_matching_fraction(traces: Sequence[PairTrace]) -> float:
    """Fig. 18's metric: unique / total matchings over a workload."""
    total = 0
    unique = 0
    for trace in traces:
        counts = pair_matching_counts(trace)
        total += counts["total"]
        unique += counts["unique"]
    return unique / total if total else 1.0


def redundant_to_unique_ratio(traces: Sequence[PairTrace]) -> float:
    """Fig. 7's metric: redundant / unique matchings over a workload."""
    total = 0
    unique = 0
    for trace in traces:
        counts = pair_matching_counts(trace)
        total += counts["total"]
        unique += counts["unique"]
    if unique == 0:
        return 0.0
    return (total - unique) / unique


def dataset_redundancy(traces: Sequence[PairTrace]) -> Dict[str, float]:
    """Both redundancy metrics for one model/dataset workload."""
    remaining = remaining_matching_fraction(traces)
    ratio = redundant_to_unique_ratio(traces)
    return {
        "remaining_fraction": remaining,
        "removed_fraction": 1.0 - remaining,
        "redundant_to_unique": ratio,
    }

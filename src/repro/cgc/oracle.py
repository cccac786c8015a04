"""Oracle sliding-direction decisions and AOE precision measurement.

Section V-C claims "Algorithm 2 can achieve 90% precision compared to
the optimal decisions". This module measures that: it replays the
coordinated joint window, and at every point where both sliding
directions are available it evaluates each branch with a full rollout
(completing the sweep plus cleanup under the default AOE policy) and
takes the branch with fewer total remaining misses — a one-step
lookahead oracle. Precision is the fraction of decision points where
AOE's constant-time estimate agrees with the oracle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..graphs.pairs import GraphPair
from .window import _aoe_direction, _JointWalk, _oracle_direction

__all__ = ["oracle_decisions", "aoe_precision"]


def oracle_decisions(
    pair: GraphPair,
    capacity: int,
) -> List[Tuple[int, int]]:
    """Replay the coordinated window with a lookahead oracle.

    Returns one ``(aoe_choice, oracle_choice)`` tuple per decision point
    where both sliding directions were available (choices use the
    Algorithm 2 convention: 1 row-wise, 0 column-wise). The schedule
    follows the oracle's choices; a tie between the rollouts credits
    AOE's pick.
    """
    decisions: List[Tuple[int, int]] = []

    def record(walk: _JointWalk, q_move: int, t_move: int) -> int:
        aoe_choice = _aoe_direction(walk, q_move, t_move)
        oracle_choice = _oracle_direction(walk, q_move, t_move, tie=aoe_choice)
        decisions.append((aoe_choice, oracle_choice))
        return oracle_choice

    _JointWalk(pair, capacity).steps(record)
    return decisions


def aoe_precision(pair: GraphPair, capacity: int) -> Optional[float]:
    """Fraction of decision points where AOE matches the oracle.

    Returns None when the schedule contains no two-way decision points
    (e.g. the whole pair fits one window).
    """
    decisions = oracle_decisions(pair, capacity)
    if not decisions:
        return None
    agreements = sum(1 for aoe, oracle in decisions if aoe == oracle)
    return agreements / len(decisions)

"""Sliding-window schedulers over the global adjacency matrix.

Five schemes are implemented, mirroring the paper's progression:

- ``single_window_schedule`` (Fig. 8a): the baseline GNN-accelerator
  dataflow — embedding windows per graph first, then matching windows.
- ``double_window_schedule`` (Fig. 8b): two independent windows with a
  statically split input buffer; suffers *incomplete comparison*.
- ``joint_window_schedule`` (Fig. 12a), ``coordinated_window_schedule``
  (Fig. 12b, Algorithm 2) and ``oracle_window_schedule`` (a lookahead
  reference for AOE): one joint-window walk over the cross-graph
  matching area (:class:`_JointWalk`), fusing intra-graph edges with
  matching. They differ only in the policy that picks the sliding
  direction where both are open: always column-wise (the serpentine),
  AOE, or the cheaper of two AOE rollouts.

Scheduling semantics (documented model, consistent across schemes):

- The input buffer holds exactly one window's nodes (``capacity`` nodes;
  joint windows split it evenly between the target and query sides).
- A cross-graph matching (i, j) executes when both nodes are on-chip in
  the same step.
- A directed intra-graph edge (u, v) executes when both endpoints are
  on-chip in the same step (windowed SpMM with co-resident row/column
  tiles). Edges whose endpoints never share a window during the matching
  sweep are handled by *cleanup* steps afterwards — these are exactly
  the "remaining edges" Algorithm 2 minimizes.
- A step's miss count is the number of its nodes absent from the
  previous step's window; the total across steps is the metric of
  Figs. 8/12, and the per-step node reference stream feeds the
  reuse-distance analysis of Figs. 4/20.
- Ties break by id, never by container iteration order (the paper's
  Algorithm 2 fixes no tie order): a cleanup window is seeded at the
  lowest-id node of top remaining degree, and the joint walk's jump
  goes to the nearest unmatched cell, the lowest (target block, query
  block) among equally near ones. Cleanup windows grow along the
  remaining edges in sorted order.

Degenerate inputs (defined behavior, locked by ``repro.validate`` and
the regression tests):

- ``capacity < 2`` raises :class:`ValueError` — a window must co-locate
  at least one node from each side to perform a matching.
- Odd ``capacity``: the joint window's even split gives each side
  ``capacity // 2`` slots and leaves the spare slot unused, so every
  window holds at most ``capacity`` nodes.
- A side smaller than its half-window simply yields one undersized
  block; a side with no (active) nodes has no cross-graph matchings, so
  the schedule degenerates to the cleanup sweep over the remaining
  intra-graph edges.

Node identifiers are global: target nodes ``0..n_t-1``, query nodes
``n_t..n_t+n_q-1``.
"""

from __future__ import annotations

import copy
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..graphs.pairs import GraphPair
from .aoe import SLIDE_COLUMN_WISE, SLIDE_ROW_WISE, approximate_outlier_estimation

__all__ = [
    "WindowStep",
    "WindowSchedule",
    "single_window_schedule",
    "double_window_schedule",
    "joint_window_schedule",
    "coordinated_window_schedule",
    "oracle_window_schedule",
    "SCHEDULERS",
]


class WindowStep:
    """One window position: its on-chip nodes and the work it performs."""

    __slots__ = ("input_nodes", "num_matchings", "num_edges", "misses", "kind")

    def __init__(
        self,
        input_nodes: FrozenSet[int],
        num_matchings: int,
        num_edges: int,
        kind: str,
    ) -> None:
        self.input_nodes = input_nodes
        self.num_matchings = num_matchings
        self.num_edges = num_edges
        self.kind = kind  # "embed" | "match" | "joint" | "cleanup"
        self.misses = 0  # filled in by WindowSchedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowStep({sorted(self.input_nodes)}, match={self.num_matchings}, "
            f"edges={self.num_edges}, miss={self.misses}, kind={self.kind!r})"
        )


class WindowSchedule:
    """A full window schedule with miss accounting."""

    __slots__ = ("steps", "capacity", "scheme")

    def __init__(self, steps: List[WindowStep], capacity: int, scheme: str) -> None:
        self.steps = steps
        self.capacity = capacity
        self.scheme = scheme
        previous: FrozenSet[int] = frozenset()
        for step in steps:
            step.misses = len(step.input_nodes - previous)
            previous = step.input_nodes

    @property
    def total_misses(self) -> int:
        return sum(step.misses for step in self.steps)

    @property
    def total_matchings(self) -> int:
        return sum(step.num_matchings for step in self.steps)

    @property
    def total_edges(self) -> int:
        return sum(step.num_edges for step in self.steps)

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def node_reference_stream(self) -> List[int]:
        """Flat stream of node references, one entry per node per step."""
        stream: List[int] = []
        for step in self.steps:
            stream.extend(sorted(step.input_nodes))
        return stream

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowSchedule({self.scheme!r}, steps={self.num_steps}, "
            f"misses={self.total_misses})"
        )


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _chunks(items: Sequence[int], size: int) -> List[Tuple[int, ...]]:
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    return [tuple(items[i : i + size]) for i in range(0, len(items), size)]


def _pair_edges(pair: GraphPair) -> List[Tuple[int, int]]:
    """All directed intra-graph edges of a pair in global node ids."""
    offset = pair.target.num_nodes
    edges = list(zip(pair.target.src.tolist(), pair.target.dst.tolist()))
    edges += [
        (offset + u, offset + v)
        for u, v in zip(pair.query.src.tolist(), pair.query.dst.tolist())
    ]
    return edges


def _active_sets(
    pair: GraphPair,
    active_targets: Optional[Iterable[int]],
    active_queries: Optional[Iterable[int]],
) -> Tuple[List[int], List[int]]:
    """Global-id lists of the matchable (EMF-unique) nodes per side."""
    n_t = pair.target.num_nodes
    if active_targets is None:
        active_targets = range(n_t)
    if active_queries is None:
        active_queries = range(pair.query.num_nodes)
    return sorted(active_targets), [n_t + j for j in sorted(active_queries)]


def _validate_capacity(capacity: int) -> int:
    if capacity < 2:
        raise ValueError(
            f"window capacity must hold at least 2 nodes, got {capacity}"
        )
    return capacity


class _EdgeTracker:
    """Tracks which directed edges remain unprocessed.

    ``remaining`` is the source of truth; ``out_edges`` indexes it by
    source node so a window step only scans its own nodes' adjacency
    instead of every remaining edge (the scheduler's former hot loop).
    """

    def __init__(self, edges: List[Tuple[int, int]]) -> None:
        self.remaining: Set[Tuple[int, int]] = set(edges)
        self.remaining_degree: Dict[int, int] = {}
        for u, v in edges:
            self.remaining_degree[u] = self.remaining_degree.get(u, 0) + 1
            self.remaining_degree[v] = self.remaining_degree.get(v, 0) + 1
        self.out_edges: Dict[int, Set[int]] = {}
        for u, v in self.remaining:
            self.out_edges.setdefault(u, set()).add(v)

    def copy(self) -> "_EdgeTracker":
        clone = _EdgeTracker([])
        clone.remaining = set(self.remaining)
        clone.remaining_degree = dict(self.remaining_degree)
        clone.out_edges = {u: set(vs) for u, vs in self.out_edges.items()}
        return clone

    def process_coresident(self, nodes: FrozenSet[int]) -> int:
        """Consume every remaining edge with both endpoints in ``nodes``."""
        done = []
        for u in nodes:
            outgoing = self.out_edges.get(u)
            if outgoing:
                for v in outgoing & nodes:
                    done.append((u, v))
        for u, v in done:
            self.remaining.discard((u, v))
            self.out_edges[u].discard(v)
            self.remaining_degree[u] -= 1
            self.remaining_degree[v] -= 1
        return len(done)

    def node_remains(self, node: int) -> int:
        return self.remaining_degree.get(node, 0)

    def cleanup_steps(self, capacity: int) -> List[WindowStep]:
        """Greedy cleanup: load highest-remaining-degree neighborhoods."""
        steps: List[WindowStep] = []
        # One sort up front; each round keeps the (still sorted) suffix
        # of unprocessed edges instead of re-sorting the whole set.
        pending: List[Tuple[int, int]] = sorted(self.remaining)
        while self.remaining:
            # Ties go to the lowest node id.
            seed = max(
                sorted({u for edge in self.remaining for u in edge}),
                key=self.node_remains,
            )
            chosen: Set[int] = {seed}
            # Prefer partners of already-chosen nodes so each step is
            # guaranteed to make progress.
            for u, v in pending:
                if len(chosen) >= capacity:
                    break
                if u in chosen and v not in chosen:
                    chosen.add(v)
                elif v in chosen and u not in chosen:
                    chosen.add(u)
            window = frozenset(chosen)
            processed = self.process_coresident(window)
            if processed == 0:  # pragma: no cover - safety net
                raise RuntimeError("cleanup failed to make progress")
            steps.append(WindowStep(window, 0, processed, "cleanup"))
            pending = [edge for edge in pending if edge in self.remaining]
        return steps


# ----------------------------------------------------------------------
# Scheme 1: single intra-graph window (baseline, Fig. 8a)
# ----------------------------------------------------------------------
def single_window_schedule(
    pair: GraphPair,
    capacity: int,
    active_targets: Optional[Iterable[int]] = None,
    active_queries: Optional[Iterable[int]] = None,
) -> WindowSchedule:
    """Embedding windows per graph, then matching windows (Fig. 8a).

    This is how a single-graph GNN accelerator (HyGCN-style) executes a
    GMN layer: the node-embedding stage visits every node, and the
    matching stage must reload them all because the embedding evictions
    destroyed locality.
    """
    capacity = _validate_capacity(capacity)
    half = max(1, capacity // 2)
    targets, queries = _active_sets(pair, active_targets, active_queries)
    tracker = _EdgeTracker(_pair_edges(pair))
    steps: List[WindowStep] = []

    # Stage 1: embedding. Co-residency windows over each graph's blocks.
    for node_list in _active_sets(pair, None, None):
        blocks = _chunks(node_list, half)
        for i, dst_block in enumerate(blocks):
            for j, src_block in enumerate(blocks):
                window = frozenset(dst_block) | frozenset(src_block)
                processed = tracker.process_coresident(window)
                if processed:
                    steps.append(WindowStep(window, 0, processed, "embed"))

    # Stage 2: matching windows (half target nodes + half query nodes).
    for t_block in _chunks(targets, half):
        for q_block in _chunks(queries, half):
            window = frozenset(t_block) | frozenset(q_block)
            steps.append(
                WindowStep(window, len(t_block) * len(q_block), 0, "match")
            )

    steps.extend(tracker.cleanup_steps(capacity))
    return WindowSchedule(steps, capacity, "single")


# ----------------------------------------------------------------------
# Scheme 2: double independent windows (Fig. 8b)
# ----------------------------------------------------------------------
def double_window_schedule(
    pair: GraphPair,
    capacity: int,
    active_targets: Optional[Iterable[int]] = None,
    active_queries: Optional[Iterable[int]] = None,
) -> WindowSchedule:
    """Two independent windows over a statically split buffer (Fig. 8b).

    Each graph receives half the buffer; the two windows slide in
    lockstep and matching happens opportunistically between co-resident
    blocks. Blocks are evicted before meeting every counterpart block
    (*incomplete comparison*), so most matchings fall into revisit steps
    — the paper's motivation for the joint window.
    """
    capacity = _validate_capacity(capacity)
    half = max(1, capacity // 2)
    targets, queries = _active_sets(pair, active_targets, active_queries)
    tracker = _EdgeTracker(_pair_edges(pair))
    if not targets or not queries:
        # No matchings exist: only the cleanup sweep runs.
        return WindowSchedule(tracker.cleanup_steps(capacity), capacity, "double")
    steps: List[WindowStep] = []

    t_blocks = _chunks(targets, half)
    q_blocks = _chunks(queries, half)
    matched: Set[Tuple[int, int]] = set()
    for k in range(max(len(t_blocks), len(q_blocks))):
        ti = min(k, len(t_blocks) - 1)
        qi = min(k, len(q_blocks) - 1)
        window = frozenset(t_blocks[ti]) | frozenset(q_blocks[qi])
        edges = tracker.process_coresident(window)
        matchings = 0
        if (ti, qi) not in matched:
            matched.add((ti, qi))
            matchings = len(t_blocks[ti]) * len(q_blocks[qi])
        steps.append(WindowStep(window, matchings, edges, "joint"))

    # Revisit steps: the incomplete comparisons.
    for ti, t_block in enumerate(t_blocks):
        for qi, q_block in enumerate(q_blocks):
            if (ti, qi) in matched:
                continue
            window = frozenset(t_block) | frozenset(q_block)
            edges = tracker.process_coresident(window)
            steps.append(
                WindowStep(window, len(t_block) * len(q_block), edges, "match")
            )

    steps.extend(tracker.cleanup_steps(capacity))
    return WindowSchedule(steps, capacity, "double")


# ----------------------------------------------------------------------
# Schemes 3-5: the joint window's walk and its direction policies
# ----------------------------------------------------------------------
class _JointWalk:
    """The joint window's walk over the cross-graph matching blocks.

    The window visits each (target block, query block) cell exactly
    once. Where it can, it keeps one side stationary and slides the
    other to the nearest unmatched cell in the same row or column;
    where neither exists it jumps to the nearest unmatched cell.

    Where both a same-row and a same-column move are open, it asks a
    *direction policy* ``direction(walk, q_move, t_move)``, which
    returns ``SLIDE_COLUMN_WISE`` (keep the row, go to query block
    ``q_move``) or ``SLIDE_ROW_WISE`` (keep the column, go to target
    block ``t_move``).
    """

    def __init__(
        self,
        pair: GraphPair,
        capacity: int,
        active_targets: Optional[Iterable[int]] = None,
        active_queries: Optional[Iterable[int]] = None,
    ) -> None:
        self.capacity = _validate_capacity(capacity)
        half = max(1, capacity // 2)
        targets, queries = _active_sets(pair, active_targets, active_queries)
        self.t_blocks = _chunks(targets, half)
        self.q_blocks = _chunks(queries, half)
        self.tracker = _EdgeTracker(_pair_edges(pair))
        self.ti, self.qi = 0, 0
        self.unmatched: Set[Tuple[int, int]] = {
            (ti, qi)
            for ti in range(len(self.t_blocks))
            for qi in range(len(self.q_blocks))
        }

    def window(self) -> FrozenSet[int]:
        return frozenset(self.t_blocks[self.ti]) | frozenset(self.q_blocks[self.qi])

    def steps(self, direction) -> List[WindowStep]:
        """Walk until every cell is matched, then sweep the cleanup."""
        steps = []
        while self.unmatched:
            window = self.window()
            edges = self.tracker.process_coresident(window)
            self.unmatched.discard((self.ti, self.qi))
            matchings = len(self.t_blocks[self.ti]) * len(self.q_blocks[self.qi])
            steps.append(WindowStep(window, matchings, edges, "joint"))
            if self.unmatched:
                self.ti, self.qi = self._next_cell(direction)
        return steps + self.tracker.cleanup_steps(self.capacity)

    def _next_cell(self, direction) -> Tuple[int, int]:
        ti, qi = self.ti, self.qi
        # Candidate moves that keep one side stationary.
        q_moves = sorted((abs(qj - qi), qj) for (tj, qj) in self.unmatched if tj == ti)
        t_moves = sorted((abs(tj - ti), tj) for (tj, qj) in self.unmatched if qj == qi)
        if q_moves and t_moves:
            if direction(self, q_moves[0][1], t_moves[0][1]) == SLIDE_COLUMN_WISE:
                return ti, q_moves[0][1]
            return t_moves[0][1], qi
        if q_moves:
            return ti, q_moves[0][1]
        if t_moves:
            return t_moves[0][1], qi
        # Jump to the nearest unmatched cell (both sides change); ties
        # go to the lowest (target block, query block).
        return min(
            self.unmatched,
            key=lambda cell: (abs(cell[0] - ti) + abs(cell[1] - qi), cell),
        )

    def rollout_misses(self, ti: int, qi: int) -> int:
        """Misses of finishing the schedule from cell ``(ti, qi)`` under
        AOE, played out on a copy of this walk's state."""
        rollout = copy.copy(self)
        rollout.tracker = self.tracker.copy()
        rollout.unmatched = set(self.unmatched)
        rollout.ti, rollout.qi = ti, qi
        misses = 0
        previous = self.window()
        for step in rollout.steps(_aoe_direction):
            misses += len(step.input_nodes - previous)
            previous = step.input_nodes
        return misses


def _column_wise(walk: _JointWalk, q_move: int, t_move: int) -> int:
    return SLIDE_COLUMN_WISE


def _aoe_direction(walk: _JointWalk, q_move: int, t_move: int) -> int:
    """Algorithm 2's pick from the on-chip nodes' remaining edges."""
    return approximate_outlier_estimation(
        [walk.tracker.node_remains(u) for u in walk.t_blocks[walk.ti]],
        [walk.tracker.node_remains(u) for u in walk.q_blocks[walk.qi]],
    )


def _oracle_direction(
    walk: _JointWalk, q_move: int, t_move: int, tie: int = SLIDE_COLUMN_WISE
) -> int:
    """One-step lookahead: roll out both moves, take the one with fewer
    remaining misses; ``tie`` decides equal rollouts."""
    slide_q_cost = walk.rollout_misses(walk.ti, q_move)
    slide_t_cost = walk.rollout_misses(t_move, walk.qi)
    if slide_q_cost == slide_t_cost:
        return tie
    return SLIDE_COLUMN_WISE if slide_q_cost < slide_t_cost else SLIDE_ROW_WISE


def joint_window_schedule(
    pair: GraphPair,
    capacity: int,
    active_targets: Optional[Iterable[int]] = None,
    active_queries: Optional[Iterable[int]] = None,
) -> WindowSchedule:
    """Joint window serpentining row-major over the matching area (Fig. 12a).

    Property (1): only one side changes per step, so the stationary side
    is fully reused. Property (2): at the end of a stripe the window
    turns and continues from the *closest* start point instead of
    rewinding to index zero. Always sliding column-wise where both moves
    are open gives exactly this serpentine.
    """
    walk = _JointWalk(pair, capacity, active_targets, active_queries)
    return WindowSchedule(walk.steps(_column_wise), walk.capacity, "joint")


def coordinated_window_schedule(
    pair: GraphPair,
    capacity: int,
    active_targets: Optional[Iterable[int]] = None,
    active_queries: Optional[Iterable[int]] = None,
) -> WindowSchedule:
    """Joint window whose sliding direction is chosen by AOE (Fig. 12b, Alg. 2)."""
    walk = _JointWalk(pair, capacity, active_targets, active_queries)
    return WindowSchedule(walk.steps(_aoe_direction), walk.capacity, "coordinated")


def oracle_window_schedule(
    pair: GraphPair,
    capacity: int,
    active_targets: Optional[Iterable[int]] = None,
    active_queries: Optional[Iterable[int]] = None,
) -> WindowSchedule:
    """Joint window steered by the lookahead oracle.

    A practical upper bound for AOE: each two-way decision rolls out
    both moves under AOE and takes the cheaper one (ties slide
    column-wise). Much costlier to schedule (O(steps) rollouts), so it
    is a reference point, not a dataflow — the ``fig08`` experiment
    shows how close AOE's constant-time heuristic gets.
    """
    walk = _JointWalk(pair, capacity, active_targets, active_queries)
    return WindowSchedule(walk.steps(_oracle_direction), walk.capacity, "oracle")


SCHEDULERS = {
    "single": single_window_schedule,
    "double": double_window_schedule,
    "joint": joint_window_schedule,
    "coordinated": coordinated_window_schedule,
    "oracle": oracle_window_schedule,
}

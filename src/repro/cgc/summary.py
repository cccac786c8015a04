"""Array-form window-schedule summaries for the batched simulator.

The cycle simulators never look at *which* nodes a window holds — only
at per-step occupancy, miss, matching, and edge counts plus a few
totals. :class:`ScheduleSummary` captures exactly that as flat int64
arrays, which is what the batched engine stacks across pairs and what
the trace-cache sidecar persists so warm runs skip scheduling entirely.

Two ways to obtain one:

- :meth:`ScheduleSummary.from_schedule` converts a full
  :class:`~repro.cgc.window.WindowSchedule` (the serial reference).
- :func:`schedule_summary_for` builds one directly through the fast
  builders below, which replicate ``single_window_schedule`` and
  ``coordinated_window_schedule`` *exactly* — same windows, same order,
  same tie-breaks — without materializing ``WindowStep`` objects.

Both forms are memoized per pair through :func:`memoized`, whose weak
per-pair entry also holds the pair's topology record, so a pair's
canonical edge order is computed once however many schedules are built
over it.

Exactness notes (the serial schedulers are the specification, bit for
bit, and ``repro validate --only sim.batched_vs_serial`` enforces it):

- The serial ``_EdgeTracker`` iterates ``remaining`` (a set of edge
  tuples) whose order CPython fixes at construction: deletions leave
  dummy slots and never reorder survivors, and no edges are ever added
  after ``set(edges)``. The fast tracker therefore canonicalizes edges
  as ``list(set(edges))`` once — the iteration order of ``remaining``
  at *any* later point is this list filtered to still-alive edges.
- The cleanup seed ``max({u for edge in remaining for u in edge},
  key=node_remains)`` tie-breaks on int-set iteration order, and that
  order is load-bearing: breaking ties in ascending node order picks a
  different seed in about a third of a headline pass's cleanup rounds.
  When one node alone holds the top remaining degree it is the seed.
  Otherwise the fast path predicts the set's order from two CPython
  facts: (a) inserting a key already present never changes the table,
  so the set of the distinct endpoints in first-occurrence order
  iterates like the serial one; (b) an insert-only set's table size is
  fixed by its count of distinct keys (:func:`_set_table_mask`). If no
  two nodes share a home slot ``node & mask``, every node sits in its
  home slot and iteration is home-slot order — ascending when no node
  exceeds the mask. If two share one, probing decides, and the seed is
  read off a real set of the distinct nodes inserted in
  first-occurrence order (alive edges in canonical order, ``src``
  before ``dst``). Either way the first tied node is taken, as ``max``
  does.
- A cleanup window grows from its seed along alive edges only, so a
  pending edge outside the seed's alive connected component never
  touches the window and never retires. The grow scan and the retire
  pass therefore visit only the seed's component, in the same sorted
  order; component labels are taken once when cleanup starts, which
  stays exact because components only split as edges retire. A window
  holding every node of its component retires all of the component's
  edges, and the scan stops once it holds them all, since it can add
  no further node.
- ``remaining_degree`` counts every edge *occurrence* (duplicates
  included), while processing only retires canonical edges; the fast
  tracker replicates this asymmetry via one ``np.bincount`` over the
  raw endpoint list, and retires edges with ``np.bincount`` too
  (integer counts, so it equals per-edge decrements). Without repeated
  edges a node's remaining degree is exactly its count of alive edge
  ends, so it also tells which nodes the cleanup seed's set holds; a
  pair with repeated edges keeps that count separately.
- The coordinated scheme's jump ``min(unmatched, key=manhattan)``
  iterates a set built by one comprehension and shrunk only by
  ``discard`` — replicated verbatim, so ties resolve identically.

AOE decisions go through the real
:func:`~repro.cgc.aoe.approximate_outlier_estimation`, so its
``cgc.aoe.*`` metrics are emitted exactly as the serial builder would.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from ..graphs.pairs import GraphPair
from .aoe import SLIDE_COLUMN_WISE, approximate_outlier_estimation
from .window import (
    WindowSchedule,
    _active_sets,
    _chunks,
    _pair_edges,
    _validate_capacity,
)

__all__ = [
    "ScheduleSummary",
    "schedule_summary_for",
    "summary_key",
    "summarize_single",
    "summarize_coordinated",
    "memoized_summaries",
    "memoized",
    "schedule_key",
]


class ScheduleSummary:
    """Per-step counts of one window schedule, in array form."""

    __slots__ = (
        "scheme",
        "capacity",
        "occupancy",
        "misses",
        "matchings",
        "edges",
        "is_cleanup",
    )

    def __init__(
        self,
        scheme: str,
        capacity: int,
        occupancy: np.ndarray,
        misses: np.ndarray,
        matchings: np.ndarray,
        edges: np.ndarray,
        is_cleanup: np.ndarray,
    ) -> None:
        self.scheme = scheme
        self.capacity = capacity
        self.occupancy = occupancy
        self.misses = misses
        self.matchings = matchings
        self.edges = edges
        self.is_cleanup = is_cleanup

    # ------------------------------------------------------------------
    @classmethod
    def from_schedule(cls, schedule: WindowSchedule) -> "ScheduleSummary":
        steps = schedule.steps
        return cls(
            schedule.scheme,
            schedule.capacity,
            np.array([len(s.input_nodes) for s in steps], dtype=np.int64),
            np.array([s.misses for s in steps], dtype=np.int64),
            np.array([s.num_matchings for s in steps], dtype=np.int64),
            np.array([s.num_edges for s in steps], dtype=np.int64),
            np.array(
                [s.kind == "cleanup" for s in steps], dtype=np.int64
            ),
        )

    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        return int(self.occupancy.shape[0])

    @property
    def total_misses(self) -> int:
        return int(self.misses.sum())

    @property
    def total_matchings(self) -> int:
        return int(self.matchings.sum())

    @property
    def total_edges(self) -> int:
        return int(self.edges.sum())

    @property
    def total_occupancy(self) -> int:
        """Sum of window sizes — the thrashing-mode feature-load count."""
        return int(self.occupancy.sum())

    @property
    def cleanup_steps(self) -> int:
        return int(self.is_cleanup.sum())

    @property
    def cleanup_misses(self) -> int:
        """Nodes re-fetched by cleanup windows (``cgc.revisits.nodes``)."""
        return int(self.misses[self.is_cleanup != 0].sum())

    # ------------------------------------------------------------------
    def to_array(self) -> np.ndarray:
        """One ``(5, num_steps)`` int64 array (sidecar serialization)."""
        return np.stack(
            [self.occupancy, self.misses, self.matchings, self.edges, self.is_cleanup]
        )

    @classmethod
    def from_array(
        cls, scheme: str, capacity: int, packed: np.ndarray
    ) -> "ScheduleSummary":
        packed = np.ascontiguousarray(packed, dtype=np.int64)
        if packed.ndim != 2 or packed.shape[0] != 5:
            raise ValueError(
                f"expected a (5, steps) summary array, got {packed.shape}"
            )
        return cls(scheme, capacity, *[packed[i] for i in range(5)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleSummary):
            return NotImplemented
        return (
            self.scheme == other.scheme
            and self.capacity == other.capacity
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in (
                    "occupancy",
                    "misses",
                    "matchings",
                    "edges",
                    "is_cleanup",
                )
            )
        )

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduleSummary({self.scheme!r}, steps={self.num_steps}, "
            f"misses={self.total_misses})"
        )


# ----------------------------------------------------------------------
# Per-pair memo
# ----------------------------------------------------------------------
# Schedules depend only on (pair, scheme, capacity, active sets), never
# on the platform or the model, so every platform simulated over a trace
# and every model profiled over the same pair objects share one entry.
# Weak keying drops a pair's entry as soon as the pair is released.
_MEMO: "WeakKeyDictionary" = WeakKeyDictionary()
_MEMO_PER_PAIR = 64


def schedule_key(
    scheme: str,
    capacity: int,
    active_targets: Optional[Iterable[int]],
    active_queries: Optional[Iterable[int]],
) -> Tuple:
    """Memo key of one schedule over a pair."""
    return (
        scheme,
        capacity,
        None if active_targets is None else tuple(active_targets),
        None if active_queries is None else tuple(active_queries),
    )


def memoized(pair: GraphPair, kind: str, key: Tuple, build: Callable):
    """``build()`` memoized per (pair, kind, key).

    Each kind is one table in the pair's entry: the fast builders'
    summaries (``"summary"``), the serial reference's full schedules
    (``"schedule"``) and the fast builders' topology record
    (``"topology"``). A table at its bound drops its oldest entry, on a
    miss only.
    """
    tables = _MEMO.get(pair)
    if tables is None:
        tables = _MEMO[pair] = {}
    table = tables.setdefault(kind, {})
    value = table.get(key)
    if value is None:
        value = build()
        if len(table) >= _MEMO_PER_PAIR:
            del table[next(iter(table))]
        table[key] = value
    return value


# ----------------------------------------------------------------------
# Fast exact builders
# ----------------------------------------------------------------------
class _Topology:
    """One pair's edges in canonical order, computed once per pair.

    Canonical order is the iteration order of ``set(edges)`` (see module
    docstring). ``remains`` holds the initial remaining degrees and
    ``order`` the canonical indices in ``sorted(edges)`` order;
    ``incidence`` counts each node's canonical edge ends, and is None
    when no edge repeats (``remains`` is that count then). Builds copy
    ``remains`` and ``incidence`` and never write the rest.
    """

    __slots__ = ("src", "dst", "remains", "incidence", "order")

    def __init__(self, pair: GraphPair) -> None:
        edges = _pair_edges(pair)
        canonical = np.array(list(set(edges)), dtype=np.int64).reshape(-1, 2)
        self.src = canonical[:, 0].copy()
        self.dst = canonical[:, 1].copy()
        num_nodes = pair.total_nodes
        if edges:
            endpoints = np.array(edges, dtype=np.int64).ravel()
            self.remains = np.bincount(endpoints, minlength=num_nodes)
        else:
            self.remains = np.zeros(num_nodes, dtype=np.int64)
        self.incidence = None
        if len(canonical) < len(edges):
            self.incidence = np.bincount(
                np.concatenate((self.src, self.dst)), minlength=num_nodes
            )
        self.order = np.lexsort((self.dst, self.src))


class _ArrayTracker:
    """Array twin of :class:`~repro.cgc.window._EdgeTracker`.

    Aliveness and remaining degrees live in numpy arrays over the pair's
    canonical edge list, and co-residency processing is one boolean pass
    over that list per window instead of per-node set algebra.
    """

    __slots__ = (
        "topology", "src", "dst", "alive", "remains", "incidence", "_mark", "_gen"
    )

    def __init__(self, pair: GraphPair) -> None:
        topology = memoized(pair, "topology", (), lambda: _Topology(pair))
        self.topology = topology
        self.src = topology.src
        self.dst = topology.dst
        self.alive = np.ones(self.src.shape[0], dtype=bool)
        self.remains = topology.remains.copy()
        self.incidence = (
            None if topology.incidence is None else topology.incidence.copy()
        )
        self._mark = np.zeros(self.remains.shape[0], dtype=np.int64)
        self._gen = 0

    def process(
        self, window: np.ndarray, candidates: Optional[np.ndarray] = None
    ) -> int:
        """Retire every alive edge with both endpoints in ``window``.

        ``candidates``, when given, are the indices of alive edges that
        include every edge the window can retire; only they are tested.
        """
        if candidates is None:
            if not self.alive.any():
                return 0
            candidates = np.flatnonzero(self.alive)
        self._gen += 1
        self._mark[window] = self._gen
        done = candidates[
            (self._mark[self.src[candidates]] == self._gen)
            & (self._mark[self.dst[candidates]] == self._gen)
        ]
        if done.size:
            self.alive[done] = False
            ends = np.bincount(
                np.concatenate((self.src[done], self.dst[done])),
                minlength=self.remains.shape[0],
            )
            self.remains -= ends
            if self.incidence is not None:
                self.incidence -= ends
        return int(done.size)

    def retire_component(self, edges: np.ndarray, nodes: np.ndarray) -> None:
        """Retire ``edges``: every alive edge at any of ``nodes``."""
        self.alive[edges] = False
        if self.incidence is None:
            self.remains[nodes] = 0
        else:
            self.remains[nodes] -= self.incidence[nodes]
            self.incidence[nodes] = 0

    def alive_degrees(self) -> np.ndarray:
        """``remaining_degree`` of each node with an alive edge; every
        other node reads below 1. Without repeated edges a node's
        remaining degree is its count of alive edge ends, so
        ``remains`` serves as is."""
        if self.incidence is None:
            return self.remains
        return np.where(self.incidence > 0, self.remains, -1)


class _StepRecorder:
    """Accumulates per-step counts with serial miss accounting.

    A step's misses are its nodes absent from the *previous recorded*
    step's window (``WindowSchedule.__init__`` semantics) — windows the
    single scheme drops for processing nothing never enter the chain.
    """

    __slots__ = ("_last", "_step", "occ", "miss", "match", "edges", "cleanup")

    def __init__(self, num_nodes: int) -> None:
        self._last = np.full(num_nodes, -1, dtype=np.int64)
        self._step = 0
        self.occ: List[int] = []
        self.miss: List[int] = []
        self.match: List[int] = []
        self.edges: List[int] = []
        self.cleanup: List[int] = []

    def append(
        self, window: np.ndarray, matchings: int, edges: int, cleanup: bool
    ) -> None:
        self._step += 1
        misses = int(np.count_nonzero(self._last[window] != self._step - 1))
        self._last[window] = self._step
        self.occ.append(int(window.shape[0]))
        self.miss.append(misses)
        self.match.append(matchings)
        self.edges.append(edges)
        self.cleanup.append(1 if cleanup else 0)

    def build(self, scheme: str, capacity: int) -> ScheduleSummary:
        return ScheduleSummary(
            scheme,
            capacity,
            np.array(self.occ, dtype=np.int64),
            np.array(self.miss, dtype=np.int64),
            np.array(self.match, dtype=np.int64),
            np.array(self.edges, dtype=np.int64),
            np.array(self.cleanup, dtype=np.int64),
        )


def _component_labels(
    src: np.ndarray, dst: np.ndarray, num_nodes: int
) -> np.ndarray:
    """One label per node, equal exactly within each weakly connected
    component of the edges ``src -> dst`` (min-label propagation)."""
    labels = np.arange(num_nodes)
    while True:
        low = np.minimum(labels[src], labels[dst])
        lowered = labels.copy()
        np.minimum.at(lowered, src, low)
        np.minimum.at(lowered, dst, low)
        lowered = lowered[lowered]
        if np.array_equal(lowered, labels):
            return labels
        labels = lowered


@lru_cache(maxsize=4096)
def _set_table_mask(count: int) -> int:
    """Hash-table mask of a CPython set after ``count`` distinct inserts
    and no deletions: a table resizes when its fill reaches three fifths
    of the mask, to the first power of two above four times its key
    count (twice, past 50,000 keys)."""
    mask = 7
    while True:
        fill = (3 * mask + 4) // 5
        if count < fill:
            return mask
        minimum = fill * 2 if fill > 50000 else fill * 4
        size = 8
        while size <= minimum:
            size <<= 1
        mask = size - 1


def _set_layout_predictable() -> bool:
    """Whether this interpreter sizes int sets as :func:`_set_table_mask`
    says and iterates them in home-slot order (checked once, at import);
    if not, every tied cleanup seed is read off a real set."""
    if sys.implementation.name != "cpython" or list({9, 2}) != [9, 2]:
        return False
    empty = sys.getsizeof(set())
    entry = None
    for count in (4, 5, 18, 19, 76, 77, 306, 307):
        grown = sys.getsizeof(set(range(count))) - empty
        slots = _set_table_mask(count) + 1
        if slots == 8:
            if grown:
                return False
            continue
        entry = entry or grown // slots
        if not entry or grown != entry * slots:
            return False
    return True


_SET_LAYOUT_PREDICTABLE = _set_layout_predictable()


def _homes_distinct(homes: np.ndarray) -> bool:
    """Whether no two nodes share a home slot ``node & mask``."""
    return int(np.bincount(homes).max()) <= 1


def _cleanup_seed(tracker: _ArrayTracker, first: np.ndarray) -> int:
    """The serial ``max({u for edge in remaining for u in edge},
    key=node_remains)``: the first top-degree node in the set's
    iteration order, predicted from the table layout where no two nodes
    share a home slot (see module notes) and read off the set where
    they do. ``first`` holds each node's first alive edge end (see
    :func:`_first_ends`)."""
    degree = tracker.alive_degrees()
    (tied,) = (degree == degree.max()).nonzero()
    if tied.size == 1:
        return int(tied[0])
    (nodes,) = (degree > 0).nonzero()
    if _SET_LAYOUT_PREDICTABLE:
        mask = _set_table_mask(nodes.size)
        if nodes[-1] <= mask:
            return int(tied[0])
        if _homes_distinct(nodes & mask):
            return int(tied[np.argmin(tied & mask)])
    return _cleanup_seed_by_set(nodes, tied, first)


def _cleanup_seed_by_set(
    nodes: np.ndarray, tied: np.ndarray, first: np.ndarray
) -> int:
    """The first of the ``tied`` nodes in the iteration order of a set
    of the alive edges' ``nodes``, inserted in the order the serial
    comprehension first meets them (by ``first``). Repeated inserts
    leave a set's table as it was, so this set iterates as the serial
    one does."""
    tied_nodes = set(tied.tolist())
    ordered = nodes[np.argsort(first[nodes])]
    return next(node for node in set(ordered.tolist()) if node in tied_nodes)


def _first_ends(
    first: np.ndarray, src: np.ndarray, dst: np.ndarray, edges: np.ndarray
) -> None:
    """Set ``first`` at every endpoint of ``edges`` to its first end
    among them: position ``2 * i`` for the ``src`` of canonical edge
    ``i`` and ``2 * i + 1`` for its ``dst``, the order in which the
    serial comprehension meets endpoints. ``edges`` must hold every
    alive edge at those endpoints."""
    first[src[edges]] = first[dst[edges]] = np.iinfo(np.int64).max
    np.minimum.at(first, src[edges], 2 * edges)
    np.minimum.at(first, dst[edges], 2 * edges + 1)


def _cleanup_rounds(
    tracker: _ArrayTracker, recorder: _StepRecorder, capacity: int
) -> None:
    """Replicates ``_EdgeTracker.cleanup_steps`` over the array state."""
    alive_index = np.flatnonzero(tracker.alive)
    if alive_index.size == 0:
        return
    src, dst = tracker.src, tracker.dst
    # sorted(remaining), split by alive connected component. A window
    # grows from its seed along alive edges only, so edges outside the
    # seed's component never touch it. Components only split as edges
    # retire, so labels taken now stay valid for every round.
    labels = _component_labels(
        src[alive_index], dst[alive_index], tracker.remains.shape[0]
    )
    order = tracker.topology.order
    pending = order[tracker.alive[order]]
    pending_labels = labels[src[pending]]
    grouped = np.argsort(pending_labels, kind="stable")
    by_label = pending[grouped]
    keys, starts = np.unique(pending_labels[grouped], return_index=True)
    bounds = starts.tolist()[1:] + [by_label.size]
    edge_pairs = list(zip(src[by_label].tolist(), dst[by_label].tolist()))
    # Per component: its alive edges' indices and (src, dst) pairs, in
    # sorted order, and how many nodes those edges touch.
    components = {
        label: (by_label[start:stop], edge_pairs[start:stop])
        for label, start, stop in zip(keys.tolist(), starts.tolist(), bounds)
    }
    members = np.bincount(
        labels[tracker.alive_degrees() > 0], minlength=labels.shape[0]
    ).tolist()
    first = np.empty(labels.shape[0], dtype=np.int64)
    _first_ends(first, src, dst, alive_index)
    remaining = alive_index.size
    while remaining:
        seed = _cleanup_seed(tracker, first)
        label = int(labels[seed])
        component, edges = components[label]
        # Past the component's node count the scan can add no node.
        limit = min(capacity, members[label])
        chosen = {seed}
        for u, v in edges:
            if len(chosen) >= limit:
                break
            if u in chosen:
                if v not in chosen:
                    chosen.add(v)
            elif v in chosen:
                chosen.add(u)
        window = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
        if len(chosen) == members[label]:
            # The window holds every node of the component, so every
            # edge of it retires.
            tracker.retire_component(component, window)
            processed = component.size
            del components[label]
        else:
            processed = tracker.process(window, component)
            if processed == 0:  # pragma: no cover - safety net
                raise RuntimeError("cleanup failed to make progress")
            kept = tracker.alive[component]
            component = component[kept]
            edges = [edge for edge, keep in zip(edges, kept.tolist()) if keep]
            components[label] = (component, edges)
            members[label] = np.unique(
                np.concatenate((src[component], dst[component]))
            ).size
            _first_ends(first, src, dst, component)
        recorder.append(window, 0, processed, cleanup=True)
        remaining -= processed


def summarize_single(
    pair: GraphPair,
    capacity: int,
    active_targets: Optional[Iterable[int]] = None,
    active_queries: Optional[Iterable[int]] = None,
) -> ScheduleSummary:
    """Exact summary of ``single_window_schedule`` (Fig. 8a)."""
    capacity = _validate_capacity(capacity)
    half = max(1, capacity // 2)
    targets, queries = _active_sets(pair, active_targets, active_queries)
    tracker = _ArrayTracker(pair)
    recorder = _StepRecorder(pair.total_nodes)

    n_t = pair.target.num_nodes
    for node_list in (
        list(range(n_t)),
        [n_t + j for j in range(pair.query.num_nodes)],
    ):
        blocks = [
            np.asarray(block, dtype=np.int64)
            for block in _chunks(node_list, half)
        ]
        for i, dst_block in enumerate(blocks):
            for j, src_block in enumerate(blocks):
                window = (
                    dst_block
                    if i == j
                    else np.concatenate([dst_block, src_block])
                )
                processed = tracker.process(window)
                if processed:
                    recorder.append(window, 0, processed, cleanup=False)

    for t_block in _chunks(targets, half):
        t_array = np.asarray(t_block, dtype=np.int64)
        for q_block in _chunks(queries, half):
            window = np.concatenate(
                [t_array, np.asarray(q_block, dtype=np.int64)]
            )
            recorder.append(
                window, len(t_block) * len(q_block), 0, cleanup=False
            )

    _cleanup_rounds(tracker, recorder, capacity)
    return recorder.build("single", capacity)


def summarize_coordinated(
    pair: GraphPair,
    capacity: int,
    active_targets: Optional[Iterable[int]] = None,
    active_queries: Optional[Iterable[int]] = None,
) -> ScheduleSummary:
    """Exact summary of ``coordinated_window_schedule`` (Fig. 12b)."""
    capacity = _validate_capacity(capacity)
    half = max(1, capacity // 2)
    targets, queries = _active_sets(pair, active_targets, active_queries)
    tracker = _ArrayTracker(pair)
    recorder = _StepRecorder(pair.total_nodes)
    if not targets or not queries:
        _cleanup_rounds(tracker, recorder, capacity)
        return recorder.build("coordinated", capacity)

    t_blocks = _chunks(targets, half)
    q_blocks = _chunks(queries, half)
    t_arrays = [np.asarray(block, dtype=np.int64) for block in t_blocks]
    q_arrays = [np.asarray(block, dtype=np.int64) for block in q_blocks]
    unmatched = {
        (ti, qi) for ti in range(len(t_blocks)) for qi in range(len(q_blocks))
    }
    ti, qi = 0, 0
    while True:
        window = np.concatenate([t_arrays[ti], q_arrays[qi]])
        edges = tracker.process(window)
        matchings = 0
        if (ti, qi) in unmatched:
            unmatched.discard((ti, qi))
            matchings = len(t_blocks[ti]) * len(q_blocks[qi])
        recorder.append(window, matchings, edges, cleanup=False)
        if not unmatched:
            break

        q_moves = sorted(
            (abs(qj - qi), qj) for (tj, qj) in unmatched if tj == ti
        )
        t_moves = sorted(
            (abs(tj - ti), tj) for (tj, qj) in unmatched if qj == qi
        )
        if q_moves and t_moves:
            direction = approximate_outlier_estimation(
                tracker.remains[t_arrays[ti]].tolist(),
                tracker.remains[q_arrays[qi]].tolist(),
            )
            if direction == SLIDE_COLUMN_WISE:
                qi = q_moves[0][1]
            else:
                ti = t_moves[0][1]
        elif q_moves:
            qi = q_moves[0][1]
        elif t_moves:
            ti = t_moves[0][1]
        else:
            ti, qi = min(
                unmatched, key=lambda cell: abs(cell[0] - ti) + abs(cell[1] - qi)
            )

    _cleanup_rounds(tracker, recorder, capacity)
    return recorder.build("coordinated", capacity)


_BUILDERS = {
    "single": summarize_single,
    "coordinated": summarize_coordinated,
}

def summary_key(
    scheme: str,
    capacity: int,
    active_targets: Optional[Iterable[int]],
    active_queries: Optional[Iterable[int]],
) -> str:
    """Stable string key for one schedule (sidecar manifest key)."""

    def side(values: Optional[Iterable[int]]) -> str:
        if values is None:
            return "*"
        return ",".join(str(v) for v in values)

    return f"{scheme}|{capacity}|{side(active_targets)}|{side(active_queries)}"


def memoized_summaries(pair: GraphPair) -> Dict[Tuple, ScheduleSummary]:
    """Snapshot of one pair's summary memo, keyed by :func:`schedule_key`.

    The trace-cache sidecar reads it to persist the schedules a
    simulation requested.
    """
    return dict(_MEMO.get(pair, {}).get("summary", {}))


def schedule_summary_for(
    pair: GraphPair,
    scheme: str,
    capacity: int,
    active_targets: Optional[Iterable[int]] = None,
    active_queries: Optional[Iterable[int]] = None,
    store: Optional[Dict[str, ScheduleSummary]] = None,
) -> ScheduleSummary:
    """Memoized schedule summary for one (pair, layer) workload.

    Lookup order: per-pair memo, then the optional ``store`` (the
    trace-cache sidecar, keyed by :func:`summary_key`), then a fresh
    fast build. The caller decides whether to pass a store — metric
    runs must not, so schedule-construction counters (``cgc.aoe.*``)
    are emitted exactly as the serial path would.
    """
    if scheme not in _BUILDERS:
        raise KeyError(
            f"unknown batched scheme {scheme!r}; known: {sorted(_BUILDERS)}"
        )
    key = schedule_key(scheme, capacity, active_targets, active_queries)

    def build() -> ScheduleSummary:
        stored = None if store is None else store.get(summary_key(*key))
        if stored is not None:
            return stored
        return _BUILDERS[scheme](pair, capacity, key[2], key[3])

    return memoized(pair, "summary", key, build)

"""Tests for the array-form schedule summaries behind the batched engine.

The fast builders must reproduce the serial schedulers *exactly* — the
serial path is the specification, and `ScheduleSummary.from_schedule`
of a real `WindowSchedule` is the ground truth they are compared to.
"""

import numpy as np
import pytest

from repro.cgc import summary as summary_mod
from repro.cgc.summary import (
    ScheduleSummary,
    memoized,
    schedule_summary_for,
    summarize_coordinated,
    summarize_single,
)
from repro.cgc.window import (
    coordinated_window_schedule,
    single_window_schedule,
)
from repro.graphs import Graph, GraphPair, erdos_renyi_graph
from repro.graphs.datasets import load_dataset


def paper_example_pair():
    target = Graph.from_undirected_edges(4, [(0, 2), (1, 2), (2, 3)])
    query = Graph.from_undirected_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
    )
    return GraphPair(target, query)


def random_pair(seed, n_t=10, n_q=12, e_t=15, e_q=18):
    rng = np.random.default_rng(seed)
    return GraphPair(
        erdos_renyi_graph(n_t, e_t, rng), erdos_renyi_graph(n_q, e_q, rng)
    )


FAST_BUILDERS = {
    "single": (summarize_single, single_window_schedule),
    "coordinated": (summarize_coordinated, coordinated_window_schedule),
}


class TestExactness:
    """Fast builders == from_schedule(serial scheduler), bit for bit."""

    @pytest.mark.parametrize("scheme", sorted(FAST_BUILDERS))
    @pytest.mark.parametrize("capacity", [2, 4, 6, 32])
    def test_matches_serial_on_example(self, scheme, capacity):
        pair = paper_example_pair()
        fast, serial = FAST_BUILDERS[scheme]
        assert fast(pair, capacity) == ScheduleSummary.from_schedule(
            serial(pair, capacity)
        )

    @pytest.mark.parametrize("scheme", sorted(FAST_BUILDERS))
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_serial_on_random_pairs(self, scheme, seed):
        pair = random_pair(seed)
        fast, serial = FAST_BUILDERS[scheme]
        for capacity in (2, 5, 8):
            assert fast(pair, capacity) == ScheduleSummary.from_schedule(
                serial(pair, capacity)
            )

    @pytest.mark.parametrize("scheme", sorted(FAST_BUILDERS))
    def test_matches_serial_with_active_subsets(self, scheme):
        pair = random_pair(11)
        fast, serial = FAST_BUILDERS[scheme]
        actives = ([0, 2, 5], [1, 3])
        assert fast(pair, 4, *actives) == ScheduleSummary.from_schedule(
            serial(pair, 4, *actives)
        )

    @pytest.mark.parametrize("scheme", sorted(FAST_BUILDERS))
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_serial_with_repeated_edges(self, scheme, seed):
        # Repeated edges count in remaining degrees but retire once, so
        # a node's remaining degree is not its count of alive edges.
        rng = np.random.default_rng(seed)

        def side(n):
            edges = [tuple(e) for e in rng.integers(0, n, size=(3 * n, 2))]
            return Graph(n, edges + edges[: n // 2] + [(0, 0), (0, 0)])

        pair = GraphPair(side(30), side(40))
        fast, serial = FAST_BUILDERS[scheme]
        for capacity in (2, 6, 64):
            assert fast(pair, capacity) == ScheduleSummary.from_schedule(
                serial(pair, capacity)
            )

    @pytest.mark.parametrize("scheme", sorted(FAST_BUILDERS))
    def test_matches_serial_on_empty_active_side(self, scheme):
        # Regression: an empty active side used to crash the scheduler.
        pair = random_pair(5)
        fast, serial = FAST_BUILDERS[scheme]
        assert fast(pair, 4, [], [1]) == ScheduleSummary.from_schedule(
            serial(pair, 4, [], [1])
        )


def multi_component_pair(seed, components=24):
    """Each side is many small rings and stars: equal remaining degrees
    across components, so cleanup seeds tie often."""
    rng = np.random.default_rng(seed)

    def side():
        edges, offset = [], 0
        for _ in range(components):
            size = int(rng.integers(4, 9))
            if rng.random() < 0.5:
                edges += [(offset + i, offset + (i + 1) % size) for i in range(size)]
            else:
                edges += [(offset, offset + i) for i in range(1, size)]
            offset += size
        return Graph.from_undirected_edges(offset, edges)

    return GraphPair(side(), side())


def every_other(pair):
    """An EMF-style active subset: every third target, every second query."""
    return (
        list(range(0, pair.target.num_nodes, 3)),
        list(range(0, pair.query.num_nodes, 2)),
    )


def top_degree_nodes(tracker):
    """The alive edges' endpoints of top remaining degree, ascending."""
    alive = np.flatnonzero(tracker.alive)
    remaining = zip(tracker.src[alive].tolist(), tracker.dst[alive].tolist())
    nodes = {u for edge in remaining for u in edge}
    degrees = tracker.remains.tolist()
    top = max(degrees[u] for u in nodes)
    return sorted(u for u in nodes if degrees[u] == top)


@pytest.fixture
def seeds_vs_serial(monkeypatch):
    """Holds every cleanup seed to the serial rule, the lowest id among
    the nodes of top remaining degree, and counts the rounds and the
    tied rounds."""
    original = summary_mod._cleanup_seed
    counts = {"rounds": 0, "tied": 0}

    def checked(tracker):
        seed = original(tracker)
        tied = top_degree_nodes(tracker)
        assert seed == tied[0]
        counts["rounds"] += 1
        counts["tied"] += int(len(tied) > 1)
        return seed

    monkeypatch.setattr(summary_mod, "_cleanup_seed", checked)
    return counts


class TestLargePairExactness:
    """Coordinated builds on pairs large enough that cleanup seeds tie.

    Capacities with every node active stay moderate: the serial
    reference takes one step per block pair, which is slow at small
    capacities on hundreds of nodes.
    """

    CASES = {
        "RD-B": (
            lambda: load_dataset("RD-B", seed=0, num_pairs=2),
            (32, 64),
            (16, 32, 64),
        ),
        "COLLAB": (
            lambda: load_dataset("COLLAB", seed=0, num_pairs=2),
            (5, 16, 64),
            (2, 5, 64),
        ),
        "multi-component": (
            lambda: [multi_component_pair(0), multi_component_pair(1)],
            (8, 32, 64),
            (2, 8),
        ),
    }

    @pytest.mark.parametrize("family", sorted(CASES))
    def test_matches_serial(self, family, seeds_vs_serial):
        make_pairs, full_capacities, subset_capacities = self.CASES[family]
        for pair in make_pairs():
            runs = [(capacity, None, None) for capacity in full_capacities]
            runs += [
                (capacity, *every_other(pair)) for capacity in subset_capacities
            ]
            for capacity, targets, queries in runs:
                fast = summarize_coordinated(pair, capacity, targets, queries)
                serial = coordinated_window_schedule(
                    pair, capacity, targets, queries
                )
                assert fast == ScheduleSummary.from_schedule(serial), (
                    family,
                    capacity,
                    targets is not None,
                )
        # Not vacuous: the tie rule decided some round's seed.
        assert seeds_vs_serial["tied"] > 0, seeds_vs_serial


def test_paper_sim_pass_seeds_match_serial(seeds_vs_serial):
    """Every cleanup seed of one quick seed-0 headline pass (the cells
    perfbench's ``paper_sim`` runs) follows the serial rule."""
    from repro.experiments.common import (
        DATASET_ORDER,
        MODEL_ORDER,
        clear_workload_caches,
        workload_results,
        workload_size,
    )
    from repro.platforms import DEFAULT_PLATFORMS

    clear_workload_caches()
    try:
        for model in MODEL_ORDER:
            for dataset in DATASET_ORDER:
                num_pairs, batch_size = workload_size(True, dataset)
                workload_results(
                    model, dataset, DEFAULT_PLATFORMS, num_pairs, batch_size, 0
                )
    finally:
        clear_workload_caches()
    assert seeds_vs_serial["rounds"] > 1000, seeds_vs_serial
    assert 0 < seeds_vs_serial["tied"] < seeds_vs_serial["rounds"]


class TestArrayRoundTrip:
    def test_totals_match_schedule(self):
        pair = paper_example_pair()
        schedule = coordinated_window_schedule(pair, 4)
        summary = ScheduleSummary.from_schedule(schedule)
        assert summary.total_matchings == schedule.total_matchings
        assert summary.total_edges == schedule.total_edges
        assert summary.total_misses == schedule.total_misses
        assert summary.num_steps == len(schedule.steps)


class TestMemoAndStore:
    def test_memo_returns_same_object(self):
        pair = random_pair(21)
        first = schedule_summary_for(pair, "single", 4)
        second = schedule_summary_for(pair, "single", 4)
        assert first is second

    def test_full_table_evicts_oldest_on_miss_only(self, monkeypatch):
        monkeypatch.setattr(summary_mod, "_MEMO_PER_PAIR", 3)
        pair = random_pair(24)
        for key in ("a", "b", "c"):
            memoized(pair, "test", key, lambda key=key: key)
        # A hit on a full table keeps every entry.
        assert memoized(pair, "test", "a", lambda: "rebuilt") == "a"
        assert list(summary_mod._MEMO[pair]["test"]) == ["a", "b", "c"]
        # A miss drops only the oldest entry.
        memoized(pair, "test", "d", lambda: "d")
        assert list(summary_mod._MEMO[pair]["test"]) == ["b", "c", "d"]

    def test_kinds_are_separate_tables(self):
        pair = random_pair(25)
        memoized(pair, "schedule", "k", lambda: "full")
        assert memoized(pair, "summary", "k", lambda: "array") == "array"
        assert memoized(pair, "schedule", "k", lambda: "rebuilt") == "full"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError, match="unknown batched scheme"):
            schedule_summary_for(random_pair(1), "oracle-ish", 4)

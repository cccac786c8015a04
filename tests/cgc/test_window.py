"""Tests for the four window-scheduling schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgc import (
    SCHEDULERS,
    coordinated_window_schedule,
    joint_window_schedule,
    single_window_schedule,
)
from repro.graphs import Graph, GraphPair, erdos_renyi_graph


def paper_example_pair():
    """The running example of Figs. 5/8/12: a 4-node target graph and a
    6-node query graph."""
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


ALL_SCHEMES = sorted(SCHEDULERS)
# Hypothesis sweeps skip the rollout-based oracle scheme (quadratic).
FAST_SCHEMES = sorted(set(SCHEDULERS) - {"oracle"})


class TestCoverage:
    """Every scheme must process all edges and all matchings exactly once."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_full_coverage_on_example(self, scheme):
        pair = paper_example_pair()
        schedule = SCHEDULERS[scheme](pair, capacity=4)
        assert schedule.total_matchings == 4 * 6
        assert schedule.total_edges == pair.target.num_edges + pair.query.num_edges

    @pytest.mark.parametrize("scheme", FAST_SCHEMES)
    @pytest.mark.parametrize("capacity", [2, 4, 6, 32])
    def test_full_coverage_random(self, scheme, capacity):
        pair = random_pair(7)
        schedule = SCHEDULERS[scheme](pair, capacity)
        assert schedule.total_matchings == pair.num_matching_pairs
        assert schedule.total_edges == pair.target.num_edges + pair.query.num_edges

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_window_capacity_respected(self, scheme):
        pair = random_pair(3)
        schedule = SCHEDULERS[scheme](pair, capacity=6)
        for step in schedule.steps:
            assert len(step.input_nodes) <= 6

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_capacity_validation(self, scheme):
        with pytest.raises(ValueError):
            SCHEDULERS[scheme](paper_example_pair(), capacity=1)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_property_coverage_all_schemes(self, seed):
        pair = random_pair(seed, n_t=6, n_q=8, e_t=8, e_q=10)
        for scheme in FAST_SCHEMES:
            schedule = SCHEDULERS[scheme](pair, capacity=4)
            assert schedule.total_matchings == pair.num_matching_pairs
            assert (
                schedule.total_edges
                == pair.target.num_edges + pair.query.num_edges
            )


class TestMissAccounting:
    def test_first_step_misses_everything(self):
        schedule = joint_window_schedule(paper_example_pair(), capacity=4)
        first = schedule.steps[0]
        assert first.misses == len(first.input_nodes)

    def test_stationary_side_not_recounted(self):
        """Joint window property (1): only one side changes per step, so
        per-step misses during the sweep are at most half the window."""
        schedule = joint_window_schedule(paper_example_pair(), capacity=4)
        sweep_steps = [s for s in schedule.steps[1:] if s.kind == "joint"]
        assert all(step.misses <= 2 for step in sweep_steps)

    def test_total_misses_lower_bounded_by_distinct_nodes(self):
        pair = paper_example_pair()
        for scheme in ALL_SCHEMES:
            schedule = SCHEDULERS[scheme](pair, capacity=4)
            assert schedule.total_misses >= pair.total_nodes

    def test_node_reference_stream_matches_steps(self):
        schedule = coordinated_window_schedule(paper_example_pair(), capacity=4)
        stream = schedule.node_reference_stream()
        assert len(stream) == sum(len(s.input_nodes) for s in schedule.steps)


class TestSchemeOrdering:
    """The paper's qualitative results: the baseline schemes are nearly
    tied (26 vs 25 misses on the worked example), while the joint and
    coordinated windows substantially reduce misses."""

    def test_example_ordering(self):
        pair = paper_example_pair()
        misses = {
            scheme: SCHEDULERS[scheme](pair, capacity=4).total_misses
            for scheme in ALL_SCHEMES
        }
        assert misses["coordinated"] <= misses["joint"]
        assert misses["joint"] < misses["single"]
        assert misses["joint"] < misses["double"]
        # single vs double are within a couple of misses of each other.
        assert abs(misses["single"] - misses["double"]) <= 3

    @given(seed=st.integers(0, 40))
    @settings(max_examples=12, deadline=None)
    def test_property_joint_beats_single(self, seed):
        pair = random_pair(seed, n_t=8, n_q=8, e_t=10, e_q=10)
        joint = joint_window_schedule(pair, capacity=4).total_misses
        single = single_window_schedule(pair, capacity=4).total_misses
        assert joint <= single

    def test_large_capacity_single_load_for_fused_schemes(self):
        """When the whole pair fits on-chip, the fused (joint and
        coordinated) schemes load each node exactly once. The staged
        baseline schemes reload for the matching stage even then — the
        inter-stage locality loss CEGMA removes."""
        pair = paper_example_pair()
        for scheme in ("joint", "coordinated"):
            schedule = SCHEDULERS[scheme](pair, capacity=64)
            assert schedule.total_misses == pair.total_nodes
        single = SCHEDULERS["single"](pair, capacity=64)
        assert single.total_misses > pair.total_nodes


class TestActiveSets:
    """EMF integration: matching restricted to unique nodes."""

    def test_matchings_reduced(self):
        pair = paper_example_pair()
        schedule = coordinated_window_schedule(
            pair, capacity=4, active_targets=[0, 2], active_queries=[0, 1, 3]
        )
        assert schedule.total_matchings == 2 * 3
        # All edges still processed (embedding is unaffected by EMF).
        assert schedule.total_edges == pair.target.num_edges + pair.query.num_edges

    def test_fewer_active_nodes_fewer_misses(self):
        pair = random_pair(11, n_t=16, n_q=16, e_t=20, e_q=20)
        full = coordinated_window_schedule(pair, capacity=8).total_misses
        filtered = coordinated_window_schedule(
            pair,
            capacity=8,
            active_targets=range(4),
            active_queries=range(4),
        ).total_misses
        assert filtered < full

    def test_empty_active_sides_still_process_edges(self):
        pair = paper_example_pair()
        schedule = single_window_schedule(
            pair, capacity=4, active_targets=[0], active_queries=[0]
        )
        assert schedule.total_matchings == 1
        assert schedule.total_edges == pair.target.num_edges + pair.query.num_edges


class TestCleanup:
    def test_cross_block_edges_land_in_cleanup(self):
        # A path graph with capacity 2 forces cross-block edges.
        target = Graph.from_undirected_edges(4, [(0, 1), (1, 2), (2, 3)])
        query = Graph.from_undirected_edges(2, [(0, 1)])
        pair = GraphPair(target, query)
        schedule = joint_window_schedule(pair, capacity=2)
        kinds = {step.kind for step in schedule.steps}
        assert "cleanup" in kinds
        assert schedule.total_edges == pair.target.num_edges + pair.query.num_edges

    def test_no_cleanup_when_everything_coresident(self):
        target = Graph.from_undirected_edges(2, [(0, 1)])
        query = Graph.from_undirected_edges(2, [(0, 1)])
        pair = GraphPair(target, query)
        schedule = joint_window_schedule(pair, capacity=4)
        assert all(step.kind != "cleanup" for step in schedule.steps)


class TestDegenerateInputs:
    """Regression tests for the degenerate-input contract.

    The double/coordinated/oracle schedulers used to raise IndexError on
    pairs with an empty side; now every scheme must either produce a
    valid schedule or raise a clear ValueError (capacity < 2 only).
    """

    def _assert_valid(self, pair, schedule, capacity):
        assert schedule.total_matchings == pair.num_matching_pairs
        assert (
            schedule.total_edges
            == pair.target.num_edges + pair.query.num_edges
        )
        for step in schedule.steps:
            assert len(step.input_nodes) <= capacity

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize(
        "n_t,edges_t,n_q,edges_q",
        [
            (4, [(0, 1)], 0, []),  # empty query
            (0, [], 4, [(0, 1)]),  # empty target
            (0, [], 0, []),  # both empty
            (1, [], 1, []),  # single nodes, no edges
            (5, [], 4, []),  # edgeless
        ],
    )
    def test_empty_and_edgeless_sides(self, scheme, n_t, edges_t, n_q, edges_q):
        pair = GraphPair(
            Graph.from_undirected_edges(n_t, edges_t),
            Graph.from_undirected_edges(n_q, edges_q),
        )
        schedule = SCHEDULERS[scheme](pair, capacity=4)
        self._assert_valid(pair, schedule, 4)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("capacity", [3, 5, 7])
    def test_odd_capacity_spare_slot_unused(self, scheme, capacity):
        # Odd capacities split as capacity // 2 per side; the spare slot
        # stays empty rather than unbalancing the documented schedule.
        pair = paper_example_pair()
        schedule = SCHEDULERS[scheme](pair, capacity)
        self._assert_valid(pair, schedule, capacity)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_graph_smaller_than_half_window(self, scheme):
        # A 2-node target under capacity 8 leaves half the window
        # underfilled; the schedule must stay valid, not pad or wrap.
        pair = GraphPair(
            Graph.from_undirected_edges(2, [(0, 1)]),
            Graph.from_undirected_edges(9, [(i, i + 1) for i in range(8)]),
        )
        schedule = SCHEDULERS[scheme](pair, capacity=8)
        self._assert_valid(pair, schedule, 8)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("capacity", [-3, 0, 1])
    def test_sub_two_capacity_raises_value_error(self, scheme, capacity):
        with pytest.raises(ValueError, match="at least 2"):
            SCHEDULERS[scheme](paper_example_pair(), capacity)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_empty_side_schedule_has_no_matchings(self, scheme):
        pair = GraphPair(
            Graph.from_undirected_edges(4, [(0, 1), (2, 3)]),
            Graph.from_undirected_edges(0, []),
        )
        schedule = SCHEDULERS[scheme](pair, capacity=4)
        assert schedule.total_matchings == 0
        assert all(step.num_matchings == 0 for step in schedule.steps)
        assert schedule.total_edges == pair.target.num_edges

    def test_oracle_decisions_empty_side(self):
        from repro.cgc.oracle import oracle_decisions

        pair = GraphPair(
            Graph.from_undirected_edges(3, [(0, 1)]),
            Graph.from_undirected_edges(0, []),
        )
        assert oracle_decisions(pair, capacity=4) == []

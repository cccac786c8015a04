"""Cross-cutting property-based tests (hypothesis).

Each class pins one invariant the reproduction leans on. These
complement the per-module tests with randomized coverage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cgc import SCHEDULERS, batch_coordinated_schedule
from repro.counters import FlopCounter
from repro.emf import (
    MatchingPlan,
    approximate_matching_filter,
    e2lsh_matching_filter,
    elastic_matching_filter,
)
from repro.emf import filter as filter_mod
from repro.graphs import GraphPair, GraphPairBatch, erdos_renyi_graph
from repro.models import similarity_matrix
from repro.sim import DRAMModel
from repro.validate.workloads import feature_matrices


def _pair(seed, n_t=6, n_q=7):
    rng = np.random.default_rng(seed)
    return GraphPair(
        erdos_renyi_graph(n_t, n_t + 2, rng),
        erdos_renyi_graph(n_q, n_q + 3, rng),
    )


class TestFilterProperties:
    @given(
        features=arrays(
            np.float64, (12, 3), elements=st.floats(-3, 3, width=16)
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_idempotent_on_unique_rows(self, features):
        """Re-filtering the unique rows finds no further duplicates."""
        first = elastic_matching_filter(features)
        unique = features[first.unique_indices]
        second = elastic_matching_filter(unique)
        assert second.num_duplicates == 0

    @given(
        features=arrays(
            np.float64, (10, 2), elements=st.floats(-2, 2, width=16)
        ),
        permutation_seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_unique_count_permutation_invariant(
        self, features, permutation_seed
    ):
        """Which nodes are unique depends on order; how many does not."""
        rng = np.random.default_rng(permutation_seed)
        shuffled = features[rng.permutation(len(features))]
        assert (
            elastic_matching_filter(features).num_unique
            == elastic_matching_filter(shuffled).num_unique
        )

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_multiplicities_sum_to_node_count(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(3, 4))
        features = base[rng.integers(0, 3, size=15)]
        result = elastic_matching_filter(features)
        assert result.multiplicities().sum() == result.num_nodes

    @pytest.mark.parametrize(
        "method", ["bytes", "xxhash", "xxhash_colliding", "simhash", "e2lsh"]
    )
    def test_array_invariants(self, method, monkeypatch):
        """Every filter method's result is one consistent grouping:
        ascending representatives, each its own slot, each node mapped
        to a representative at or before it, and the broadcasts equal
        the dense gathers through the TagMap."""
        if method == "xxhash_colliding":
            # Every tag collides, so nodes that differ from node 0 are
            # hash conflicts and stay unique.
            monkeypatch.setattr(
                filter_mod,
                "hash_feature_matrix",
                lambda x, seed=0, decimals=None: np.zeros(len(x), np.uint32),
            )
        run = {
            "bytes": lambda x: elastic_matching_filter(x, method="bytes"),
            "xxhash": lambda x: elastic_matching_filter(x, method="xxhash"),
            "xxhash_colliding": lambda x: elastic_matching_filter(
                x, method="xxhash"
            ),
            "simhash": approximate_matching_filter,
            "e2lsh": e2lsh_matching_filter,
        }[method]
        rng = np.random.default_rng(0)
        conflicts = 0
        for features in feature_matrices(seed=4):
            result = run(features)
            unique = np.asarray(result.unique_indices, dtype=np.int64)
            nodes = np.arange(result.num_nodes)
            assert result.num_nodes == len(features)
            assert np.all(np.diff(unique) > 0)
            assert result.inverse.dtype == np.int64
            assert np.array_equal(
                result.inverse[unique], np.arange(result.num_unique)
            )
            assert np.all(unique[result.inverse] <= nodes)
            assert result.multiplicities().sum() == result.num_nodes
            if result.tags is not None:
                assert result.tags.dtype == np.uint32
                assert len(result.tags) == result.num_unique
            holders = [result.tag_map.get(i, i) for i in nodes.tolist()]
            rows = rng.normal(size=(result.num_nodes, 3))
            assert np.array_equal(
                result.expand_rows(rows[unique]), rows[holders]
            )
            full = rng.normal(size=(result.num_nodes, result.num_nodes))
            plan = MatchingPlan(result, result)
            assert np.array_equal(
                plan.broadcast(full[np.ix_(unique, unique)]),
                full[np.ix_(holders, holders)],
            )
            conflicts += result.hash_conflicts
        assert (conflicts > 0) == (method == "xxhash_colliding")


class TestBroadcastProperties:
    @given(
        seed=st.integers(0, 200),
        kind=st.sampled_from(["dot", "cosine", "euclidean"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_broadcast_always_lossless_on_replicated_rows(self, seed, kind):
        rng = np.random.default_rng(seed)
        base_x = rng.normal(size=(4, 5))
        base_y = rng.normal(size=(3, 5))
        x = base_x[rng.integers(0, 4, size=9)]
        y = base_y[rng.integers(0, 3, size=8)]
        plan = MatchingPlan.from_features(x, y)
        full = similarity_matrix(x, y, kind)
        assert np.array_equal(
            plan.broadcast(plan.unique_similarity(full)), full
        )


class TestSchedulerProperties:
    # The oracle scheme is excluded from the hypothesis sweeps: its
    # per-decision rollouts are quadratic and it is a reference point,
    # not a dataflow. Its coverage is pinned by a direct test below.
    FAST_SCHEMES = ("single", "double", "joint", "coordinated")

    @given(seed=st.integers(0, 60), capacity=st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=20, deadline=None)
    def test_every_scheme_covers_workload(self, seed, capacity):
        pair = _pair(seed)
        expected_edges = pair.target.num_edges + pair.query.num_edges
        for scheme in self.FAST_SCHEMES:
            schedule = SCHEDULERS[scheme](pair, capacity)
            assert schedule.total_matchings == pair.num_matching_pairs, scheme
            assert schedule.total_edges == expected_edges, scheme

    def test_oracle_scheme_covers_workload(self):
        pair = _pair(7)
        schedule = SCHEDULERS["oracle"](pair, 4)
        assert schedule.total_matchings == pair.num_matching_pairs
        assert (
            schedule.total_edges
            == pair.target.num_edges + pair.query.num_edges
        )

    @given(seed=st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_misses_monotone_in_capacity(self, seed):
        """More buffer never hurts the coordinated schedule much: the
        total misses at double capacity stay at or below the misses at
        the smaller capacity (allowing equality)."""
        pair = _pair(seed)
        small = SCHEDULERS["coordinated"](pair, 4).total_misses
        large = SCHEDULERS["coordinated"](pair, 16).total_misses
        assert large <= small

    @given(seed=st.integers(0, 40), batch_size=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_batch_schedule_equals_sum_of_pairs(self, seed, batch_size):
        pairs = [_pair(seed * 10 + i) for i in range(batch_size)]
        batch = GraphPairBatch(pairs)
        schedule = batch_coordinated_schedule(batch, capacity=6)
        assert schedule.total_matchings == batch.num_matching_pairs
        assert schedule.total_edges == batch.num_intra_edges


class TestCounterProperties:
    @given(
        values=st.lists(
            st.tuples(
                st.sampled_from(["aggregate", "combine", "match", "other"]),
                st.integers(0, 10_000),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_total_equals_sum_of_adds(self, values):
        counter = FlopCounter()
        for phase, amount in values:
            counter.add(phase, amount)
        assert counter.total == sum(amount for _, amount in values)

    @given(a=st.integers(0, 1000), b=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_merge_commutes(self, a, b):
        x, y = FlopCounter(), FlopCounter()
        x.add("match", a)
        y.add("match", b)
        assert x.merged(y).counts == y.merged(x).counts


class TestDRAMProperties:
    @given(
        size_a=st.integers(1, 1 << 20),
        size_b=st.integers(1, 1 << 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_cycles_monotone_in_bytes(self, size_a, size_b):
        model = DRAMModel()
        lo, hi = sorted((size_a, size_b))
        assert model.access_cycles(lo) <= model.access_cycles(hi)

    @given(size=st.integers(1, 1 << 20))
    @settings(max_examples=30, deadline=None)
    def test_effective_bandwidth_bounded_by_peak(self, size):
        model = DRAMModel()
        for sequential in (True, False):
            assert (
                model.effective_bandwidth(size, sequential)
                <= model.bandwidth_bytes_per_cycle
            )


class TestGraphProperties:
    @given(n=st.integers(1, 20), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_degree_sums_match_edges(self, n, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_graph(n, 2 * n, rng)
        assert g.in_degree().sum() == g.num_edges
        assert g.out_degree().sum() == g.num_edges

    @given(n=st.integers(2, 15), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_normalized_adjacency_spectral_bound(self, n, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_graph(n, n, rng)
        eigenvalues = np.linalg.eigvalsh(g.normalized_adjacency())
        assert eigenvalues.max() <= 1.0 + 1e-9
        assert eigenvalues.min() >= -1.0 - 1e-9

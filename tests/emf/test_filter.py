"""Tests for the Elastic Matching Filter (Algorithm 1) and MatchingPlan."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emf import MatchingPlan, elastic_matching_filter, quantize_features
from repro.emf import filter as filter_mod
from repro.emf.filter import _filter_scalar
from repro.models import similarity_matrix
from repro.validate.workloads import feature_matrices


def _xxhash_digest(path, features, verify_conflicts=True):
    """The xxhash method through the production batch digest
    (``"vectorized"``) or the scalar XXH32 reference loop (``"scalar"``)."""
    if path == "vectorized":
        return elastic_matching_filter(
            features, method="xxhash", verify_conflicts=verify_conflicts
        )
    return _filter_scalar(quantize_features(features), 0, verify_conflicts)


class TestAlgorithm1:
    def test_all_unique(self):
        features = np.eye(4)
        result = elastic_matching_filter(features)
        assert result.num_unique == 4
        assert result.num_duplicates == 0
        assert result.unique_fraction == 1.0

    def test_all_duplicates_of_first(self):
        features = np.ones((5, 3))
        result = elastic_matching_filter(features)
        assert result.num_unique == 1
        assert result.unique_indices == [0]
        assert result.tag_map == {1: 0, 2: 0, 3: 0, 4: 0}

    def test_first_occurrence_is_unique(self):
        """Paper's Fig. 10 example: node 1 recorded, node 2 affiliated."""
        features = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        result = elastic_matching_filter(features)
        assert 0 in result.unique_indices
        assert result.tag_map == {1: 0}
        assert result.representative(1) == 0
        assert result.representative(2) == 2

    def test_mixed_duplicate_groups(self):
        features = np.array([[1.0], [2.0], [1.0], [2.0], [3.0]])
        result = elastic_matching_filter(features)
        assert result.num_unique == 3
        assert result.tag_map == {2: 0, 3: 1}

    def test_empty_feature_matrix(self):
        result = elastic_matching_filter(np.zeros((0, 4)))
        assert result.num_unique == 0
        assert result.unique_fraction == 1.0

    def test_one_d_input_rejected(self):
        with pytest.raises(ValueError):
            elastic_matching_filter(np.ones(4))

    def test_near_equal_features_merged_by_quantization(self):
        features = np.array([[1.0, 2.0], [1.0 + 1e-9, 2.0 - 1e-9]])
        result = elastic_matching_filter(features)
        assert result.num_unique == 1

    def test_no_conflicts_on_random_features(self):
        rng = np.random.default_rng(0)
        result = elastic_matching_filter(rng.normal(size=(500, 16)))
        assert result.hash_conflicts == 0
        assert result.num_unique == 500

    @given(dup_groups=st.integers(1, 5), group_size=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_property_counts_consistent(self, dup_groups, group_size):
        rng = np.random.default_rng(dup_groups * 31 + group_size)
        base = rng.normal(size=(dup_groups, 4))
        features = np.repeat(base, group_size, axis=0)
        result = elastic_matching_filter(features)
        assert result.num_unique == dup_groups
        assert result.num_unique + result.num_duplicates == result.num_nodes


class TestMatchingPlan:
    def _plan(self, x, y):
        return MatchingPlan.from_features(x, y)

    def test_workload_counts(self):
        x = np.repeat(np.eye(2), 3, axis=0)  # 6 nodes, 2 unique
        y = np.eye(4)  # 4 unique nodes
        plan = self._plan(x, y)
        assert plan.total_matchings == 24
        assert plan.unique_matchings == 8
        assert plan.redundant_matchings == 16
        assert plan.remaining_fraction == pytest.approx(8 / 24)

    def test_empty_graph_remaining_fraction(self):
        plan = self._plan(np.zeros((0, 2)), np.eye(2))
        assert plan.remaining_fraction == 1.0

    @pytest.mark.parametrize("kind", ["dot", "cosine", "euclidean"])
    def test_broadcast_reconstructs_exactly(self, kind):
        """The EMF's core accuracy guarantee: filtering is lossless."""
        rng = np.random.default_rng(3)
        base_x = rng.normal(size=(4, 8))
        base_y = rng.normal(size=(3, 8))
        x = base_x[rng.integers(0, 4, size=10)]
        y = base_y[rng.integers(0, 3, size=7)]
        plan = self._plan(x, y)
        full = similarity_matrix(x, y, kind)
        rebuilt = plan.broadcast(plan.unique_similarity(full))
        assert np.array_equal(full, rebuilt)

    def test_broadcast_shape_validated(self):
        plan = self._plan(np.ones((3, 2)), np.eye(2))
        with pytest.raises(ValueError):
            plan.broadcast(np.zeros((5, 5)))

    def test_unique_similarity_selects_unique_rows_cols(self):
        x = np.array([[1.0], [1.0], [2.0]])
        y = np.array([[3.0], [3.0]])
        plan = self._plan(x, y)
        full = similarity_matrix(x, y, "dot")
        unique = plan.unique_similarity(full)
        assert unique.shape == (2, 1)
        assert unique[0, 0] == 3.0
        assert unique[1, 0] == 6.0

    @given(n=st.integers(1, 12), m=st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_property_unique_never_exceeds_total(self, n, m):
        rng = np.random.default_rng(n * 13 + m)
        x = rng.integers(0, 3, size=(n, 2)).astype(float)
        y = rng.integers(0, 3, size=(m, 2)).astype(float)
        plan = self._plan(x, y)
        assert 0 < plan.unique_matchings <= plan.total_matchings
        assert 0.0 < plan.remaining_fraction <= 1.0


class TestMethodEquivalence:
    """The fast byte-keyed path must agree with the hardware-faithful
    XXH32 path whenever XXH32 is conflict-free (every observed case)."""

    def test_methods_agree_on_duplicated_features(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(6, 8))
        features = base[rng.integers(0, 6, size=40)]
        fast = elastic_matching_filter(features, method="bytes")
        slow = elastic_matching_filter(features, method="xxhash")
        assert fast.tag_map == slow.tag_map
        assert fast.unique_indices == slow.unique_indices

    def test_methods_agree_on_random_features(self):
        rng = np.random.default_rng(6)
        features = rng.normal(size=(50, 4))
        fast = elastic_matching_filter(features, method="bytes")
        slow = elastic_matching_filter(features, method="xxhash")
        assert fast.tag_map == slow.tag_map == {}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            elastic_matching_filter(np.ones((2, 2)), method="md5")


class TestHashConflictHandling:
    def test_conflicting_tags_treated_as_unique(self, monkeypatch):
        """When two distinct feature vectors collide (forced here by a
        constant hash), verification must catch the conflict and keep
        both nodes unique — trading performance, never accuracy."""
        import repro.emf.filter as filter_module

        monkeypatch.setattr(
            filter_module, "hash_feature_vector", lambda *a, **k: 42
        )
        features = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
        result = _xxhash_digest("scalar", features)
        assert result.hash_conflicts >= 1
        assert result.representative(1) == 1  # distinct row stays unique
        # Node 2 duplicates node 0's features but the constant hash maps
        # it to the first holder; verification confirms equality.
        assert result.representative(2) == 0

    def test_conflicting_tags_treated_as_unique_vectorized(self, monkeypatch):
        """Same conflict guarantee on the production batch digest
        (collision forced by a constant batch hash)."""
        import repro.emf.filter as filter_module

        monkeypatch.setattr(
            filter_module,
            "hash_feature_matrix",
            lambda features, *a, **k: np.full(
                features.shape[0], 42, dtype=np.uint32
            ),
        )
        features = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
        result = _xxhash_digest("vectorized", features)
        assert result.hash_conflicts >= 1
        assert result.representative(1) == 1
        assert result.representative(2) == 0

    def test_conflicts_disabled_without_verification(self, monkeypatch):
        import repro.emf.filter as filter_module

        monkeypatch.setattr(
            filter_module, "hash_feature_vector", lambda *a, **k: 42
        )
        features = np.array([[1.0, 2.0], [3.0, 4.0]])
        result = _xxhash_digest("scalar", features, verify_conflicts=False)
        # Without verification the collision silently merges -- the mode
        # the hardware uses because real conflicts are ~1e-7.
        assert result.hash_conflicts == 0
        assert result.representative(1) == 0

    def test_conflicts_disabled_without_verification_vectorized(
        self, monkeypatch
    ):
        import repro.emf.filter as filter_module

        monkeypatch.setattr(
            filter_module,
            "hash_feature_matrix",
            lambda features, *a, **k: np.full(
                features.shape[0], 42, dtype=np.uint32
            ),
        )
        features = np.array([[1.0, 2.0], [3.0, 4.0]])
        result = _xxhash_digest("vectorized", features, verify_conflicts=False)
        assert result.hash_conflicts == 0
        assert result.representative(1) == 0

    def test_unknown_backend_rejected(self):
        """The method picks the path; there is no backend switch."""
        with pytest.raises(TypeError, match="backend"):
            elastic_matching_filter(np.ones((2, 2)), backend="gpu")


class TestBitwiseVerification:
    """Conflict verification compares quantized feature *bytes* (the
    stream the hash digests), not values — regression tests for the
    NaN divergence between the bytes and xxhash methods."""

    NAN_FEATURES = np.array(
        [[np.nan, 1.0], [np.nan, 1.0], [2.0, 3.0]]
    )

    @pytest.mark.parametrize("path", ["scalar", "vectorized"])
    def test_bit_identical_nan_rows_are_duplicates(self, path):
        result = _xxhash_digest(path, self.NAN_FEATURES)
        assert result.hash_conflicts == 0
        assert result.representative(1) == 0
        assert result.tag_map == {1: 0}

    @pytest.mark.parametrize("path", ["scalar", "vectorized"])
    def test_methods_agree_on_nan_rows(self, path):
        by_bytes = elastic_matching_filter(self.NAN_FEATURES, method="bytes")
        by_hash = _xxhash_digest(path, self.NAN_FEATURES)
        assert by_bytes.unique_indices == by_hash.unique_indices
        assert by_bytes.tag_map == by_hash.tag_map

    @pytest.mark.parametrize("path", ["scalar", "vectorized"])
    def test_distinct_nan_payload_columns_stay_unique(self, path):
        # Rows differ only in a non-NaN column; bitwise comparison must
        # not over-merge them.
        features = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        result = _xxhash_digest(path, features)
        assert result.num_unique == 2
        assert result.hash_conflicts == 0


_DIGEST_SCRIPT = """
import json
import numpy as np
from repro.emf import (
    approximate_matching_filter, e2lsh_matching_filter, elastic_matching_filter,
)
from repro.validate.workloads import feature_matrices

FILTERS = {
    "bytes": lambda x: elastic_matching_filter(x, method="bytes"),
    "xxhash": lambda x: elastic_matching_filter(x, method="xxhash"),
    "simhash": approximate_matching_filter,
    "e2lsh": e2lsh_matching_filter,
}
rng = np.random.default_rng(0)
matrices = feature_matrices(seed=1) + [rng.normal(size=(4, 3))[[0, 1, 0, 2, 1, 3]]]
digests = {}
for name, run in FILTERS.items():
    digests[name] = []
    for features in matrices:
        result = run(features)
        digests[name].append([
            result.unique_indices,
            sorted(result.tag_map.items()),
            None if result.tags is None else result.tags.tolist(),
        ])
print(json.dumps(digests))
"""


@pytest.fixture(scope="module")
def digests_by_hash_seed(tmp_path_factory):
    """Every filter method's results in two interpreters whose Python
    hash salts differ."""
    source = Path(__file__).resolve().parents[2] / "src"
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source), env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            cwd=tmp_path_factory.mktemp("digest"),
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        runs.append(json.loads(completed.stdout.splitlines()[-1]))
    return runs


class TestCrossProcessDeterminism:
    """Unique nodes, the TagMap and the tags are the same in every
    process: none of them may depend on Python's per-process hash salt."""

    @pytest.mark.parametrize("method", ["bytes", "xxhash", "simhash", "e2lsh"])
    def test_same_results_under_different_hash_seeds(
        self, digests_by_hash_seed, method
    ):
        first, second = digests_by_hash_seed
        assert first[method] == second[method]


def _dict_loop(quantized):
    return filter_mod.first_occurrence([row.tobytes() for row in quantized])


def _assert_groups_like_loop(quantized):
    reference = _dict_loop(quantized)
    grouped = filter_mod._group_rows(quantized)
    assert grouped is not None
    for left, right in zip(grouped, reference):
        assert left.dtype == right.dtype == np.int64
        assert np.array_equal(left, right)
    result = filter_mod._filter_bytes(quantized)
    assert np.array_equal(result.unique_indices, reference[0])
    assert np.array_equal(result.inverse, reference[1])


class TestBytesArrayKey:
    """The bytes method's hashed array key equals the dict loop over
    row bytes, which stays its reference and its fallback."""

    @pytest.mark.parametrize("copies", [1, 7, 30])
    def test_matches_loop_on_workload_matrices(self, copies):
        # Tiled copies reach the row count at which _filter_bytes
        # takes the array key; NaN rows and signed zeros included.
        for features in feature_matrices(seed=6):
            quantized = np.tile(quantize_features(features), (copies, 1))
            _assert_groups_like_loop(quantized)

    def test_nan_rows_group_bitwise(self):
        rows = np.array([[np.nan, 1.0], [1.0, 2.0], [np.nan, 1.0], [-np.nan, 1.0]])
        quantized = np.tile(rows, (20, 1))
        _assert_groups_like_loop(quantized)
        assert filter_mod._group_rows(quantized)[0].tolist() == [0, 1, 3]

    def test_rows_one_ulp_apart_stay_distinct(self):
        rng = np.random.default_rng(8)
        base = quantize_features(rng.normal(size=(40, 6)))
        nudged = base.copy()
        nudged[:, 3] = np.nextafter(nudged[:, 3], np.inf)
        quantized = np.concatenate([base, nudged, base])
        _assert_groups_like_loop(quantized)
        assert filter_mod._group_rows(quantized)[0].size == 80

    def test_forced_collision_takes_the_loop(self, monkeypatch):
        monkeypatch.setattr(
            filter_mod,
            "_row_hash",
            lambda bits: np.zeros(bits.shape[0], dtype=np.uint64),
        )
        rng = np.random.default_rng(9)
        base = rng.normal(size=(5, 4))
        quantized = quantize_features(base[rng.integers(0, 5, size=100)])
        assert filter_mod._group_rows(quantized) is None
        result = filter_mod._filter_bytes(quantized)
        reference = _dict_loop(quantized)
        assert np.array_equal(result.unique_indices, reference[0])
        assert np.array_equal(result.inverse, reference[1])

    def test_small_matrices_keep_the_loop(self, monkeypatch):
        calls = []
        original = filter_mod._group_rows
        monkeypatch.setattr(
            filter_mod,
            "_group_rows",
            lambda quantized: calls.append(len(quantized)) or original(quantized),
        )
        small = filter_mod._GROUP_ROWS_MIN - 1
        elastic_matching_filter(np.ones((small, 3)))
        elastic_matching_filter(np.ones((small + 1, 3)))
        assert calls == [small + 1]

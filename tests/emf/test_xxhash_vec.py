"""Vectorized XXH32 / EMF batch digest equivalence tests.

The batch path must be bit-identical to the scalar reference: same
XXH32 words on the official test vectors, same tags on arbitrary
feature matrices (including NaN and signed zeros), and the same
FilterResult record/tag maps through the full filter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emf import (
    elastic_matching_filter,
    hash_feature_matrix,
    hash_feature_vector,
    quantize_features,
    xxh32,
    xxh32_batch,
)
from repro.emf.filter import _filter_scalar


def _as_matrix(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8).reshape(1, -1)


class TestBatchReferenceVectors:
    """Official XXH32 vectors (github.com/Cyan4973/xxHash) via the
    batch kernel, one (1, L) matrix per vector."""

    @pytest.mark.parametrize(
        "data,seed,expected",
        [
            (b"", 0, 0x02CC5D05),
            (b"a", 0, 0x550D7456),
            (b"abc", 0, 0x32D153FF),
            (b"Nobody inspects the spammish repetition", 0, 0xE2293B2F),
        ],
    )
    def test_vector(self, data, seed, expected):
        result = xxh32_batch(_as_matrix(data), seed)
        assert result.dtype == np.uint32
        assert result.shape == (1,)
        assert int(result[0]) == expected

    @pytest.mark.parametrize(
        "length", [0, 1, 3, 4, 15, 16, 17, 31, 32, 33, 100]
    )
    def test_all_tail_lengths_match_scalar(self, length):
        """Covers the 16-byte stripe loop, the 4-byte tail, and the
        byte tail against the scalar reference."""
        rng = np.random.default_rng(length)
        rows = rng.integers(0, 256, size=(7, length), dtype=np.uint8)
        batch = xxh32_batch(rows, seed=3)
        for row, tag in zip(rows, batch):
            assert int(tag) == xxh32(row.tobytes(), seed=3)

    @given(
        num_rows=st.integers(1, 20),
        length=st.integers(0, 70),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_scalar(self, num_rows, length, seed):
        rng = np.random.default_rng(num_rows * 1009 + length)
        rows = rng.integers(0, 256, size=(num_rows, length), dtype=np.uint8)
        batch = xxh32_batch(rows, seed=seed)
        expected = [xxh32(row.tobytes(), seed=seed) for row in rows]
        assert batch.tolist() == expected


class TestHashFeatureMatrix:
    def test_matches_per_row_hashing(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(64, 16))
        batch = hash_feature_matrix(features, seed=5)
        expected = [hash_feature_vector(row, seed=5) for row in features]
        assert batch.tolist() == expected

    def test_special_values_match_scalar(self):
        """NaN, +-0.0, and +-inf survive quantization identically on
        both paths (same bit patterns hashed)."""
        features = np.array(
            [
                [np.nan, 0.0, 1.0],
                [np.nan, -0.0, 1.0],
                [np.inf, -np.inf, 2.0],
                [0.0, -0.0, 1.0 + 1e-9],
            ]
        )
        batch = hash_feature_matrix(features)
        expected = [hash_feature_vector(row) for row in features]
        assert batch.tolist() == expected
        # Signed zeros quantize to the same bits, so rows 0 and 1 tie.
        assert batch[0] == batch[1]

    def test_empty_matrices(self):
        assert hash_feature_matrix(np.zeros((0, 4))).shape == (0,)
        wide = hash_feature_matrix(np.zeros((3, 0)))
        assert wide.shape == (3,)
        # Zero-width rows all hash the empty byte string.
        assert len(set(wide.tolist())) == 1
        assert int(wide[0]) == xxh32(b"")

    def test_duplicated_rows_share_tags(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(8, 8))
        features = base[rng.integers(0, 8, size=50)]
        tags = hash_feature_matrix(features)
        scalar = np.array([hash_feature_vector(row) for row in features])
        assert np.array_equal(tags, scalar)

    @given(n=st.integers(0, 12), d=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_scalar(self, n, d):
        rng = np.random.default_rng(n * 31 + d)
        features = rng.normal(size=(n, d))
        batch = hash_feature_matrix(features)
        expected = [hash_feature_vector(row) for row in features]
        assert batch.tolist() == expected


class TestQuantizeFeatures:
    def test_negative_zero_normalized(self):
        out = quantize_features(np.array([[-0.0, 0.0]]))
        assert np.all(np.signbit(out) == False)  # noqa: E712

    def test_none_decimals_passthrough(self):
        features = np.array([[1.23456789]])
        assert np.array_equal(
            quantize_features(features, decimals=None), features
        )

    def test_rounding(self):
        out = quantize_features(np.array([[1.004, 1.006]]), decimals=2)
        assert out[0, 0] == 1.0
        assert out[0, 1] == pytest.approx(1.01)


class TestBackendEquivalence:
    """Each method's production filter partitions nodes exactly as the
    scalar XXH32 reference loop does; the xxhash method's batch digest
    also matches its tags and conflict count bit for bit."""

    @staticmethod
    def _assert_matches_reference(features, method, verify=True):
        production = elastic_matching_filter(
            features, method=method, verify_conflicts=verify
        )
        reference = _filter_scalar(quantize_features(features), 0, verify)
        assert production.tag_map == reference.tag_map
        assert production.unique_indices == reference.unique_indices
        assert production.num_nodes == reference.num_nodes
        if method == "xxhash":
            assert np.array_equal(production.tags, reference.tags)
            assert production.hash_conflicts == reference.hash_conflicts
        return production

    @pytest.mark.parametrize("method", ["bytes", "xxhash"])
    @pytest.mark.parametrize("verify", [True, False])
    def test_identical_results(self, method, verify):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(10, 6))
        features = base[rng.integers(0, 10, size=80)]
        self._assert_matches_reference(features, method, verify)

    @pytest.mark.parametrize("method", ["bytes", "xxhash"])
    def test_special_values(self, method):
        features = np.array(
            [
                [np.nan, 0.0],
                [np.nan, -0.0],
                [1.0, 2.0],
                [1.0 + 1e-9, 2.0],
                [np.inf, 2.0],
            ]
        )
        result = self._assert_matches_reference(features, method)
        # 1+1e-9 rounds onto 1.0 and is recognized as a duplicate. The
        # NaN rows are bit-identical, and verification compares the
        # quantized feature *bytes* — the same stream the hash digests —
        # so both methods merge them (NaN ``==`` would disagree with the
        # hash and misreport a conflict).
        assert result.tag_map == {1: 0, 3: 2}
        assert result.hash_conflicts == 0

    @given(n=st.integers(0, 40), d=st.integers(0, 5), dup=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_property_identical(self, n, d, dup):
        rng = np.random.default_rng(n * 97 + d * 13 + dup)
        base = rng.normal(size=(max(1, n // dup), d))
        features = (
            base[rng.integers(0, base.shape[0], size=n)]
            if n
            else np.zeros((0, d))
        )
        for method in ("bytes", "xxhash"):
            self._assert_matches_reference(features, method)


class TestBatchEdgeCases:
    """Shape and memory-layout edge cases of the batch kernel."""

    @pytest.mark.parametrize("length", [0, 1, 4, 16, 19])
    def test_zero_rows(self, length):
        result = xxh32_batch(np.zeros((0, length), dtype=np.uint8), seed=5)
        assert result.shape == (0,)
        assert result.dtype == np.uint32

    def test_zero_length_rows_hash_empty_string(self):
        result = xxh32_batch(np.zeros((6, 0), dtype=np.uint8), seed=0)
        assert result.shape == (6,)
        assert all(int(tag) == xxh32(b"") for tag in result)

    def test_row_strided_view_matches_contiguous(self):
        rng = np.random.default_rng(11)
        base = rng.integers(0, 256, size=(10, 21), dtype=np.uint8)
        view = base[::2]
        assert not view.flags["C_CONTIGUOUS"]
        assert np.array_equal(
            xxh32_batch(view, seed=9),
            xxh32_batch(np.ascontiguousarray(view), seed=9),
        )

    def test_column_strided_view_matches_contiguous(self):
        rng = np.random.default_rng(12)
        base = rng.integers(0, 256, size=(5, 40), dtype=np.uint8)
        view = base[:, 1:36:2]
        assert not view.flags["C_CONTIGUOUS"]
        assert np.array_equal(
            xxh32_batch(view, seed=2),
            xxh32_batch(np.ascontiguousarray(view), seed=2),
        )

    def test_strided_view_matches_scalar(self):
        rng = np.random.default_rng(13)
        base = rng.integers(0, 256, size=(9, 30), dtype=np.uint8)
        view = base[1::3, 2:25]
        batch = xxh32_batch(view, seed=7)
        for row, tag in zip(view, batch):
            assert int(tag) == xxh32(bytes(row), seed=7)

    def test_fortran_order_input(self):
        rng = np.random.default_rng(14)
        c_order = rng.integers(0, 256, size=(4, 18), dtype=np.uint8)
        f_order = np.asfortranarray(c_order)
        assert np.array_equal(
            xxh32_batch(f_order, seed=1), xxh32_batch(c_order, seed=1)
        )

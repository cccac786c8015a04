"""Tests for approximate (LSH) matching filters."""

import warnings

import numpy as np
import pytest

from repro.emf.approximate import NONFINITE_BUCKET
from repro.emf import (
    approximate_matching_filter,
    e2lsh_matching_filter,
    e2lsh_signatures,
    elastic_matching_filter,
    simhash_signatures,
)


class TestSimHash:
    def test_exact_duplicates_always_collide(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(4, 8))
        features = base[[0, 1, 2, 3, 0, 1]]
        signatures = simhash_signatures(features, 32)
        assert signatures[0] == signatures[4]
        assert signatures[1] == signatures[5]

    def test_signature_range(self):
        rng = np.random.default_rng(1)
        signatures = simhash_signatures(rng.normal(size=(10, 4)), 16)
        assert np.all(signatures < (1 << 16))

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            simhash_signatures(np.ones((2, 2)), 0)
        with pytest.raises(ValueError):
            simhash_signatures(np.ones((2, 2)), 65)

    def test_direction_collapse_failure_mode(self):
        """Features that differ only in magnitude along one direction all
        collide — SimHash cannot separate post-ReLU GNN features (the
        documented negative result)."""
        direction = np.ones((1, 8))
        features = direction * np.linspace(1.0, 5.0, 6)[:, None]
        result = approximate_matching_filter(features, 64, center=False)
        assert result.num_unique == 1


class TestE2LSH:
    def test_exact_duplicates_always_collide(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(3, 6))
        features = base[[0, 1, 2, 0]]
        result = e2lsh_matching_filter(features, 8, 0.05)
        assert result.representative(3) == 0

    def test_separates_magnitude_differences(self):
        """The 1-D magnitude geometry SimHash fails on."""
        direction = np.ones((1, 8))
        features = direction * np.linspace(1.0, 5.0, 6)[:, None]
        result = e2lsh_matching_filter(features, 8, 0.05)
        assert result.num_unique == 6

    def test_width_controls_merging(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(40, 8))
        narrow = e2lsh_matching_filter(features, 8, 0.01).num_unique
        wide = e2lsh_matching_filter(features, 8, 10.0).num_unique
        assert wide < narrow

    def test_narrow_buckets_approach_exact(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(5, 8))
        features = base[rng.integers(0, 5, size=30)]
        exact = elastic_matching_filter(features).num_unique
        approx = e2lsh_matching_filter(features, 12, 1e-4).num_unique
        assert approx == exact

    def test_nonfinite_rows_share_an_explicit_bucket(self):
        # NaN, infinite and out-of-int64-range projections have no
        # bucket value: those rows share one bucket, no cast warns, and
        # the finite rows keep theirs.
        features = np.array(
            [[np.nan, 1.0], [1.0, 2.0], [np.inf, 0.0], [1e300, 1e300], [1.0, 2.0]]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            signatures = e2lsh_signatures(features, 4, 0.1)
            result = e2lsh_matching_filter(features, 4, 0.1)
        assert signatures[0] == signatures[2] == signatures[3] == NONFINITE_BUCKET
        assert signatures[1] == signatures[4] != NONFINITE_BUCKET
        assert len(signatures[1]) == 4
        assert result.unique_indices == [0, 1]
        assert result.inverse.tolist() == [0, 1, 0, 0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            e2lsh_signatures(np.ones((2, 2)), 0, 0.1)
        with pytest.raises(ValueError):
            e2lsh_signatures(np.ones((2, 2)), 4, 0.0)
        with pytest.raises(ValueError):
            e2lsh_signatures(np.ones(4), 4, 0.1)

"""The built-in check roster: coverage and quick-tier green-ness.

The per-check cross-validation logic is exercised for real here (every
registered check runs its quick tier), and the roster itself is pinned:
the redundant implementation pairs named in the reproduction notes
must stay guarded by a differential check, and the CGC/quantization
invariants by invariant checks.
"""

import pytest

import repro.validate as validate
from repro.validate.workloads import (
    adversarial_pairs,
    byte_matrices,
    feature_matrices,
    random_pairs,
)

CHECK_NAMES = [check.name for check in validate.all_checks()]


class TestRoster:
    def test_at_least_eight_checks(self):
        assert len(CHECK_NAMES) >= 8

    def test_every_redundant_pair_guarded(self):
        differential = {
            check.name: check.pair
            for check in validate.all_checks()
            if check.kind == "differential"
        }
        guarded = " ".join(
            f"{left} {right}" for left, right in differential.values()
        )
        assert "xxh32_batch" in guarded
        assert "_filter_vectorized" in guarded
        assert "DetailedSimulator" in guarded
        assert "parallel_simulate_workload" in guarded

    def test_invariant_families_present(self):
        invariant = [
            check.name
            for check in validate.all_checks()
            if check.kind == "invariant"
        ]
        assert "cgc.schedule_invariants" in invariant
        assert "cgc.degenerate_inputs" in invariant
        assert "emf.quantization_single_site" in invariant

    def test_every_check_has_a_mutator(self):
        unproven = [
            check.name
            for check in validate.all_checks()
            if not check.mutators
        ]
        assert unproven == [], (
            "checks without mutators cannot be proven fail-capable: "
            f"{unproven}"
        )

    def test_every_check_described(self):
        for check in validate.all_checks():
            assert check.description, check.name


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_quick_tier_passes(name):
    (result,) = validate.run_checks([name], quick=True)
    assert result.ok, f"{name}: {result.detail}"
    assert result.detail  # checks report what they covered


class TestWorkloads:
    def test_byte_matrices_cover_length_regimes(self):
        shapes = {matrix.shape for matrix in byte_matrices()}
        lengths = {length for _, length in shapes}
        rows = {count for count, _ in shapes}
        assert 0 in rows  # empty matrix
        assert 0 in lengths  # zero-length rows
        assert {1, 3, 5, 17, 19, 35} <= lengths  # word/stripe tails
        assert any(
            not matrix.flags["C_CONTIGUOUS"]
            for matrix in byte_matrices()
            if matrix.size
        )

    def test_byte_matrices_deterministic(self):
        first, second = byte_matrices(seed=7), byte_matrices(seed=7)
        assert all(
            (a == b).all() for a, b in zip(first, second) if a.size
        )

    def test_feature_matrices_plant_adversarial_values(self):
        import numpy as np

        matrices = feature_matrices()
        assert any(np.isnan(m).any() for m in matrices if m.size)
        assert any(
            np.signbit(m[m == 0.0]).any() for m in matrices if m.size
        )
        assert any(m.shape[0] == 0 for m in matrices)
        assert any(m.shape[1] == 0 for m in matrices)

    def test_adversarial_pairs_cover_degenerate_shapes(self):
        cases = dict(adversarial_pairs())
        assert cases["empty_query"].query.num_nodes == 0
        assert cases["empty_target"].target.num_nodes == 0
        assert cases["both_empty"].target.num_nodes == 0
        small = cases["smaller_than_half_window"]
        assert small.target.num_nodes < small.query.num_nodes
        assert len(cases) >= 8

    def test_random_pairs_seeded(self):
        first, second = random_pairs(3), random_pairs(3)
        assert [p.target.num_nodes for p in first] == [
            p.target.num_nodes for p in second
        ]

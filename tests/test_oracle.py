import dataclasses
import math

import numpy as np
import pytest

from epra_kit.epra import solve
from epra_kit.exceptions import DimensionMismatch, NoFeasibleStart, ZeroVector
from epra_kit.instances import gen_controlled, gen_partitioned, nullspace_basis
from epra_kit.oracle import (
    condition_measure_1d,
    condition_measure_search,
    monte_carlo_feasible_rate,
    verify_membership,
    verify_relint_pair,
    wendel_probability,
)
from epra_kit.subspace import Instance


class TestWendel:
    def test_known_values(self):
        assert wendel_probability(1, 2) == 0.5
        assert wendel_probability(1, 3) == 0.25
        # half-dimensional kernels are feasible with probability one half
        for n in (4, 10, 20, 30):
            assert wendel_probability(n // 2, n) == 0.5

    def test_full_row_count_is_certain(self):
        assert wendel_probability(5, 5) == 1.0

    def test_complement_identity(self):
        for n in range(2, 31):
            for m in range(1, n):
                s = wendel_probability(m, n) + wendel_probability(n - m, n)
                assert abs(s - 1.0) <= 1e-12

    def test_monotone_in_m(self):
        vals = [wendel_probability(m, 12) for m in range(1, 13)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            wendel_probability(0, 4)
        with pytest.raises(ValueError):
            wendel_probability(5, 4)


class TestVerifyMembership:
    def test_kernel_member(self):
        ok, resid = verify_membership(np.array([[1.0, -2.0]]), [2.0, 1.0])
        assert ok and resid == 0.0

    def test_non_member(self):
        ok, resid = verify_membership(np.array([[1.0, -2.0]]), [1.0, 1.0])
        assert not ok and resid == 1.0

    def test_zero_vector_is_member(self):
        ok, resid = verify_membership(np.array([[1.0, -2.0]]), [0.0, 0.0])
        assert ok and resid == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_membership(np.eye(2), [1.0, 2.0, 3.0])


class TestConditionMeasure1d:
    def test_positive_ray(self):
        assert condition_measure_1d([2.0, 1.0]) == 0.5

    def test_negative_ray_is_equivalent(self):
        assert condition_measure_1d([-2.0, -1.0]) == 0.5

    def test_sign_obstruction(self):
        assert condition_measure_1d([1.0, -2.0]) == float("-inf")

    def test_uniform_direction_attains_one(self):
        assert condition_measure_1d([3.0, 3.0, 3.0]) == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            condition_measure_1d([0.0, 0.0])


class TestConditionMeasureSearch:
    def test_one_dimensional_kernel(self):
        val = condition_measure_search(np.array([[1.0, -2.0]]), iters=100, seed=1)
        assert abs(val - 0.5) <= 1e-6

    def test_never_exceeds_certified_measure(self):
        for seed in range(6):
            inst = gen_controlled(3, 10, delta_cap=0.2, seed=700 + seed)
            val = condition_measure_search(inst.A, iters=300, seed=seed)
            assert val <= inst.meta.known_delta + 1e-6

    def test_typically_reaches_certified_measure(self):
        ratios = []
        for seed in range(6):
            inst = gen_controlled(3, 10, delta_cap=0.2, seed=700 + seed)
            val = condition_measure_search(inst.A, iters=300, seed=seed)
            ratios.append(val / inst.meta.known_delta)
        assert np.median(ratios) >= 0.9

    def test_infeasible_kernel_has_no_start(self):
        with pytest.raises(NoFeasibleStart):
            condition_measure_search(np.array([[1.0, 1.0]]), iters=50, seed=3)


class TestVerifyRelintPair:
    def test_trivial_primal_certificate(self):
        inst = Instance(A=np.array([[1.0, -2.0]]))
        res = solve(inst)
        rep = verify_relint_pair(inst, res, U=1e10)
        assert rep.membership_ok
        assert rep.positivity_ok
        assert rep.relint_ok
        assert rep.partition_matches_ground_truth is None
        assert rep.max_residual <= 1e-10

    def test_axis_partition_certificate(self):
        inst = Instance(A=np.array([[0.0, 1.0]]))
        res = solve(inst)
        assert verify_relint_pair(inst, res, U=1e10).relint_ok

    def test_corrupted_small_block_fails(self):
        inst = Instance(A=np.array([[0.0, 1.0]]))
        res = solve(inst)
        res.x = res.x.copy()
        res.x[1] = 0.1 * res.x[0]  # no longer below the U-threshold
        rep = verify_relint_pair(inst, res, U=1e10)
        assert not rep.relint_ok

    def test_negative_entry_on_support_fails(self):
        inst = Instance(A=np.array([[1.0, -2.0]]))
        res = solve(inst)
        res.x = -res.x
        rep = verify_relint_pair(inst, res, U=1e10)
        assert not rep.positivity_ok and not rep.relint_ok

    def test_partition_ground_truth_comparison(self):
        inst = gen_partitioned(10, seed=9)
        res = solve(inst)
        rep = verify_relint_pair(inst, res, U=1e10)
        assert rep.partition_matches_ground_truth is True
        # tamper with the metadata: comparison must notice
        B, N = inst.meta.known_partition
        swapped = dataclasses.replace(inst.meta, known_partition=(list(N), list(B)))
        rep2 = verify_relint_pair(dataclasses.replace(inst, meta=swapped), res, U=1e10)
        assert rep2.partition_matches_ground_truth is False


class TestMonteCarlo:
    def test_wide_kernel_is_nearly_always_feasible(self):
        # Wendel complement at (1, 10) is 1 - 2^-9 ~ 0.998
        rate = monte_carlo_feasible_rate(1, 10, trials=100, seed=5)
        assert rate >= 0.95

    def test_narrow_kernel_is_nearly_never_feasible(self):
        rate = monte_carlo_feasible_rate(9, 10, trials=100, seed=6)
        assert rate <= 0.05

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            monte_carlo_feasible_rate(2, 4, trials=0, seed=0)


class TestOneDimensionalAgreement:
    def test_search_matches_1d_closed_form_through_svd_basis(self):
        # m = n - 1 controlled instance: the kernel is the ray spanned by
        # the stored interior point
        inst = gen_controlled(7, 8, delta_cap=0.2, seed=13)
        basis = nullspace_basis(inst.A)
        assert basis.shape == (1, 8)
        val = condition_measure_1d(basis[0])
        assert math.isfinite(val)
        assert abs(val - inst.meta.known_delta) <= 1e-12

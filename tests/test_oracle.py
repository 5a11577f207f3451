import dataclasses
import math

import numpy as np
import pytest

from epra_kit import subspace
from epra_kit.epra import EpraConfig, solve
from epra_kit.exceptions import DimensionMismatch, NoFeasibleStart, RankDeficient, ZeroVector
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
        # a bool or float count used to be read as a number
        for m, n in [(True, 3), (1.0, 3), (2, 4.0)]:
            with pytest.raises(ValueError, match="must be an integer"):
                wendel_probability(m, n)


class TestVerifyMembership:
    def test_is_the_instance_check(self):
        assert verify_membership is subspace.verify_membership

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
    # (m, n, delta_cap, seed) of controlled instances; (20, 50, 1e-3, 5011)
    # read 5.8e-33 of its measure under the restarted heuristic search, and
    # (2, 10, 1e-3, 5001), of measure 1.6e-14, had no start from
    # Douglas-Rachford reflections
    EXACT = [(3, 10, 0.2, 700), (1, 6, 0.2, 3), (7, 8, 0.2, 13), (5, 30, 1e-3, 40),
             (25, 50, 0.05, 5002), (20, 50, 1e-3, 5011), (2, 50, 1e-3, 5004),
             (2, 10, 1e-3, 5001)]
    # kernels that meet the open orthant only thinly (smallest entry of the
    # known interior point 1.3e-6 to 8.5e-5), where 3000 Douglas-Rachford
    # reflections found no start
    THIN = [(5, 10, 1e-3, 5010), (5, 25, 1e-3, 5023), (12, 25, 1e-3, 5008),
            (10, 50, 1e-3, 5022), (25, 50, 1e-3, 5011)]

    def test_one_dimensional_kernel(self):
        assert abs(condition_measure_search(np.array([[1.0, -2.0]])) - 0.5) <= 1e-12

    def test_never_exceeds_certified_measure(self):
        for seed in range(6):
            inst = gen_controlled(3, 10, delta_cap=0.2, seed=700 + seed)
            val = condition_measure_search(inst.A)
            assert val <= inst.meta.known_delta * (1.0 + 1e-12)

    @pytest.mark.parametrize("m, n, delta_cap, seed", EXACT + THIN)
    def test_matches_certified_measure(self, m, n, delta_cap, seed):
        inst = gen_controlled(m, n, delta_cap=delta_cap, seed=seed)
        val = condition_measure_search(inst.A)
        assert abs(val / inst.meta.known_delta - 1.0) <= 1e-9

    def test_no_rows_is_the_whole_space(self):
        assert condition_measure_search(np.zeros((0, 4))) == 1.0

    def test_infeasible_kernel_has_no_start(self):
        with pytest.raises(NoFeasibleStart):
            condition_measure_search(np.array([[1.0, 1.0]]))

    def test_trivial_kernel_names_the_solver_status(self):
        A = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 3.0]])
        with pytest.raises(NoFeasibleStart, match="trivial_dual"):
            condition_measure_search(A)

    @pytest.mark.parametrize("seed", range(4))
    def test_partitioned_kernel_has_no_start(self, seed):
        # the kernel's positive points vanish on N
        with pytest.raises(NoFeasibleStart):
            condition_measure_search(gen_partitioned(12, seed).A)

    def test_rank_deficient_matrix_rejected(self):
        with pytest.raises(RankDeficient):
            condition_measure_search(np.array([[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]]))


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

    @staticmethod
    def _tampered(**changes):
        inst = gen_controlled(2, 6, delta_cap=0.2, seed=5)
        res = solve(inst)
        assert verify_relint_pair(inst, res, U=1e10).relint_ok
        return inst, dataclasses.replace(res, **changes)

    # (B, N, zero certificates) of results whose B and N do not partition
    # the six indices; each used to be accepted or to raise IndexError
    NOT_PARTITIONS = [([], [], True), ([1, 2, 3], [], False), ([0, 1, 2, 3, 4, 5, 99], [], False)]

    @pytest.mark.parametrize("B, N, zero", NOT_PARTITIONS, ids=["empty", "short", "out of range"])
    def test_index_sets_must_partition(self, B, N, zero):
        changes = {"x": np.zeros(6), "x_hat": np.zeros(6)} if zero else {}
        inst, res = self._tampered(B=np.array(B, dtype=int), N=np.array(N, dtype=int), **changes)
        rep = verify_relint_pair(inst, res, U=1e10)
        assert rep.membership_ok
        assert not rep.positivity_ok and not rep.relint_ok

    @pytest.mark.parametrize("x_hat", [np.zeros(5), np.zeros(7), np.zeros((6, 1)), np.zeros(())],
                             ids=["short", "long", "column", "scalar"])
    def test_x_hat_of_another_length_is_named(self, x_hat):
        # numpy's matmul used to raise its gufunc message
        inst, res = self._tampered(x_hat=x_hat)
        with pytest.raises(DimensionMismatch, match="x_hat has shape"):
            verify_relint_pair(inst, res, U=1e10)

    def test_rowless_instance_measures_the_dual_residual(self):
        inst = Instance(A=np.zeros((0, 4)))
        res = solve(inst)
        rep = verify_relint_pair(inst, res, U=1e10)
        assert rep.relint_ok and rep.max_residual == 0.0
        rep = verify_relint_pair(inst, dataclasses.replace(res, x_hat=np.full(4, 0.5)), U=1e10)
        assert not rep.membership_ok and rep.max_residual == 0.5

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


    @pytest.mark.parametrize("U", [0.5, 1.0, np.inf, np.nan, -1.0])
    def test_U_outside_the_solver_rule_rejected(self, U):
        # EpraConfig's rule: at U = 0.5 this correct result read relint_ok
        # True, and at inf, NaN and -1 False, with no error
        inst = gen_partitioned(30, seed=0)
        res = solve(inst)
        assert verify_relint_pair(inst, res, U=1e10).relint_ok
        with pytest.raises(ValueError, match="U must exceed 1 and be finite"):
            verify_relint_pair(inst, res, U=U)
        with pytest.raises(ValueError, match="U must exceed 1 and be finite"):
            EpraConfig(U=U)

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
        for m, n, trials, seed in [(2, 4, True, 0), (2, 4, 1.5, 0), (2, 4, 1, 0.5), (2, 4, 1, -1),
                                   (2.0, 4, 1, 0), (2, 4.0, 1, 0)]:
            with pytest.raises(ValueError, match="must be"):
                monte_carlo_feasible_rate(m, n, trials=trials, seed=seed)


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

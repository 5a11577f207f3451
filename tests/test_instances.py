import dataclasses

import numpy as np
import pytest

from epra_kit.exceptions import FullRankSquare
from epra_kit.instances import (
    controlled_from_interior,
    gen_controlled,
    gen_naive,
    gen_partitioned,
    instance_seed,
    nullspace_basis,
)


class TestGenNaive:
    def test_shape_and_determinism(self):
        a = gen_naive(3, 7, seed=5)
        b = gen_naive(3, 7, seed=5)
        c = gen_naive(3, 7, seed=6)
        assert a.A.shape == (3, 7)
        assert np.array_equal(a.A, b.A)
        assert not np.array_equal(a.A, c.A)
        assert a.meta.generator == "naive"
        assert a.meta.known_delta is None

    def test_standard_normal_moments(self):
        inst = gen_naive(50, 200, seed=8)
        entries = inst.A.ravel()
        assert entries.size == 10000
        assert -0.05 <= entries.mean() <= 0.05
        assert 0.9 <= entries.var() <= 1.1

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            gen_naive(5, 5, seed=0)
        with pytest.raises(ValueError):
            gen_naive(0, 5, seed=0)


class TestControlled:
    def test_forced_interior_point_closed_form(self):
        rng = np.random.default_rng(0)
        A = controlled_from_interior(np.array([1.0, 0.5]), 1, rng)
        assert np.array_equal(A, np.array([[1.0, -2.0]]))

    def test_interior_point_in_kernel(self):
        for seed in range(5):
            inst = gen_controlled(4, 12, delta_cap=0.01, seed=seed)
            x = inst.meta.known_interior_point
            resid = np.max(np.abs(inst.A @ x))
            assert resid <= 1e-10 * np.max(np.abs(inst.A))
            assert np.all(x > 0)
            assert np.max(x) == 1.0
            assert np.count_nonzero(x == 1.0) == 1

    def test_delta_is_exact_product(self):
        inst = gen_controlled(3, 9, delta_cap=0.001, seed=4)
        assert inst.meta.known_delta == float(np.prod(inst.meta.known_interior_point))

    def test_more_small_entries_means_smaller_delta(self):
        lo = [gen_controlled(3, 30, 0.001, frac_small=0.2, seed=s).meta.known_delta
              for s in range(8)]
        hi = [gen_controlled(3, 30, 0.001, frac_small=0.8, seed=s).meta.known_delta
              for s in range(8)]
        assert np.mean(np.log(hi)) < np.mean(np.log(lo))

    def test_single_row_allowed(self):
        inst = gen_controlled(1, 4, seed=9)
        assert inst.m == 1

    def test_zero_frac_small_disables_forcing(self):
        inst = gen_controlled(2, 10, delta_cap=1e-6, frac_small=0.0, seed=10)
        # no entry was forced below the cap
        assert np.min(inst.meta.known_interior_point) > 1e-6

    def test_validates(self):
        # the instance was checked when the generator made it: its interior
        # point lies in ker(A), and a re-made copy passes the same check
        inst = gen_controlled(5, 11, seed=21)
        assert np.max(np.abs(inst.A @ inst.meta.known_interior_point)) <= 1e-12
        dataclasses.replace(inst)

    def test_delta_cap_unchecked_without_forced_entries(self):
        # at frac_small = 0 delta_cap changes no drawn number
        ref = gen_controlled(3, 12, delta_cap=1e-3, frac_small=0.0, seed=1)
        for cap in (0.0, 0.7, float("nan")):
            inst = gen_controlled(3, 12, delta_cap=cap, frac_small=0.0, seed=1)
            assert inst.A.tobytes() == ref.A.tobytes()
            assert inst.meta.known_delta == ref.meta.known_delta

    @pytest.mark.parametrize("frac_small", [None, 0.5])
    def test_nan_delta_cap_rejected(self, frac_small):
        # it used to end in DegenerateMax after every redraw
        with pytest.raises(ValueError, match="delta_cap"):
            gen_controlled(2, 5, delta_cap=float("nan"), frac_small=frac_small, seed=0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gen_controlled(0, 5, seed=0)
        with pytest.raises(ValueError):
            gen_controlled(2, 5, delta_cap=-1.0, seed=0)
        with pytest.raises(ValueError):
            gen_controlled(2, 5, frac_small=1.5, seed=0)


class TestNullspaceBasis:
    def test_line(self):
        basis = nullspace_basis(np.array([[1.0, 1.0]]))
        assert basis.shape == (1, 2)
        assert np.allclose(np.abs(basis[0]), [2**-0.5, 2**-0.5], atol=1e-12)

    def test_trivial_kernel_rejected(self):
        with pytest.raises(FullRankSquare):
            nullspace_basis(np.eye(2))

    def test_random_rectangular(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((2, 5))
        basis = nullspace_basis(M)
        assert basis.shape == (3, 5)
        # its own storage, not a view that keeps the 5 x 5 factor alive
        assert basis.base is None
        assert np.max(np.abs(M @ basis.T)) <= 1e-10
        assert np.max(np.abs(basis @ basis.T - np.eye(3))) <= 1e-10


class TestPartitioned:
    def test_block_structure(self):
        inst = gen_partitioned(12, seed=31)
        B, N = inst.meta.known_partition
        nb, nn = len(B), len(N)
        assert B == list(range(nb))
        assert N == list(range(nb, 12))
        assert 2 <= nb <= 10
        # exact zero lower-left block
        m_b = max(1, nb // 2)
        lower_left = inst.A[m_b:, :nb]
        assert np.count_nonzero(lower_left) == 0
        # N-block rows are orthonormal (hence full row rank)
        A_nn = inst.A[m_b:, nb:]
        assert np.max(np.abs(A_nn @ A_nn.T - np.eye(A_nn.shape[0]))) <= 1e-10
        assert inst.m == inst.A.shape[0]

    def test_size_split_override(self):
        inst = gen_partitioned(10, seed=1, size_split=4)
        B, N = inst.meta.known_partition
        assert len(B) == 4 and len(N) == 6

    def test_determinism(self):
        a = gen_partitioned(10, seed=3)
        b = gen_partitioned(10, seed=3)
        assert np.array_equal(a.A, b.A)

    def test_primal_block_kernel_meets_positive_orthant(self):
        # the B-block is drawn by the controlled generator, so reconstruct
        # its certified interior point through a fresh solve
        from epra_kit import solve

        inst = gen_partitioned(12, seed=47)
        B, N = inst.meta.known_partition
        m_b = max(1, len(B) // 2)
        from epra_kit.subspace import Instance

        block = Instance(A=inst.A[:m_b, : len(B)])
        res = solve(block)
        assert res.status == "trivial_primal"

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_partitioned(3, seed=0)
        with pytest.raises(ValueError):
            gen_partitioned(10, seed=0, size_split=9)


class TestInstanceSeed:
    def test_pinned_values(self):
        # the seeds of oracle.monte_carlo_feasible_rate's trials and of the
        # bench harness's instances; a change here changes every sample
        assert instance_seed(7, 3) == 5061563556724077661
        assert instance_seed(1, 2, 3) == 12997252459554536576

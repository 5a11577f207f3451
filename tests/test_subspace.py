import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epra_kit import bploop, subspace
from epra_kit.blas import small_problem_threads
from epra_kit.epra import solve
from epra_kit.exceptions import DimensionMismatch, RankDeficient
from epra_kit.instances import gen_controlled
from epra_kit.subspace import (
    Instance,
    InstanceMeta,
    INFEASIBLE,
    _complement,
    instance_from_dict,
    instance_to_dict,
    is_partition,
    load_instance,
    projector_from_kernel,
    rescaled_projectors,
    save_instance,
    verify_membership,
)


def max_abs(M):
    return float(np.max(np.abs(M)))


def _range_projector(M: np.ndarray) -> np.ndarray:
    """Q Q^T for an orthonormal basis Q of M's column space."""
    return subspace._outer(subspace._orthonormal_range_basis(M))


class TestProjectorFromKernel:
    def test_coordinate_subspace(self):
        pair = projector_from_kernel(np.array([[1.0, 0.0]]))
        assert np.allclose(pair.P, np.diag([0.0, 1.0]), atol=1e-12)
        assert np.allclose(pair.P_hat, np.diag([1.0, 0.0]), atol=1e-12)

    def test_symmetric_line(self):
        pair = projector_from_kernel(np.array([[1.0, 1.0]]))
        assert np.allclose(pair.P, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
        assert np.allclose(pair.P_hat, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_random_rectangular_residuals(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 5))
        pair = projector_from_kernel(A)
        assert max_abs(pair.P @ pair.P - pair.P) <= 1e-8
        assert max_abs(pair.P @ A.T) <= 1e-8 * max_abs(A)
        assert max_abs(pair.P - pair.P.T) <= 1e-10
        assert max_abs(pair.P + pair.P_hat - np.eye(5)) <= 1e-8

    def test_empty_kernel_matrix_gives_identity(self):
        pair = projector_from_kernel(np.zeros((0, 4)))
        assert np.array_equal(pair.P, np.eye(4))
        assert np.array_equal(pair.P_hat, np.zeros((4, 4)))

    def test_rank_deficient_rejected(self):
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficient):
            projector_from_kernel(A)

    def test_tall_matrix_rejected(self):
        with pytest.raises(DimensionMismatch):
            projector_from_kernel(np.ones((3, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            projector_from_kernel(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("A", [3.0, [1.0, 2.0], np.ones((1, 2, 3))])
    def test_non_matrix_rejected(self, A):
        with pytest.raises(DimensionMismatch):
            projector_from_kernel(A)


class TestRescaledProjectors:
    def test_identity_rescaling_matches_plain(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 9))
        plain = projector_from_kernel(A)
        ones = np.ones(9)
        scaled = rescaled_projectors(A, ones, ones)
        assert max_abs(plain.P - scaled.P) <= 1e-12
        assert max_abs(plain.P_hat - scaled.P_hat) <= 1e-12

    def test_one_dimensional_kernel_closed_form(self):
        # ker(A D^{-1}) for A = [1, -2], D = (2, 1) is spanned by (4, 1)
        pair = rescaled_projectors(np.array([[1.0, -2.0]]), [2.0, 1.0], [2.0, 1.0])
        v = np.array([4.0, 1.0])
        expected = np.outer(v, v) / 17.0
        assert np.allclose(pair.P, expected, atol=1e-12)

    def test_coordinate_subspace_invariant_under_scaling(self):
        pair = rescaled_projectors(np.array([[1.0, 0.0]]), [3.0, 7.0], [5.0, 2.0])
        assert np.allclose(pair.P, np.diag([0.0, 1.0]), atol=1e-12)

    def test_rescaled_kernel_residual(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((4, 10))
        D = np.exp(rng.uniform(0, 8, 10))
        D_hat = np.exp(rng.uniform(0, 8, 10))
        pair = rescaled_projectors(A, D, D_hat)
        AD = A / D[None, :]
        assert max_abs(pair.P @ AD.T) <= 1e-8 * max_abs(AD)
        # dual projector reproduces its range
        span = (A.T * D_hat[:, None])
        assert max_abs(pair.P_hat @ span - span) <= 1e-8 * max_abs(span)

    def test_heavily_scaled_full_rank_not_rejected(self):
        # scaling columns by 1e10 must not trip the rank test
        rng = np.random.default_rng(17)
        A = rng.standard_normal((3, 8))
        D = np.ones(8)
        D[:4] = 1e10
        pair = rescaled_projectors(A, D, D)
        AD = A / D[None, :]
        assert max_abs(pair.P @ AD.T) <= 1e-8 * max_abs(AD)

    def test_identity_rescaling_is_bit_identical_to_one_factorization(self):
        rng = np.random.default_rng(19)
        A = rng.standard_normal((5, 12))
        plain = projector_from_kernel(A)
        scaled = rescaled_projectors(A, np.ones(12), np.ones(12))
        assert plain.P.tobytes() == scaled.P.tobytes()
        assert plain.P_hat.tobytes() == scaled.P_hat.tobytes()

    def test_complement_matches_identity_minus_product_bitwise(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((4, 9))
        Q, _ = np.linalg.qr(A.T)
        G = Q @ Q.T
        G[0, 1] = G[1, 0] = 0.0  # eye - G keeps +0.0 here; plain negation would not
        expected = np.eye(9) - G
        assert _complement(G.copy()).tobytes() == expected.tobytes()

    def test_bad_diagonal_rejected(self):
        A = np.array([[1.0, -2.0]])
        with pytest.raises(ValueError):
            rescaled_projectors(A, [1.0, -1.0], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            rescaled_projectors(A, [1.0], [1.0, 1.0])


class TestFactorizationCount:
    @pytest.fixture
    def qr_calls(self, monkeypatch):
        # the factorization both paths share, LAPACK in place or np.linalg.qr
        calls = []
        factor = subspace._orthonormal_range_basis

        def counting_factor(M, *args, **kwargs):
            calls.append(M.shape)
            return factor(M, *args, **kwargs)

        monkeypatch.setattr(subspace, "_orthonormal_range_basis", counting_factor)
        return calls

    def test_kernel_factors_once_and_unit_diagonals_once_per_side(self, qr_calls):
        A = np.random.default_rng(29).standard_normal((4, 9))
        projector_from_kernel(A)
        assert qr_calls == [(9, 4)]
        rescaled_projectors(A, np.ones(9), np.ones(9))
        assert qr_calls == [(9, 4)] * 3

    @pytest.mark.parametrize("side", ["D", "D_hat"])
    def test_non_unit_diagonal_factors_each_side(self, qr_calls, side):
        A = np.random.default_rng(31).standard_normal((4, 9))
        scaled = np.ones(9)
        scaled[5] = 2.0
        diagonals = {"D": np.ones(9), "D_hat": np.ones(9), side: scaled}
        rescaled_projectors(A, diagonals["D"], diagonals["D_hat"])
        assert qr_calls == [(9, 4), (9, 4)]

    @pytest.mark.parametrize("side", ["D", "D_hat"])
    def test_one_sided_build_factors_its_side_only(self, qr_calls, side):
        A = np.random.default_rng(43).standard_normal((4, 9))
        diagonals = {"D": None, "D_hat": None, side: np.ones(9)}
        rescaled_projectors(A, diagonals["D"], diagonals["D_hat"])
        assert qr_calls == [(9, 4)]

    def test_solve_factors_once_then_twice_per_rescaling_round(self, qr_calls):
        res = solve(gen_controlled(10, 30, seed=1))
        assert res.status == "trivial_primal" and res.rounds > 0
        assert len(qr_calls) == 1 + 2 * res.rounds

    def test_one_factorization_gives_the_bits_of_two(self, qr_calls):
        rng = np.random.default_rng(37)
        A = rng.standard_normal((6, 15))
        ones = np.ones(15)
        pair = projector_from_kernel(A)
        assert qr_calls == [(15, 6)]
        assert pair.P.tobytes() == _complement(_range_projector(A.T / ones[:, None])).tobytes()
        assert pair.P_hat.tobytes() == _range_projector(A.T * ones[:, None]).tobytes()


def reference_rescaled_projectors(A, D, D_hat):
    """The dense builder as (P, P_hat), written out with today's exact
    operations: normalize the columns, QR, Q Q^T, and I - G in G's storage.
    Frozen here so the builder below may change how it holds its factors
    but not a bit of the projectors it forms.  A is taken C-contiguous, as
    the builder takes every A."""

    def basis(M):
        if M.shape[1] == 0:
            return np.zeros((M.shape[0], 0))
        Q, _ = np.linalg.qr(M / np.linalg.norm(M, axis=0), mode="reduced")
        return Q

    def complement(G):
        np.subtract(0.0, G, out=G)
        G.flat[:: G.shape[0] + 1] += 1.0
        return G

    A = np.ascontiguousarray(A, dtype=float)
    m, n = A.shape
    At = A.T
    with small_problem_threads(m, n):
        if np.all(D == 1.0) and np.all(D_hat == 1.0):
            Q = basis(At)
            P_hat = Q @ Q.T
            return complement(P_hat.copy()), P_hat
        Q = basis(At / D[:, None])
        P = complement(Q @ Q.T)
        Q = basis(At * D_hat[:, None])
        return P, Q @ Q.T


def _diagonals(kind, n, rng):
    spread = np.exp(rng.uniform(0.0, np.log(1e6), n))
    return {
        "unit": (np.ones(n), np.ones(n)),
        "primal": (spread, np.ones(n)),
        "dual": (np.ones(n), spread),
        "both": (spread, np.exp(rng.uniform(0.0, np.log(1e6), n))),
    }[kind]


class TestDenseProjectorsMatchReference:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", ["unit", "primal", "dual", "both"])
    # m = 130 is past LAPACK's 128-column crossover to blocked Householder
    # steps, whose block size follows the workspace size
    @pytest.mark.parametrize("m, n", [(0, 5), (1, 2), (5, 12), (30, 70), (100, 200),
                                      (130, 260)])
    def test_same_bytes(self, m, n, kind, order):
        rng = np.random.default_rng(1000 * m + n)
        A = np.asarray(rng.standard_normal((m, n)), order=order)
        D, D_hat = _diagonals(kind, n, rng)
        P, P_hat = reference_rescaled_projectors(A, D, D_hat)
        pair = rescaled_projectors(A, D, D_hat)
        assert pair.P.tobytes() == P.tobytes()
        assert pair.P_hat.tobytes() == P_hat.tobytes()
        if kind == "unit":
            plain = projector_from_kernel(A)
            assert plain.P.tobytes() == P.tobytes()
            assert plain.P_hat.tobytes() == P_hat.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("m, n", [(0, 5), (1, 2), (5, 12), (30, 70), (130, 260)])
    def test_unit_diagonals_factor_each_side_to_the_kernel_bytes(self, m, n, order):
        # two factorizations of A^T, one a side, against the one that
        # projector_from_kernel shares; columns scaled by 10**U(-8, 8)
        rng = np.random.default_rng(7 * m + n)
        A = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        A = np.asarray(A, order=order)
        ones = np.ones(n)
        pair = rescaled_projectors(A, ones, ones)
        plain = projector_from_kernel(A)
        assert plain.Q is plain.Q_hat and pair.Q is not pair.Q_hat
        for Q in (pair.Q, pair.Q_hat):
            assert Q.tobytes(order="A") == plain.Q.tobytes(order="A")
        assert pair.P.tobytes() == plain.P.tobytes()
        assert pair.P_hat.tobytes() == plain.P_hat.tobytes()


@pytest.fixture
def numpy_qr(monkeypatch):
    """Factor through np.linalg.qr, as where the compiled library cannot be
    built."""
    monkeypatch.setattr(bploop, "library", lambda: None)


@pytest.mark.usefixtures("numpy_qr")
class TestDenseProjectorsMatchReferenceNumpyQR(TestDenseProjectorsMatchReference):
    pass


class TestOneSidedBuilds:
    """A diagonal given as None leaves its side unbuilt; the side that is
    built has the bytes of the two-sided call."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", ["unit", "primal", "dual", "both"])
    @pytest.mark.parametrize("m, n", [(0, 5), (1, 2), (5, 12), (30, 70)])
    def test_built_side_matches_the_two_sided_call(self, m, n, kind, order):
        rng = np.random.default_rng(1000 * m + n)
        A = np.asarray(rng.standard_normal((m, n)), order=order)
        D, D_hat = _diagonals(kind, n, rng)
        pair = rescaled_projectors(A, D, D_hat)
        primal = rescaled_projectors(A, D, None)
        dual = rescaled_projectors(A, None, D_hat)
        assert primal.Q_hat is None and dual.Q is None
        assert primal.P.tobytes() == pair.P.tobytes()
        assert dual.P_hat.tobytes() == pair.P_hat.tobytes()

    def test_reading_the_unbuilt_side_raises(self):
        A = np.random.default_rng(41).standard_normal((3, 7))
        D = np.linspace(1.0, 5.0, 7)
        with pytest.raises(ValueError, match="dual side .* not built"):
            rescaled_projectors(A, D, None).P_hat
        with pytest.raises(ValueError, match="primal side .* not built"):
            rescaled_projectors(A, None, D).P

    def test_no_side_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            rescaled_projectors(np.array([[1.0, -2.0]]), None, None)

    def test_bad_diagonal_of_the_built_side_rejected(self):
        A = np.array([[1.0, -2.0]])
        with pytest.raises(ValueError):
            rescaled_projectors(A, None, [1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            rescaled_projectors(A, [1.0], None)


class TestCallerMatrixUnchanged:
    """The builders may scale and normalize copies they own, never A."""

    @staticmethod
    def _snapshot(A):
        return A.tobytes(order="A"), A.strides, A.flags.c_contiguous, A.flags.f_contiguous

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", ["unit", "primal", "dual", "both"])
    def test_rescaled_projectors(self, kind, order):
        rng = np.random.default_rng(41)
        A = np.asarray(rng.standard_normal((6, 14)), order=order)
        before = self._snapshot(A)
        rescaled_projectors(A, *_diagonals(kind, 14, rng))
        assert self._snapshot(A) == before

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_projector_from_kernel(self, order):
        A = np.asarray(np.random.default_rng(43).standard_normal((6, 14)), order=order)
        before = self._snapshot(A)
        projector_from_kernel(A)
        assert self._snapshot(A) == before

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_validate(self, order):
        # the check an instance runs when it is made reads A and keeps a
        # read-only view of it, not a copy; the caller's array stays writeable
        inst = gen_controlled(6, 14, seed=3)
        A = np.array(inst.A, order=order)
        before = self._snapshot(A)
        held = Instance(A, inst.meta).A
        assert np.shares_memory(held, A) and not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0] = np.nan
        assert self._snapshot(A) == before and A.flags.writeable


class TestNonFiniteRejected:
    """A NaN or infinite diagonal entry is no rescaling, and a matrix whose
    factorization has a NaN on the diagonal of R is not of full rank."""

    A = np.random.default_rng(47).standard_normal((3, 7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["D", "D_hat", "both"])
    def test_diagonal(self, side, bad):
        D = np.linspace(1.0, 4.0, 7)
        D[2] = bad
        diagonals = {"D": (D, None), "D_hat": (None, D), "both": (np.ones(7), D)}[side]
        with pytest.raises(ValueError, match="strictly positive and finite"):
            rescaled_projectors(self.A, *diagonals)

    @pytest.mark.parametrize("bad", ["all nan", "one nan"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matrix(self, bad, order):
        M = np.array(self.A.T, order=order)
        if bad == "all nan":
            M[...] = np.nan
        else:
            M[4, 1] = np.nan
        with pytest.raises(RankDeficient, match="rank deficient"):
            subspace._orthonormal_range_basis(M)


@pytest.mark.usefixtures("numpy_qr")
class TestOneSidedBuildsNumpyQR(TestOneSidedBuilds):
    pass


@pytest.mark.usefixtures("numpy_qr")
class TestNonFiniteRejectedNumpyQR(TestNonFiniteRejected):
    pass


@pytest.mark.usefixtures("numpy_qr")
class TestCallerMatrixUnchangedNumpyQR(TestCallerMatrixUnchanged):
    pass


@st.composite
def projector_inputs(draw):
    """A full-row-rank (m, n) A, C- or F-ordered, with some columns scaled
    by 1e8 or 1e-8, and two diagonals, each of ones or of exp(U(-8, 8))
    per entry."""
    n = draw(st.integers(2, 160))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    scaled = rng.choice(n, size=draw(st.integers(0, min(n, 4))), replace=False)
    A[:, scaled] *= 10.0 ** rng.choice([-8.0, 8.0], size=scaled.size)
    A = np.asarray(A, order=draw(st.sampled_from("CF")))
    D, D_hat = (np.ones(n) if draw(st.booleans()) else np.exp(rng.uniform(-8.0, 8.0, n))
                for _ in range(2))
    return A, D, D_hat


class TestProjectorsAreBitwiseSymmetric:
    """Entry (i, j) of every projector the package builds holds the bits
    of entry (j, i): the compiled basic procedure reads column i from row
    i only then, and otherwise takes the strided column on every step."""

    @settings(max_examples=300, deadline=None)
    @given(projector_inputs(), st.booleans())
    def test_two_and_one_sided_builds(self, case, compiled):
        A, D, D_hat = case
        builds = ((D, D_hat, ("P", "P_hat")), (D, None, ("P",)), (None, D_hat, ("P_hat",)))
        library = bploop.library if compiled else (lambda: None)
        with mock.patch.object(bploop, "library", library):
            for d, d_hat, sides in builds:
                try:
                    pair = rescaled_projectors(A, d, d_hat)
                except RankDeficient:
                    # a scaled side that fails the rank test builds no projector
                    continue
                for side in sides:
                    P = getattr(pair, side)
                    assert np.array_equal(P.view(np.uint64), P.T.view(np.uint64)), side


class TestApplyProjector:
    def test_contraction(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((3, 7))
        P = projector_from_kernel(A).P
        for _ in range(20):
            z = rng.standard_normal(7)
            assert np.linalg.norm(P @ z) <= np.linalg.norm(z) + 1e-12


class TestInstanceIO:
    def _instance(self):
        A = np.array([[1.0, -2.0, 0.125], [0.25, 1.0 / 3.0, -1.0]])
        # ker(A) is spanned by the cross product of the rows, which is positive
        x = np.cross(A[0], A[1])
        meta = InstanceMeta(
            generator="controlled",
            seed=42,
            known_delta=0.12345678901234567,
            known_interior_point=x / np.max(x),
            known_partition=([0, 2], [1]),
        )
        return Instance(A=A, meta=meta)

    def test_round_trip_bit_exact(self, tmp_path):
        inst = self._instance()
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.n == inst.n and back.m == inst.m
        assert np.array_equal(back.A, inst.A)
        assert back.meta.known_delta == inst.meta.known_delta
        assert np.array_equal(
            back.meta.known_interior_point, inst.meta.known_interior_point
        )
        assert back.meta.known_partition == ([0, 2], [1])

    def test_seventeen_significant_digits(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(self._instance(), path)
        text = path.read_text()
        # every float is written in full-precision scientific notation
        assert "3.3333333333333331e-01" in text
        assert "-2.0000000000000000e+00" in text

    def test_partition_one_based_on_disk(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(self._instance(), path)
        doc = json.loads(path.read_text())
        assert doc["meta"]["known_partition"] == {"B": [1, 3], "N": [2]}

    def test_load_checks_the_shape_the_file_gives(self, tmp_path):
        # A is not reshaped to the file's m and n: a 1 x 4 A given as 2 x 2
        # used to load as [[1, -2], [3, 4]], and a 2 x 2 given as 1 x 4 as
        # [[1, -2, 3, 4]]
        path = tmp_path / "inst.json"
        for n, m, A in [(2, 2, [[1.0, -2.0, 3.0, 4.0]]), (4, 1, [[1.0, -2.0], [3.0, 4.0]])]:
            path.write_text(json.dumps({"n": n, "m": m, "A": A, "meta": None}))
            with pytest.raises(ValueError, match=rf"shape \(.*\(m, n\) = \({m}, {n}\)"):
                load_instance(path)
        # an empty A has no shape of its own and takes the file's
        path.write_text(json.dumps({"n": 3, "m": 0, "A": [], "meta": None}))
        assert load_instance(path).A.shape == (0, 3)
        # a matrix with no column is no instance
        path.write_text(json.dumps({"n": 0, "m": 0, "A": [], "meta": None}))
        with pytest.raises(DimensionMismatch, match=r"shape \(0, 0\)"):
            load_instance(path)

    def test_shape_is_read_from_the_matrix(self):
        inst = Instance(A=np.zeros((2, 5)))
        assert (inst.m, inst.n) == (2, 5)
        inst = dataclasses.replace(inst, A=np.zeros((0, 3)))
        assert (inst.m, inst.n) == (0, 3)
        with pytest.raises(AttributeError):
            inst.n = 4

    def test_infeasible_delta_encoding(self):
        meta = InstanceMeta(generator="x", seed=0, known_delta=INFEASIBLE)
        inst = Instance(A=np.array([[1.0, 1.0]]), meta=meta)
        doc = instance_to_dict(inst)
        assert doc["meta"]["known_delta"] == "infeasible"
        back = instance_from_dict(doc)
        assert back.meta.known_delta == INFEASIBLE

    def test_validate_accepts_generated(self):
        inst = self._instance()
        assert dataclasses.replace(inst).meta is inst.meta

    def test_validate_rejects_bad_interior_point(self):
        inst = self._instance()
        off_kernel = dataclasses.replace(inst.meta, known_interior_point=np.array([0.5, 1.0, 0.25]))
        with pytest.raises(ValueError, match="not in ker"):
            Instance(inst.A, off_kernel)

    def test_validate_rejects_bad_partition(self):
        inst = self._instance()
        with pytest.raises(ValueError, match="partition the index set"):
            dataclasses.replace(inst, meta=dataclasses.replace(
                inst.meta, known_partition=([0, 1], [1, 2])))

    def test_validate_rejects_rank_deficient(self):
        # rank costs a factorization, so it is left to the first one
        inst = Instance(A=np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]), meta=None)
        with pytest.raises(RankDeficient):
            projector_from_kernel(inst.A)
        with pytest.raises(RankDeficient):
            solve(inst)

    def test_zero_row_instance(self):
        inst = Instance(A=np.zeros((0, 3)), meta=None)
        pair = projector_from_kernel(inst.A)
        assert np.array_equal(pair.P, np.eye(3))


# The kernel of _GOOD_A holds the positive point (1, 1, 1).
_GOOD_A = [[1.0, -2.0, 1.0]]
_NAN, _INF = float("nan"), float("inf")

# (case, A, interior point, partition, error): each one fails the check an
# instance runs when it is made
_INVALID = [
    ("nan entry", [[_NAN, -2.0, 1.0]], None, None, ValueError),
    ("inf entry", [[1.0, -_INF, 1.0]], None, None, ValueError),
    ("m > n", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], None, None, DimensionMismatch),
    ("no column", [[]], None, None, DimensionMismatch),
    ("point of wrong length", _GOOD_A, [1.0, 1.0], None, DimensionMismatch),
    ("point not positive", _GOOD_A, [1.0, 0.5, 0.0], None, ValueError),
    ("point max not 1", _GOOD_A, [0.5, 0.5, 0.5], None, ValueError),
    ("point off ker(A)", _GOOD_A, [1.0, 0.5, 0.5], None, ValueError),
    ("overlapping partition", _GOOD_A, None, ([0, 1], [1, 2]), ValueError),
    ("partition not covering", _GOOD_A, None, ([0], [2]), ValueError),
]


class TestConstructionCheck:
    """An instance that exists is a valid one, however it was made."""

    @staticmethod
    def _good():
        meta = InstanceMeta(known_interior_point=np.ones(3), known_partition=([0, 1], [2]))
        return Instance(np.array(_GOOD_A), meta)

    @pytest.mark.parametrize("A, point, part, error",
                             [case[1:] for case in _INVALID], ids=[case[0] for case in _INVALID])
    def test_every_way_in_raises_alike(self, tmp_path, A, point, part, error):
        A = np.array(A)
        meta = InstanceMeta(known_interior_point=None if point is None else np.array(point),
                            known_partition=part)
        raised = []
        with pytest.raises(error) as made:
            Instance(A, meta)
        raised.append(made.value)
        with pytest.raises(error) as replaced:
            dataclasses.replace(self._good(), A=A, meta=meta)
        raised.append(replaced.value)
        path = tmp_path / "inst.json"
        doc = {"n": A.shape[1], "m": A.shape[0], "A": A.tolist(), "meta": {
            "generator": "", "seed": 0, "known_delta": None, "known_interior_point": point,
            "known_partition": None if part is None else {
                "B": [i + 1 for i in part[0]], "N": [i + 1 for i in part[1]]}}}
        path.write_text(json.dumps(doc))
        with pytest.raises(error) as loaded:
            load_instance(path)
        raised.append(loaded.value)
        assert len({(type(exc), str(exc)) for exc in raised}) == 1

    def test_assignment_raises(self):
        inst = self._good()
        for obj, name in ((inst, "A"), (inst, "meta"), (inst.meta, "known_interior_point")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)

    def test_a_list_is_stored_as_a_float_matrix(self):
        A = Instance([[1, -2, 1]]).A
        assert isinstance(A, np.ndarray) and A.dtype == np.float64

    @pytest.mark.parametrize("doc", [
        {"n": 2.7, "m": 1.9, "A": [[1.0, -2.0]], "meta": {"seed": 3.9}},
        {"n": 2, "m": 1, "A": [[1.0, -2.0]], "meta": {"seed": 3.9}},
        {"n": True, "m": 0, "A": []},
        {"n": 2, "m": 1, "A": [[1.0, -2.0]], "meta": {"known_partition": {"B": [1.0], "N": [2]}}},
        {"n": 2, "m": 1, "A": [[1.0, -2.0]], "meta": {"known_partition": {"B": [0], "N": [1, 2]}}},
    ], ids=["float n and m", "float seed", "bool n", "float index", "zero index"])
    def test_loader_rejects_non_integers(self, doc):
        # int() used to truncate them: n 2.7 and m 1.9 loaded as a 1 x 2
        # instance of seed 3, and n true as a 0 x 1 matrix
        with pytest.raises(ValueError, match="must be"):
            instance_from_dict(doc)


class TestSharedRules:
    """The membership and partition rules that both the instance check
    and the verifier apply."""

    @pytest.mark.parametrize("B, N, n, expected", [
        ([0, 1], [2], 3, True),
        ([], [0, 1, 2], 3, True),
        ([2, 0], [1], 3, True),
        ([], [], 3, False),
        ([0, 1], [1, 2], 3, False),
        ([0], [2], 3, False),
        ([0, 1, 2, 99], [], 3, False),
        ([-1, 0, 1], [2], 3, False),
    ])
    def test_is_partition(self, B, N, n, expected):
        assert is_partition(B, N, n) is expected

    @pytest.mark.parametrize("A, error", [
        (np.ones(3), DimensionMismatch),
        (np.array([[_NAN, -2.0, 1.0]]), ValueError),
        (np.ones((3, 2)), DimensionMismatch),
        (np.zeros((1, 0)), DimensionMismatch),
        (np.zeros((0, 0)), DimensionMismatch),
    ], ids=["1-D", "nan entry", "m > n", "no column", "empty"])
    def test_one_kernel_matrix_rule(self, A, error):
        # an instance and both projector builders check A alike
        ones = np.ones(A.shape[-1])
        raised = []
        for make in (Instance, projector_from_kernel,
                     lambda A: rescaled_projectors(A, ones, ones)):
            with pytest.raises(error) as checked:
                make(A)
            raised.append(checked.value)
        assert len({(type(exc), str(exc)) for exc in raised}) == 1

    def test_membership_without_rows(self):
        assert verify_membership(np.zeros((0, 3)), [1.0, 0.5, 2.0]) == (True, 0.0)

    def test_instance_without_rows_takes_any_positive_point(self):
        meta = InstanceMeta(known_interior_point=np.array([1.0, 0.5, 0.25]))
        assert Instance(np.zeros((0, 3)), meta).meta is meta


def pairwise_sum(a):
    """NumPy's pairwise summation of a 1-D float array from -0.0, the
    order `bploop.c` `pairwise` follows."""
    n = len(a)
    if n < 8:
        res = -0.0
        for x in a:
            res += x
        return res
    if n <= 128:
        r = [float(x) for x in a[:8]]
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += a[i + j]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[i:]:
            res += x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return pairwise_sum(a[:n2]) + pairwise_sum(a[n2:])


# rows on each branch of the pairwise sum: below 8, 8 to 128, above 128
ROWS = st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300))
FAULTS = ("none", "zero column", "nan in A", "inf in A", "-inf in A", "nan in D", "inf in D")


@st.composite
def basis_inputs(draw):
    """(M, scale, divide, fault): a Fortran-ordered (rows, cols) M, the
    transpose of a C-ordered A, some columns scaled by 1e+-150 so that
    their squares overflow or underflow, a diagonal or None, and at most
    one fault."""
    rows = draw(ROWS)
    cols = draw(st.integers(1, min(rows, 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((cols, rows))
    scaled = rng.choice(cols, size=draw(st.integers(0, min(cols, 3))), replace=False)
    A[scaled] *= 10.0 ** rng.choice([-150.0, 150.0], size=scaled.size)[:, None]
    mode = draw(st.sampled_from(["unscaled", "divide", "multiply"]))
    scale = None if mode == "unscaled" else np.exp(rng.uniform(-8.0, 8.0, rows))
    fault = draw(st.sampled_from(FAULTS if scale is not None else FAULTS[:5]))
    i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    if fault == "zero column":
        A[j] = 0.0
    elif fault.endswith("in A"):
        A[j, i] = float(fault.split()[0])
    elif fault.endswith("in D"):
        scale[i] = float(fault.split()[0])
    return A.T, scale, mode == "divide", fault


def outcome(fn, *args):
    """fn's result bytes, or the type and message of what it raised"""
    try:
        with np.errstate(all="ignore"):
            Q = fn(*args)
    except (RankDeficient, ValueError) as exc:
        return type(exc), str(exc)
    return Q.shape, Q.tobytes()


@pytest.mark.skipif(bploop.library() is None, reason="the compiled library is not built")
class TestCompiledBasisMatchesNumpyRoute:
    """The module's basis, which scales, normalizes and factors each side
    in one call, against the NumPy route it replaces, bytewise."""

    @settings(max_examples=300, deadline=None)
    @given(basis_inputs())
    def test_same_bytes_or_same_error(self, case):
        M, scale, divide, _ = case
        compiled = outcome(subspace._orthonormal_range_basis, M, scale, divide)
        with mock.patch.object(bploop, "library", lambda: None):
            numpy_route = outcome(subspace._orthonormal_range_basis, M, scale, divide)
        assert compiled == numpy_route

    @settings(max_examples=100, deadline=None)
    @given(basis_inputs())
    def test_builder_faults_raise_the_checks_errors(self, case):
        # through rescaled_projectors a NaN or infinite entry of A or of a
        # diagonal is stopped by the checks, whichever route factors
        M, scale, divide, fault = case
        if scale is None:
            scale = np.ones(M.shape[0])
        diagonals, side = ((scale, None), "Q") if divide else ((None, scale), "Q_hat")

        def build():
            return getattr(rescaled_projectors(M.T, *diagonals), side)

        compiled = outcome(build)
        with mock.patch.object(bploop, "library", lambda: None):
            numpy_route = outcome(build)
        assert compiled == numpy_route
        if fault in ("nan in A", "inf in A", "-inf in A"):
            assert compiled == (ValueError, "matrix entries must be finite")
        elif fault in ("nan in D", "inf in D"):
            assert compiled == (ValueError,
                                "rescaling diagonals must be strictly positive and finite")

    @settings(max_examples=100, deadline=None)
    @given(basis_inputs())
    def test_numpy_norm_is_the_pairwise_sum(self, case):
        # the column norms of bp_basis are sqrt(-0.0 + the pairwise sum of
        # the squares); a numpy that reorders its reduction fails here
        M, scale, divide, _ = case
        if scale is not None:
            M = M / scale[:, None] if divide else M * scale[:, None]
        with np.errstate(all="ignore"):
            squares = M * M
            ours = np.sqrt([-0.0 + pairwise_sum(squares[:, j]) for j in range(M.shape[1])])
            assert ours.tobytes() == np.linalg.norm(M, axis=0).tobytes()


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
@pytest.mark.parametrize("layout", ["F-ordered", "strided", "no rows"])
def test_other_layouts_build_as_their_c_contiguous_copy(layout, compiled, monkeypatch):
    if compiled and bploop.library() is None:
        pytest.skip("the compiled library is not built")
    if not compiled:
        monkeypatch.setattr(bploop, "library", lambda: None)
    for seed in range(5):
        A = np.random.default_rng(seed).standard_normal((5, 24))
        A = {"F-ordered": np.asfortranarray(A[:, :12]), "strided": A[:, ::2],
             "no rows": np.zeros((0, 6))}[layout]
        D, D_hat = (np.linspace(1.0, 4.0, A.shape[1]) ** k for k in (1, 2))
        for d, d_hat in ((D, D_hat), (D, None), (None, D_hat), (None, None)):
            if d is None and d_hat is None:
                got, want = (projector_from_kernel(a) for a in (A, np.ascontiguousarray(A)))
            else:
                got, want = (rescaled_projectors(a, d, d_hat) for a in (A, np.ascontiguousarray(A)))
            for side in ("Q", "Q_hat"):
                g, w = getattr(got, side), getattr(want, side)
                assert (g is None and w is None) or g.tobytes() == w.tobytes(), (seed, side)


@pytest.mark.skipif(bploop.library() is None, reason="np.linalg.qr factors a copy")
def test_one_sided_build_allocates_its_basis_and_scratch_only():
    # Q (160,000 B) and the factorization's scratch (26,416 B): no scaled
    # transpose, and no squared temporary for the column norms, which took
    # the peak to 322,520 B
    rng = np.random.default_rng(5)
    A, D = rng.standard_normal((100, 200)), 1.0 + rng.random(200)
    rescaled_projectors(A, D, None)  # first-call allocations
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pair = rescaled_projectors(A, D, None)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert pair.Q.shape == (200, 100) and peak <= 200_000

import dataclasses
import json

import numpy as np
import pytest

from epra_kit import blas, subspace
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
    load_instance,
    projector_from_kernel,
    rescaled_projectors,
    save_instance,
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
        factor = subspace._householder_qr

        def counting_factor(M, *args):
            calls.append(M.shape)
            return factor(M, *args)

        monkeypatch.setattr(subspace, "_householder_qr", counting_factor)
        return calls

    def test_unit_diagonals_factor_once(self, qr_calls):
        A = np.random.default_rng(29).standard_normal((4, 9))
        rescaled_projectors(A, np.ones(9), np.ones(9))
        assert qr_calls == [(9, 4)]

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

    def test_one_factorization_gives_the_bits_of_two(self):
        rng = np.random.default_rng(37)
        A = rng.standard_normal((6, 15))
        ones = np.ones(15)
        pair = rescaled_projectors(A, ones, ones)
        assert pair.P.tobytes() == _complement(_range_projector(A.T / ones[:, None])).tobytes()
        assert pair.P_hat.tobytes() == _range_projector(A.T * ones[:, None]).tobytes()


def reference_rescaled_projectors(A, D, D_hat):
    """The dense builder as (P, P_hat), written out with today's exact
    operations: normalize the columns, QR, Q Q^T, and I - G in G's storage.
    Frozen here so the builder below may change how it holds its factors
    but not a bit of the projectors it forms."""

    def basis(M):
        if M.shape[1] == 0:
            return np.zeros((M.shape[0], 0))
        Q, _ = np.linalg.qr(M / np.linalg.norm(M, axis=0), mode="reduced")
        return Q

    def complement(G):
        np.subtract(0.0, G, out=G)
        G.flat[:: G.shape[0] + 1] += 1.0
        return G

    A = np.asarray(A, dtype=float)
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


@pytest.fixture
def numpy_qr(monkeypatch):
    """Factor through np.linalg.qr, as on a numpy whose LAPACK is not bound."""
    monkeypatch.setattr(blas, "lapack_qr", lambda: None)


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
        # the check an instance runs when it is made reads A and keeps it
        inst = gen_controlled(6, 14, seed=3)
        A = np.asarray(inst.A, order=order)
        before = self._snapshot(A)
        assert Instance(A, inst.meta).A is A
        assert self._snapshot(A) == before


@pytest.mark.usefixtures("numpy_qr")
class TestOneSidedBuildsNumpyQR(TestOneSidedBuilds):
    pass


@pytest.mark.usefixtures("numpy_qr")
class TestCallerMatrixUnchangedNumpyQR(TestCallerMatrixUnchanged):
    pass


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

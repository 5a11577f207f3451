import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest

import epra_kit.basic as basic
import epra_kit.epra as epra
from epra_kit import bploop, subspace
from epra_kit.basic import BpConfig, BpOutcome, INTERIOR_FOUND, ITER_LIMIT, RESCALE_READY
from epra_kit.bench import ExperimentManifest
from epra_kit.epra import (
    EpraConfig,
    PARTITION_FOUND,
    ROUND_LIMIT,
    SINGLE_DIRECTION,
    STALLED,
    TRIVIAL_DUAL,
    TRIVIAL_PRIMAL,
    identify_partition,
    load_result,
    rescale_update,
    save_result,
    solve,
)
from epra_kit.exceptions import BothSidesInterior, DimensionMismatch, RankDeficient
from epra_kit.instances import gen_controlled, gen_partitioned
from epra_kit.oracle import condition_measure_1d, verify_relint_pair
from epra_kit.subspace import Instance


class TestIdentifyPartition:
    def test_clean_split(self):
        B, N, ok = identify_partition([1.0, 3e-11], [-2e-11, 0.5], 1e10)
        assert ok
        assert B.tolist() == [0]
        assert N.tolist() == [1]

    def test_no_small_entries(self):
        B, N, ok = identify_partition([1.0, 0.5], [0.5, 1.0], 1e10)
        assert not ok
        assert B.size == 0 and N.size == 0

    def test_zero_dual_vector_contributes_nothing(self):
        # strict inequality: |x_hat_i| < 0 never holds
        B, N, ok = identify_partition([1.0, 1.0], [0.0, 0.0], 1e10)
        assert B.size == 0
        assert not ok

    def test_overlap_is_not_a_partition(self):
        B, N, ok = identify_partition([1e-20, 1.0], [1e-20, 1.0], 1e10)
        assert 0 in B.tolist() and 0 in N.tolist()
        assert not ok


class TestRescaleUpdate:
    def test_all_directions_formula(self):
        # alpha = ||(Pz)^+||_1 = 0.2
        Pz = np.array([0.2, -1.0, -1.0])
        out = rescale_update([0.6, 0.3, 0.1], Pz, np.ones(3), 10.0)
        assert np.allclose(out, [3.0, 1.5, 1.0], atol=1e-12)

    def test_cap_engages(self):
        Pz = np.array([0.2, -1.0, -1.0])
        out = rescale_update([0.6, 0.3, 0.1], Pz, np.array([8.0, 1.0, 1.0]), 10.0)
        assert np.allclose(out, [10.0, 1.5, 1.0], atol=1e-12)

    def test_single_direction_doubles_argmax(self):
        out = rescale_update(
            [0.6, 0.3, 0.1], [-1.0, -1.0, -1.0], np.ones(3), 10.0, SINGLE_DIRECTION
        )
        assert np.array_equal(out, [2.0, 1.0, 1.0])

    def test_vanishing_positive_part_guard(self):
        # Pz <= 0 exactly: the guard avoids dividing by zero and the cap
        # bounds the outcome
        out = rescale_update([0.6, 0.3, 0.1], [-1.0, -1.0, 0.0], np.ones(3), 10.0)
        assert np.array_equal(out, [10.0, 10.0, 10.0])

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(3)
        D = np.ones(6)
        for _ in range(30):
            z = rng.random(6)
            Pz = rng.standard_normal(6)
            new = rescale_update(z, Pz, D, 1e4)
            assert np.all(new >= D)
            assert np.all(new <= 1e4)
            D = new


def reference_identify_partition(x, x_hat, U):
    """identify_partition written with the operations it first had, frozen
    here so the function may lose wrapper overhead but not a bit."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    b_mask = np.abs(x_hat) < np.max(np.abs(x_hat)) / U
    n_mask = np.abs(x) < np.max(np.abs(x)) / U
    is_partition = bool(np.all(b_mask ^ n_mask))
    return np.nonzero(b_mask)[0], np.nonzero(n_mask)[0], is_partition


def reference_rescale_update(z, Pz, D, U, mode=epra.ALL_DIRECTIONS):
    """rescale_update written with the operations it first had, frozen
    likewise."""
    z = np.asarray(z, dtype=float)
    D = np.asarray(D, dtype=float)
    if mode == epra.ALL_DIRECTIONS:
        Pz = np.asarray(Pz, dtype=float)
        alpha = max(float(np.sum(np.maximum(Pz, 0.0))), epra._ALPHA_FLOOR)
        e = np.maximum(z / alpha - 1.0, 0.0)
        return np.minimum((1.0 + e) * D, U)
    out = D.copy()
    i = int(np.argmax(z))
    out[i] = min(2.0 * D[i], U)
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


_U_JUST_ABOVE_1 = float(np.nextafter(1.0, 2.0))


class TestRoundBookkeepingMatchesReference:
    """identify_partition and rescale_update against their frozen first
    versions, bytewise, on inputs that reach every branch: on the compiled
    route and on the NumPy code that runs without the library."""

    @pytest.fixture(params=["compiled", "numpy"], autouse=True)
    def route(self, request, monkeypatch):
        if request.param == "numpy":
            monkeypatch.setattr(bploop, "library", lambda: None)
        elif bploop.library() is None:
            pytest.skip("the compiled library is not built")

    VECTORS = [
        [0.0, 0.0, 0.0, 0.0],
        [-0.0, 0.0, 1.0, 0.5],
        [np.nan, 1.0, 2.0, 0.0],
        [1.0, np.nan, -3.0, 1e-12],
        [2.0, 2.0, 1e-300, -2.0],       # ties at the max
        [1.0, 1.0, 1.0, 1.0],
        [3e-11, 1.0, -0.5, 1e-10],
        [np.inf, 1.0, 0.0, -1.0],
    ]

    @pytest.mark.parametrize("U", [_U_JUST_ABOVE_1, 2.0, 1e10])
    @pytest.mark.parametrize("i", range(len(VECTORS)))
    @pytest.mark.parametrize("j", range(len(VECTORS)))
    def test_identify_partition(self, i, j, U):
        x, x_hat = self.VECTORS[i], self.VECTORS[j]
        for args in ((x, x_hat), (np.array(x), np.array(x_hat))):  # lists and arrays
            with np.errstate(all="ignore"):
                got, want = identify_partition(*args, U), reference_identify_partition(*args, U)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            assert got[2] is want[2]

    @pytest.mark.parametrize("mode", [epra.ALL_DIRECTIONS, SINGLE_DIRECTION])
    @pytest.mark.parametrize("U", [_U_JUST_ABOVE_1, 2.0, 1e10])
    @pytest.mark.parametrize("i", range(len(VECTORS)))
    def test_rescale_update(self, i, U, mode):
        z = self.VECTORS[i]
        n = len(z)
        rng = np.random.default_rng(i)
        for Pz in (z, [0.0] * n, list(rng.standard_normal(n))):
            for D in ([1.0] * n, list(1.0 + rng.random(n)), [U] * n):
                for args in ((z, Pz, D), tuple(np.array(v) for v in (z, Pz, D))):
                    with np.errstate(all="ignore"):
                        got = rescale_update(*args, U, mode)
                        want = reference_rescale_update(*args, U, mode)
                    assert same_bits(got, want), (z, Pz, D)

    @pytest.mark.parametrize("n", [1, 5, 8, 9, 17, 128, 129, 200, 300, 1000])
    @pytest.mark.parametrize("holes", ["none", "zeros", "nan", "inf"])
    def test_long_vectors(self, n, holes):
        # past the pairwise sum's blocks of 8 and 128, with signed zeros,
        # NaN and infinities where the NumPy code meets them
        rng = np.random.default_rng(n)
        for _ in range(4):
            x, Pz = (rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n) for _ in "ab")
            D = np.exp(rng.uniform(0.0, 5.0, n))
            for v in (x, Pz):
                at = rng.random(n) < 0.1
                v[at] = {"none": v[at], "zeros": np.copysign(0.0, v[at]), "nan": np.nan,
                         "inf": np.copysign(np.inf, v[at])}[holes]
            z = np.abs(x)
            for U in (_U_JUST_ABOVE_1, 2.0, 1e3, 1e10):
                with np.errstate(all="ignore"):
                    got = identify_partition(x, Pz, U)
                    want = reference_identify_partition(x, Pz, U)
                    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
                    assert got[2] is want[2]
                    for mode in (epra.ALL_DIRECTIONS, SINGLE_DIRECTION):
                        for v in (x, z):
                            assert same_bits(rescale_update(v, Pz, D, U, mode),
                                             reference_rescale_update(v, Pz, D, U, mode))

    @pytest.mark.parametrize("form", ["strided", "float32", "integer U"])
    @pytest.mark.parametrize("n", [1, 5, 9, 130])
    def test_other_layouts_dtypes_and_integer_U(self, form, n):
        rng = np.random.default_rng(n)
        x, x_hat, Pz = (rng.standard_normal(2 * n) * 10.0 ** rng.uniform(-5.0, 5.0, 2 * n)
                        for _ in range(3))
        D = np.exp(rng.uniform(0.0, 5.0, 2 * n))
        vectors = (x, x_hat, Pz, D)
        if form == "strided":
            vectors = tuple(v[::2] for v in vectors)
        elif form == "float32":
            vectors = tuple(v[:n].astype(np.float32) for v in vectors)
        else:
            vectors = tuple(v[:n] for v in vectors)
        x, x_hat, Pz, D = vectors
        for U in ((3, 1000) if form == "integer U" else (3.0, 1e3)):
            got, want = identify_partition(x, x_hat, U), reference_identify_partition(x, x_hat, U)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            assert got[2] is want[2]
            for mode in (epra.ALL_DIRECTIONS, SINGLE_DIRECTION):
                for v in (x, np.abs(x)):
                    assert same_bits(rescale_update(v, Pz, D, U, mode),
                                     reference_rescale_update(v, Pz, D, U, mode)), (U, mode)

    def test_empty_vectors(self):
        for e in ([], np.zeros(0)):
            for fn in (identify_partition, reference_identify_partition):
                with pytest.raises(ValueError):
                    fn(e, e, 2.0)
            for fn in (rescale_update, reference_rescale_update):
                with pytest.raises(ValueError):
                    fn(e, e, e, 2.0, SINGLE_DIRECTION)
            assert same_bits(rescale_update(e, e, e, 2.0), reference_rescale_update(e, e, e, 2.0))

    def test_rescale_update_leaves_its_inputs(self):
        z, Pz, D = np.array([0.5, 0.25, 0.25]), np.array([0.1, -0.2, 0.3]), np.ones(3)
        before = [v.copy() for v in (z, Pz, D)]
        for mode in (epra.ALL_DIRECTIONS, SINGLE_DIRECTION):
            rescale_update(z, Pz, D, 4.0, mode)
        assert all(same_bits(v, w) for v, w in zip((z, Pz, D), before))


# the alpha floor epra.rescale_update hands the compiled module
FLOOR = epra._ALPHA_FLOOR


@pytest.mark.skipif(bploop.library() is None, reason="the compiled library is not built")
def test_compiled_bookkeeping_rejects_only_what_no_caller_can_mean():
    # any layout, dtype or list is converted; other sizes or dimensions raise
    lib, v, D = bploop.library(), np.array([0.5, -0.25, 0.0]), np.ones(3)
    for other in (v[:2], v[None]):
        for call in (lambda: lib.identify_partition(other, v, 2.0),
                     lambda: lib.identify_partition(v, other, 2.0),
                     lambda: lib.rescale_update(other, v, D, 2.0, False, FLOOR),
                     lambda: lib.rescale_update(v, v, other, 2.0, True, FLOOR)):
            with pytest.raises(ValueError, match="one size|dimensions"):
                call()
    with pytest.raises(ValueError, match="dimensions"):
        lib.rescale_update(v, v[None], D, 2.0, False, FLOOR)
    # Pz is not read in the single-direction mode
    assert lib.rescale_update(v, None, D, 2.0, True, FLOOR).tolist() == [2.0, 1.0, 1.0]
    with pytest.raises(ValueError, match="unknown rescale mode"):
        rescale_update(v, v, D, 2.0, "sideways")


@pytest.mark.skipif(bploop.library() is None, reason="the compiled library is not built")
def test_compiled_rescale_update_takes_the_alpha_floor_it_is_given():
    # Pz has no positive entry, so alpha is the floor
    lib, z, Pz, D = bploop.library(), np.array([0.5, 3.0]), -np.ones(2), np.ones(2)
    assert lib.rescale_update(z, Pz, D, 10.0, False, 1.0).tolist() == [1.0, 3.0]
    assert lib.rescale_update(z, Pz, D, 10.0, False, FLOOR).tolist() == [10.0, 10.0]


class TestSolveSmallInstances:
    def test_free_subspace_is_trivially_primal(self):
        res = solve(Instance(A=np.zeros((0, 3))))
        assert res.status == TRIVIAL_PRIMAL
        assert res.rounds == 0
        assert np.all(res.x > 0)
        assert res.B.tolist() == [0, 1, 2] and res.N.size == 0

    def test_one_dimensional_feasible_kernel(self):
        inst = Instance(A=np.array([[1.0, -2.0]]))
        res = solve(inst)
        assert res.status == TRIVIAL_PRIMAL
        assert res.B.tolist() == [0, 1]
        # x is a positive multiple of (2, 1)
        assert res.x[0] > 0
        assert abs(res.x[0] / res.x[1] - 2.0) <= 1e-6 * 2.0
        assert np.allclose(res.x_hat, 0.0)

    def test_axis_partition(self):
        inst = Instance(A=np.array([[0.0, 1.0]]))
        res = solve(inst)
        assert res.status == PARTITION_FOUND
        assert res.B.tolist() == [0]
        assert res.N.tolist() == [1]
        assert res.x[0] > 0 and abs(res.x[1]) <= res.x[0] / 1e10
        assert res.x_hat[1] > 0 and abs(res.x_hat[0]) <= res.x_hat[1] / 1e10

    def test_result_invariants_on_trivial_dual(self):
        # ker(A) = span{(2, -1)}: primal infeasible, dual strictly feasible
        inst = Instance(A=np.array([[1.0, 2.0]]))
        res = solve(inst)
        assert res.status == TRIVIAL_DUAL
        assert np.all(res.x_hat > 0)
        assert res.N.tolist() == [0, 1]
        assert abs(res.x_hat[1] / res.x_hat[0] - 2.0) <= 1e-6 * 2.0

    def test_membership_tolerances(self):
        rng = np.random.default_rng(19)
        inst = Instance(A=rng.standard_normal((3, 8)))
        res = solve(inst)
        assert res.status in (TRIVIAL_PRIMAL, TRIVIAL_DUAL, PARTITION_FOUND)
        if res.x.any():
            resid = np.max(np.abs(inst.A @ res.x))
            assert resid <= 1e-8 * max(1.0, float(np.max(np.abs(res.x))))

    def test_rescaling_state_stays_capped(self):
        inst = gen_controlled(4, 8, delta_cap=0.01, seed=77)
        res = solve(inst, EpraConfig(U=1e6))
        assert np.all(res.D >= 1.0) and np.all(res.D <= 1e6)
        assert np.all(res.D_hat >= 1.0) and np.all(res.D_hat <= 1e6)


class TestSolveControlled:
    def test_round_bound_against_condition_measure(self):
        for seed in range(5):
            inst = gen_controlled(5, 10, delta_cap=0.05, seed=200 + seed)
            res = solve(inst)
            assert res.status == TRIVIAL_PRIMAL
            delta = inst.meta.known_delta
            bound = np.inf if delta == 0 else np.ceil(np.log2(1.0 / delta)) + 10
            assert res.rounds <= bound

    def test_certificates_verify(self):
        for seed in range(5):
            inst = gen_controlled(6, 12, delta_cap=0.01, seed=300 + seed)
            res = solve(inst)
            rep = verify_relint_pair(inst, res, U=1e10)
            assert rep.relint_ok

    def test_single_direction_round_limit(self):
        inst = gen_controlled(10, 20, delta_cap=1e-4, seed=404)
        res = solve(inst, EpraConfig(rescale_mode=SINGLE_DIRECTION, max_rounds=5))
        assert res.status in (ROUND_LIMIT, STALLED)
        assert res.rounds <= 5

    def test_deterministic(self):
        inst = gen_controlled(5, 10, delta_cap=0.01, seed=11)
        r1 = solve(inst)
        r2 = solve(inst)
        assert r1.status == r2.status
        assert r1.rounds == r2.rounds
        assert np.array_equal(r1.x, r2.x)
        assert np.array_equal(r1.D, r2.D)


class TestSmallComponentProperty:
    def test_rescaled_index_has_small_true_component(self):
        # when the trigger fires at identity rescaling with z_i maximal,
        # every solution has i-th component at most half the max-norm;
        # the stored interior point is such a solution
        from epra_kit.subspace import projector_from_kernel

        fired = 0
        for seed in range(20):
            inst = gen_controlled(5, 10, delta_cap=0.05, seed=500 + seed)
            P = projector_from_kernel(inst.A).P
            out = basic.run_scheme(
                P, basic.uniform_simplex(10), basic.BpConfig(epsilon=0.5)
            )
            if out.status == RESCALE_READY:
                fired += 1
                i = int(np.argmax(out.z))
                x_bar = inst.meta.known_interior_point
                assert x_bar[i] <= 0.5 * np.max(x_bar) + 1e-9
        assert fired > 0  # the property was actually exercised


class TestDeltaDoubling:
    def test_closed_form_identity_is_exact(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            v = rng.uniform(0.5, 1.0, 8)
            i = int(rng.integers(0, 8))
            v[i] = 0.25 * np.max(v)  # enabling condition: v_i <= max/2
            doubled = v.copy()
            doubled[i] *= 2.0
            assert condition_measure_1d(doubled) == 2.0 * condition_measure_1d(v)


class TestAnomalyPaths:
    def _fake_scheme(self, outcomes):
        calls = {"k": 0}

        def fake(P, z0, cfg, callback=None):
            out = outcomes[min(calls["k"], len(outcomes) - 1)]
            calls["k"] += 1
            return out

        return fake

    def test_both_sides_interior_raises(self, monkeypatch):
        n = 4
        good = BpOutcome(INTERIOR_FOUND, np.full(n, 0.25), np.full(n, 0.25), 0)
        monkeypatch.setitem(basic.SCHEMES, "smooth", self._fake_scheme([good]))
        inst = Instance(A=np.array([[1.0, -1.0, 0.5, 0.25]]))
        with pytest.raises(BothSidesInterior):
            solve(inst)

    def test_rounding_level_certificate_is_dropped(self):
        # the primal side finds P z = (1.1e-16, 1.1e-16), rounding noise of
        # the exact zero in ker(A) = span{(1, -1)}; the dual side's (0.5, 0.5)
        # settles the instance
        inst = Instance(A=np.array([[1.0, 1.0]]))
        res = solve(inst)
        assert res.status == TRIVIAL_DUAL
        assert verify_relint_pair(inst, res, EpraConfig().U).relint_ok

    @pytest.mark.parametrize("primal_pz, dual_pz, expected", [
        (0.25, 1e-17, TRIVIAL_PRIMAL),
        (1e-17, 0.25, TRIVIAL_DUAL),
        (1e-17, 1e-17, None),
    ])
    def test_both_interior_keeps_the_side_above_rounding(self, monkeypatch, primal_pz, dual_pz,
                                                         expected):
        n = 4
        z = np.full(n, 0.25)
        outs = [BpOutcome(INTERIOR_FOUND, z, np.full(n, pz), 0) for pz in (primal_pz, dual_pz)]
        monkeypatch.setitem(basic.SCHEMES, "smooth", self._fake_scheme(outs))
        inst = Instance(A=np.array([[1.0, -1.0, 0.5, 0.25]]))
        if expected is None:
            with pytest.raises(BothSidesInterior):
                solve(inst)
        else:
            assert solve(inst).status == expected

    def test_no_rescale_progress_is_stalled(self, monkeypatch):
        n = 4
        z = np.full(n, 0.25)
        # trigger fires but z <= alpha everywhere, so the update is a no-op
        Pz = np.array([0.3, -1.0, -1.0, -1.0])
        out = BpOutcome(RESCALE_READY, z, Pz, 2)
        monkeypatch.setitem(basic.SCHEMES, "smooth", self._fake_scheme([out]))
        inst = Instance(A=np.array([[1.0, -1.0, 0.5, 0.25]]))
        res = solve(inst)
        assert res.status == STALLED
        assert res.rounds == 0

    def test_iteration_limited_sides_stall(self, monkeypatch):
        n = 4
        z = np.full(n, 0.25)
        out = BpOutcome(ITER_LIMIT, z, np.array([0.5, -0.5, 0.5, -0.5]), 10)
        monkeypatch.setitem(basic.SCHEMES, "smooth", self._fake_scheme([out]))
        inst = Instance(A=np.array([[1.0, -1.0, 0.5, 0.25]]))
        res = solve(inst)
        assert res.status == STALLED


class TestSolveInputChecks:
    @pytest.mark.parametrize("m", [0, 1])
    def test_empty_instance_raises(self, m):
        with pytest.raises(DimensionMismatch):
            solve(Instance(A=np.zeros((m, 0))))

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            solve(Instance(A=np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])))


class TestProjectorLifetime:
    """A solve holds one dense n x n projector at a time: each side's P is
    freed when its basic procedure returns, and a round's projectors and
    factors are freed before refinement or the next build.  After round 0
    each side is factored just before its run, so one side's factors are
    alive at a time."""

    def test_one_dense_projector_alive_at_a_time(self, monkeypatch):
        builds, runs, refines = [], [], []
        build, run_scheme, refine = epra.rescaled_projectors, basic.run_scheme, epra._refine_partition
        build_both = subspace.projector_from_kernel

        def recording(build):
            def recording_build(*args):
                pair = build(*args)
                arrays = [v for v in vars(pair).values() if isinstance(v, np.ndarray)]
                builds.append([weakref.ref(pair)] + [weakref.ref(a) for a in arrays])
                return pair
            return recording_build

        def recording_run(P, z0, cfg, callback=None):
            previous_alive = bool(runs) and runs[-1]() is not None
            assert not previous_alive, "the previous side's projector is still alive"
            out = run_scheme(P, z0, cfg, callback=callback)
            runs.append(weakref.ref(P))
            return out

        def recording_refine(*args):
            alive = [ref for refs in builds for ref in refs if ref() is not None]
            alive += [ref for ref in runs if ref() is not None]
            refines.append(len(alive))
            return refine(*args)

        monkeypatch.setattr(epra, "rescaled_projectors", recording(build))
        monkeypatch.setattr(subspace, "projector_from_kernel", recording(build_both))
        monkeypatch.setattr(basic, "run_scheme", recording_run)
        monkeypatch.setattr(epra, "_refine_partition", recording_refine)
        res = solve(gen_partitioned(30, seed=14))
        assert res.status == PARTITION_FOUND and res.rounds > 0
        assert refines == [0]
        assert len(runs) > 2 * (res.rounds + 1)  # the refinement's sub-solves ran too


    def test_each_side_factored_after_the_other_is_freed(self, monkeypatch):
        events, refs, rounds = [], [], []
        build, run_scheme, inner = epra.rescaled_projectors, basic.run_scheme, epra._solve
        build_both = subspace.projector_from_kernel

        def record(side, build, *args):
            events.append((side, sum(ref() is not None for ref in refs)))
            pair = build(*args)
            refs.extend(weakref.ref(v) for v in vars(pair).values()
                        if isinstance(v, np.ndarray))
            return pair

        def recording_build(A, D, D_hat):
            side = "dual" if D is None else "primal" if D_hat is None else "both"
            return record(side, build, A, D, D_hat)

        def recording_run(P, z0, cfg, callback=None):
            events.append(("run", None))
            refs.append(weakref.ref(P))
            return run_scheme(P, z0, cfg, callback=callback)

        def recording_solve(*args, **kwargs):
            res = inner(*args, **kwargs)
            rounds.append(res.rounds)
            return res

        monkeypatch.setattr(epra, "rescaled_projectors", recording_build)
        monkeypatch.setattr(subspace, "projector_from_kernel",
                            lambda A: record("both", build_both, A))
        monkeypatch.setattr(basic, "run_scheme", recording_run)
        monkeypatch.setattr(epra, "_solve", recording_solve)
        ran = ("run", None)

        def one_solve(r):
            # round 0 shares one factorization; every later round builds the
            # primal side, runs it, and only then builds the dual side, with
            # no array of an earlier build or run alive at either build
            return [("both", 0), ran, ran] + [("primal", 0), ran, ("dual", 0), ran] * r

        res = solve(gen_controlled(10, 30, seed=1))
        assert res.status == TRIVIAL_PRIMAL and res.rounds > 0
        assert events == one_solve(res.rounds)

        # the refinement's two sub-solves follow the last round, each built
        # and run like a solve of its own; here one rescales and one does not
        events.clear()
        rounds.clear()
        res = solve(gen_partitioned(30, seed=14))
        *sub_rounds, solve_rounds = rounds
        assert res.status == PARTITION_FOUND and solve_rounds == res.rounds
        assert len(sub_rounds) == 2 and min(sub_rounds) == 0 and max(sub_rounds) > 0
        assert events == sum(map(one_solve, [res.rounds] + sub_rounds), [])

    @staticmethod
    def _peak(fn):
        """(bytes fn allocates at its peak beyond what was live, fn's result)"""
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn()
            return tracemalloc.get_traced_memory()[1] - live, out
        finally:
            tracemalloc.stop()

    def _controlled_solve_peak(self):
        inst = gen_controlled(100, 200, delta_cap=1e-3, seed=3)
        solve(gen_controlled(3, 8, seed=1))  # first-call allocations
        solve_peak, res = self._peak(lambda: solve(inst))
        assert res.status == TRIVIAL_PRIMAL and res.rounds > 0
        return inst, solve_peak

    def test_solve_peaks_below_both_bases_and_one_projector(self):
        # what a solve that built both sides at once would hold while it
        # forms one side's dense projector
        inst, solve_peak = self._controlled_solve_peak()
        rng = np.random.default_rng(5)
        D, D_hat = 1.0 + rng.random(200), 1.0 + rng.random(200)
        both_peak, _ = self._peak(lambda: epra.rescaled_projectors(inst.A, D, D_hat).P)
        assert solve_peak < both_peak

    @pytest.mark.skipif(bploop.library() is None, reason="np.linalg.qr factors a copy")
    def test_solve_peaks_at_one_basis_and_one_projector(self):
        # one n x m basis and one dense n x n projector, plus 64 KiB for the
        # basic procedure's work vectors and the solve's own n-vectors
        # (1.6 KB each at n = 200); a side factored on a copy of its scaled
        # transpose, as np.linalg.qr does, peaks about 110 KiB above the bound
        _, solve_peak = self._controlled_solve_peak()
        n, m = 200, 100
        assert solve_peak <= 8 * (n * m + n * n) + 64 * 1024

    @pytest.mark.parametrize("n, seed", [(60, 1), (100, 6)])
    def test_refinement_peaks_below_the_rounds(self, monkeypatch, n, seed):
        # the refinement frees each side's matrices before the next side's
        # and never keeps A's n x n SVD factor, so the rounds' builds set
        # the solve's peak whether or not the instance refines; a
        # refinement that held the kernel basis and both sides' factors
        # peaked 12-42 KB above the rounds on these instances
        peaks = []
        refine = epra._refine_partition

        def measured_refine(*args):
            rounds_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            out = refine(*args)
            peaks.append((rounds_peak, tracemalloc.get_traced_memory()[1]))
            return out

        monkeypatch.setattr(epra, "_refine_partition", measured_refine)
        inst = gen_partitioned(n, seed=seed)
        solve(gen_controlled(3, 8, seed=1))  # first-call allocations
        _, res = self._peak(lambda: solve(inst))
        assert res.status == PARTITION_FOUND and len(peaks) == 1
        rounds_peak, refine_peak = peaks[0]
        assert refine_peak < rounds_peak


class TestReducedRowspace:
    @staticmethod
    def _split(A_B, A_N):
        A = np.hstack([A_B, A_N])
        k = A_B.shape[1]
        return A, np.arange(k), np.arange(k, A.shape[1])

    def test_full_column_rank_has_a_trivial_kernel(self):
        rng = np.random.default_rng(3)
        A, B, N = self._split(rng.standard_normal((6, 4)), rng.standard_normal((6, 5)))
        assert epra._reduced_rowspace(A, B, N) is None

    def test_full_row_rank_has_a_trivial_dual_restriction(self):
        # r = m: ker(A_B^T) = {0}, so no x_hat in Im(A^T) vanishes on B
        rng = np.random.default_rng(5)
        A, B, N = self._split(rng.standard_normal((3, 6)), rng.standard_normal((3, 4)))
        assert epra._reduced_rowspace(A, B, N) is None

    def _rank_deficient(self):
        rng = np.random.default_rng(4)
        A_B = rng.standard_normal((4, 3))
        A_B = np.hstack([A_B, A_B[:, :2]])  # rank 3 from five columns
        A, B, N = self._split(A_B, rng.standard_normal((4, 6)))
        return A, B, N, epra._reduced_rowspace(A, B, N)

    def test_keeps_the_kernel_with_orthonormal_rows(self):
        A, B, _, (R, _) = self._rank_deficient()
        A_B = A[:, B]
        assert R.shape == (3, 5)
        assert np.allclose(R @ R.T, np.eye(3))
        # the same row space, so the same kernel
        assert np.allclose(A_B - A_B @ R.T @ R, 0.0)

    def test_dual_rows_span_the_dual_restriction(self):
        A, B, N, (_, M) = self._rank_deficient()
        # W spans ker(A_B^T): one column here, as m - r = 1
        W = np.linalg.svd(A[:, B])[0][:, 3:]
        assert np.max(np.abs(W.T @ A[:, B])) < 1e-12
        assert M.shape == (1, 6) and np.linalg.matrix_rank(M) == 1
        # rows in Im(A_N^T W): M^T = A_N^T W c for some c
        c, *_ = np.linalg.lstsq(A[:, N].T @ W, M.T, rcond=None)
        assert np.allclose(A[:, N].T @ W @ c, M.T)


class TestOneFactorizationPerRefinement:
    @pytest.mark.parametrize("n, seed, overrides, accepted", [
        (30, 0, {"scheme": "vna"}, True), (50, 7, {"U": 100.0}, False),
    ])
    def test_one_svd_of_a_b(self, monkeypatch, n, seed, overrides, accepted):
        # no n x n SVD of A, and no second one for the dual side
        inst = gen_partitioned(n, seed)
        shapes, refines = [], []
        svd, refine = np.linalg.svd, epra._refine_partition

        def counted_svd(M, *args, **kwargs):
            shapes.append(M.shape)
            return svd(M, *args, **kwargs)

        def counted_refine(A, B, N, cfg):
            before = len(shapes)
            out = refine(A, B, N, cfg)
            refines.append((shapes[before:], (A.shape[0], len(B)), out is not None))
            return out

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(epra, "_refine_partition", counted_refine)
        solve(inst, EpraConfig(**overrides))
        assert refines and refines[-1][2] == accepted
        assert len(shapes) == len(refines)
        for got, a_b, _ in refines:
            assert got == [a_b]


class TestRefinedDualCertificate:
    @pytest.mark.parametrize("n, seed", [(12, 3), (12, 9), (30, 0), (30, 2), (50, 0), (50, 1)])
    def test_refined_pair_certifies_the_known_partition(self, monkeypatch, n, seed):
        accepted = []
        refine = epra._refine_partition

        def recorded(*args):
            out = refine(*args)
            accepted.append(out is not None)
            return out

        monkeypatch.setattr(epra, "_refine_partition", recorded)
        inst = gen_partitioned(n, seed)
        cfg = EpraConfig(scheme="vna")
        res = solve(inst, cfg)
        assert res.status == PARTITION_FOUND and accepted[-1]
        assert np.all(res.x_hat[res.B] == 0.0) and np.all(res.x_hat[res.N] > 0.0)
        assert np.all(res.x[res.N] == 0.0) and np.all(res.x[res.B] > 0.0)
        report = verify_relint_pair(inst, res, cfg.U)
        assert report.relint_ok and report.partition_matches_ground_truth is True


class TestResultIO:
    def test_round_trip(self, tmp_path):
        inst = Instance(A=np.array([[0.0, 1.0]]))
        res = solve(inst)
        path = tmp_path / "result.json"
        save_result(res, path)
        back = load_result(path)
        assert back.status == res.status
        assert np.array_equal(back.x, res.x)
        assert back.B.tolist() == res.B.tolist()
        assert back.rounds == res.rounds

    def test_one_based_indices_on_disk(self, tmp_path):
        inst = Instance(A=np.array([[0.0, 1.0]]))
        res = solve(inst)
        path = tmp_path / "result.json"
        save_result(res, path)
        doc = json.loads(path.read_text())
        assert doc["B"] == [1]
        assert doc["N"] == [2]

    @pytest.mark.parametrize("field, value", [
        ("rounds", 2.5), ("bp_iters_primal", True), ("bp_iters_dual", -1), ("B", [1.5]),
        ("N", [0]),
    ])
    def test_load_rejects_non_integral_counts_and_indices(self, tmp_path, field, value):
        # int() used to truncate them
        path = tmp_path / "result.json"
        save_result(solve(Instance(A=np.array([[0.0, 1.0]]))), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{field} must be"):
            load_result(path)

    @pytest.mark.parametrize("status", ["done", "Trivial_primal", "", 1, None])
    def test_load_rejects_unknown_statuses(self, tmp_path, status):
        path = tmp_path / "result.json"
        save_result(solve(Instance(A=np.array([[0.0, 1.0]]))), path)
        doc = json.loads(path.read_text())
        doc["status"] = status
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="status must be one of"):
            load_result(path)

    def test_load_takes_every_status(self, tmp_path):
        path = tmp_path / "result.json"
        save_result(solve(Instance(A=np.array([[0.0, 1.0]]))), path)
        doc = json.loads(path.read_text())
        for status in epra.STATUSES:
            doc["status"] = status
            path.write_text(json.dumps(doc))
            assert load_result(path).status == status


class TestConfigCounts:
    @pytest.mark.parametrize("field, least", [("max_rounds", 1), ("bp_max_iters", 0)])
    @pytest.mark.parametrize("bad", [1.5, 3.0, True, "4", None])
    def test_counts_must_be_integers(self, field, least, bad):
        with pytest.raises(ValueError, match=field):
            EpraConfig(**{field: bad})

    @pytest.mark.parametrize("field, least", [("max_rounds", 1), ("bp_max_iters", 0)])
    def test_counts_have_a_floor(self, field, least):
        assert getattr(EpraConfig(**{field: np.int64(least)}), field) == least
        with pytest.raises(ValueError, match=field):
            EpraConfig(**{field: least - 1})


@pytest.mark.parametrize("field, value, message", [
    ("epsilon", 0.0, "epsilon"),
    ("epsilon", 1.0, "epsilon"),
    ("epsilon", float("nan"), "epsilon"),
    ("U", 1.0, "U must exceed 1"),
    ("U", float("nan"), "U must exceed 1"),
    ("U", float("inf"), "U must exceed 1"),
])
def test_config_rejects_out_of_range_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        EpraConfig(**{field: value})


def test_config_rejects_an_unknown_scheme_when_built():
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        EpraConfig(scheme="bogus")


@pytest.mark.parametrize("config", [
    BpConfig(), EpraConfig(), ExperimentManifest(experiment="EpraControlled", sizes=[[3, 8]]),
], ids=lambda config: type(config).__name__)
def test_configs_are_frozen(config):
    # a setting checked when the config was built holds for its whole life
    for f in dataclasses.fields(config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, f.name, getattr(config, f.name))


def test_replace_checks_the_new_value():
    cfg = EpraConfig()
    # assigning used to skip the check: U = 0.5 solved as `stalled`
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.U = 0.5
    assert dataclasses.replace(cfg, U=2.0).U == 2.0
    with pytest.raises(ValueError, match="U must exceed 1"):
        dataclasses.replace(cfg, U=0.5)

import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest

import epra_kit.basic as basic
import epra_kit.epra as epra
from epra_kit import blas
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

        def recording_build(*args):
            pair = build(*args)
            arrays = [v for v in vars(pair).values() if isinstance(v, np.ndarray)]
            builds.append([weakref.ref(pair)] + [weakref.ref(a) for a in arrays])
            return pair

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

        monkeypatch.setattr(epra, "rescaled_projectors", recording_build)
        monkeypatch.setattr(basic, "run_scheme", recording_run)
        monkeypatch.setattr(epra, "_refine_partition", recording_refine)
        res = solve(gen_partitioned(30, seed=14))
        assert res.status == PARTITION_FOUND and res.rounds > 0
        assert refines == [0]
        assert len(runs) > 2 * (res.rounds + 1)  # the refinement's sub-solves ran too


    def test_each_side_factored_after_the_other_is_freed(self, monkeypatch):
        events, refs, rounds = [], [], []
        build, run_scheme, inner = epra.rescaled_projectors, basic.run_scheme, epra._solve

        def recording_build(A, D, D_hat):
            side = "dual" if D is None else "primal" if D_hat is None else "both"
            events.append((side, sum(ref() is not None for ref in refs)))
            pair = build(A, D, D_hat)
            refs.extend(weakref.ref(v) for v in vars(pair).values()
                        if isinstance(v, np.ndarray))
            return pair

        def recording_run(P, z0, cfg, callback=None):
            events.append(("run", None))
            refs.append(weakref.ref(P))
            return run_scheme(P, z0, cfg, callback=callback)

        def recording_solve(*args, **kwargs):
            res = inner(*args, **kwargs)
            rounds.append(res.rounds)
            return res

        monkeypatch.setattr(epra, "rescaled_projectors", recording_build)
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

    @pytest.mark.skipif(blas.lapack_qr() is None, reason="np.linalg.qr factors a copy")
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
    def test_no_rows_keeps_every_column_free(self):
        M = epra._reduced_rowspace(np.zeros((0, 4)))
        assert M.shape == (0, 4)

    def test_full_column_rank_has_a_trivial_kernel(self):
        M = np.random.default_rng(3).standard_normal((6, 4))
        assert epra._reduced_rowspace(M) is None

    def test_keeps_the_kernel_with_orthonormal_rows(self):
        M = np.random.default_rng(4).standard_normal((2, 7))
        M = np.vstack([M, M[0] + M[1]])  # rank 2 from three rows
        R = epra._reduced_rowspace(M)
        assert R.shape == (2, 7)
        assert np.allclose(R @ R.T, np.eye(2))
        # the same row space, so the same kernel
        assert np.allclose(M - M @ R.T @ R, 0.0)


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

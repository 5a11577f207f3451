import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from epra_kit.basic import (
    BpConfig,
    INTERIOR_FOUND,
    ITER_LIMIT,
    RESCALE_READY,
    SCHEMES,
    away_vertex,
    project_simplex,
    run_perceptron,
    run_scheme,
    run_smooth,
    run_von_neumann,
    run_vna,
    simplex_prox,
    stop_check,
    uniform_simplex,
)
from epra_kit.exceptions import EmptySupport, NoThreshold
from epra_kit.subspace import projector_from_kernel

LINE_P = np.array([[0.5, -0.5], [-0.5, 0.5]])  # projector onto span{(1,-1)}


def random_projector(m, n, seed):
    rng = np.random.default_rng(seed)
    return projector_from_kernel(rng.standard_normal((m, n))).P


class TestStopCheck:
    def test_interior_when_projection_is_identity(self):
        z = uniform_simplex(4)
        assert stop_check(z, z, 0.5) == INTERIOR_FOUND

    def test_rescale_when_projection_vanishes(self):
        assert stop_check([0.0, 0.0], [0.5, 0.5], 0.5) == RESCALE_READY

    def test_neither(self):
        assert stop_check([0.0, 0.5], [0.5, 0.5], 0.5) is None

    def test_strict_zero_is_not_interior(self):
        assert stop_check([0.0, 1.0], [0.9, 0.1], 0.01) is None


class TestVertexMaps:
    def test_away_vertex_support_restriction(self):
        assert away_vertex([0.5, 0.0, 0.5], [0.2, 0.9, -0.1]) == 0
        assert away_vertex([1.0], [-3.0]) == 0
        assert away_vertex([0.5, 0.5], [0.4, 0.4]) == 0  # tie -> lowest index

    def test_away_vertex_empty_support(self):
        with pytest.raises(EmptySupport):
            away_vertex([0.0, 0.0], [1.0, 1.0])


class TestSimplexProx:
    def test_interior_preimage(self):
        out = simplex_prox([-0.2, 0.2], 2.0, [0.5, 0.5])
        assert np.allclose(out, [0.6, 0.4], atol=1e-12)

    def test_vertex_solution(self):
        out = simplex_prox([-4.0, 4.0], 2.0, [0.5, 0.5])
        assert np.allclose(out, [1.0, 0.0], atol=1e-12)

    def test_uniform_shift_invariance(self):
        u_bar = np.array([0.2, 0.3, 0.5])
        for c in (-3.0, 0.0, 7.5):
            out = simplex_prox(np.full(3, c), 2.0, u_bar)
            assert np.allclose(out, u_bar, atol=1e-12)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.standard_normal(6) * 10
            u_bar = project_simplex(rng.standard_normal(6))
            out = simplex_prox(v, rng.uniform(0.1, 5.0), u_bar)
            assert np.all(out >= 0)
            assert abs(out.sum() - 1.0) <= 1e-9

    def test_against_brute_force_grid(self):
        # dense grid over the 2-simplex as an independent minimizer
        h = 1.0 / 1500
        g1, g2 = np.meshgrid(np.arange(0, 1 + h, h), np.arange(0, 1 + h, h))
        mask = g1 + g2 <= 1.0 + 1e-15
        pts = np.stack([g1[mask], g2[mask], 1.0 - g1[mask] - g2[mask]], axis=1)
        rng = np.random.default_rng(9)
        for _ in range(5):
            v = rng.standard_normal(3)
            mu = rng.uniform(0.5, 2.0)
            u_bar = project_simplex(rng.standard_normal(3))
            obj = pts @ v + 0.5 * mu * np.sum((pts - u_bar) ** 2, axis=1)
            best = float(np.min(obj))
            out = simplex_prox(v, mu, u_bar)
            f_out = float(out @ v + 0.5 * mu * np.sum((out - u_bar) ** 2))
            assert f_out <= best + 1e-9  # the prox point is at least as good
            assert abs(f_out - best) <= 1e-6  # and the grid agrees closely

    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            simplex_prox([1.0, 2.0], 0.0, [0.5, 0.5])


class TestSchemesTrivialCases:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_identity_projector_interior_at_zero(self, scheme):
        out = run_scheme(np.eye(4), uniform_simplex(4), BpConfig(scheme=scheme))
        assert out.status == INTERIOR_FOUND
        assert out.iterations == 0

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_zero_projector_rescale_at_zero(self, scheme):
        out = run_scheme(
            np.zeros((4, 4)), uniform_simplex(4), BpConfig(epsilon=0.5, scheme=scheme)
        )
        assert out.status == RESCALE_READY
        assert out.iterations == 0

    def test_start_must_be_on_simplex(self):
        with pytest.raises(ValueError):
            run_perceptron(np.eye(2), np.array([0.9, 0.3]), BpConfig())

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("z0", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0],
                                    [0.5, 0.5, np.nan]])
    def test_start_must_be_finite(self, scheme, z0):
        # a NaN makes the sum test pass: such a start used to run to the cap
        n = len(z0)
        with pytest.raises(ValueError):
            run_scheme(np.eye(n), np.array(z0), BpConfig(scheme=scheme, max_iters=50))

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("callback", [None, lambda *_: None], ids=["compiled", "callback"])
    @pytest.mark.parametrize("z0", [
        [np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], [np.inf, -np.inf], [1.5, -0.5],
        [], [[0.5, 0.5]], [0.5, 0.4], [1.0, 1.0],
    ], ids=["nan", "inf", "-inf", "both-inf", "negative", "empty", "2-d", "below", "above"])
    def test_start_off_the_simplex_is_rejected(self, scheme, callback, z0):
        z0 = np.array(z0)
        n = z0.shape[-1]
        with pytest.raises(ValueError, match="standard simplex"):
            run_scheme(np.eye(n), z0, BpConfig(scheme=scheme, max_iters=50), callback)


class TestConfigCounts:
    @pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "3", None, -1])
    def test_max_iters_must_be_a_nonnegative_integer(self, bad):
        # a cap of 1.5 used to run two steps
        with pytest.raises(ValueError):
            BpConfig(max_iters=bad)

    @pytest.mark.parametrize("good", [0, 1, np.int64(7), 10**30])
    def test_integer_caps_are_accepted(self, good):
        assert BpConfig(max_iters=good).max_iters == good


class TestPerceptron:
    def test_first_update_replaces_z_with_vertex(self):
        # at t = 0 the averaging coefficient is zero, so z_1 = e_i exactly
        seen = []
        run_perceptron(
            LINE_P,
            np.array([0.9, 0.1]),
            BpConfig(epsilon=0.1, max_iters=1),
            callback=lambda t, z, Pz: seen.append(z.copy()),
        )
        assert np.array_equal(seen[1], np.array([0.0, 1.0]))

    def test_iter_limit(self):
        out = run_perceptron(LINE_P, np.array([0.9, 0.1]), BpConfig(epsilon=1e-6, max_iters=1))
        assert out.status == ITER_LIMIT
        assert out.iterations == 1


class TestVonNeumann:
    def test_hand_worked_two_dimensional_run(self):
        out = run_von_neumann(
            np.diag([0.0, 1.0]), np.array([0.5, 0.5]), BpConfig(epsilon=0.5)
        )
        assert out.status == RESCALE_READY
        assert out.iterations == 1
        assert np.allclose(out.z, [1.0, 0.0], atol=1e-15)
        assert np.allclose(out.Pz, [0.0, 0.0], atol=1e-15)

    def test_descent_on_random_instance(self):
        P = random_projector(5, 10, seed=31)
        norms = []
        run_von_neumann(
            P,
            uniform_simplex(10),
            BpConfig(epsilon=0.1),
            callback=lambda t, z, Pz: norms.append(float(np.linalg.norm(Pz))),
        )
        diffs = np.diff(norms)
        assert np.all(diffs <= 1e-12)


class TestVnAway:
    def test_descent_and_simplex_invariance(self):
        P = random_projector(6, 12, seed=37)
        norms, sums = [], []

        def cb(t, z, Pz):
            norms.append(float(np.linalg.norm(Pz)))
            sums.append(float(z.sum()))
            assert np.all(z >= 0)

        out = run_vna(P, uniform_simplex(12), BpConfig(epsilon=0.1), callback=cb)
        assert out.status in (INTERIOR_FOUND, RESCALE_READY)
        assert np.all(np.diff(norms) <= 1e-12)
        assert np.max(np.abs(np.array(sums) - 1.0)) <= 1e-9

    def test_away_cap_from_vertex_falls_back_to_regular_step(self):
        # z starts at a vertex: the away step cannot move, but the run
        # must proceed without a division by zero
        z0 = np.array([1.0, 0.0, 0.0])
        P = random_projector(1, 3, seed=41)
        out = run_vna(P, z0, BpConfig(epsilon=0.2, max_iters=50))
        assert out.status in (INTERIOR_FOUND, RESCALE_READY, ITER_LIMIT)


class TestSmooth:
    def test_first_iteration_matches_reconstruction(self):
        P = random_projector(2, 5, seed=43)
        u_bar = uniform_simplex(5)
        seen = []
        run_smooth(
            P,
            u_bar,
            BpConfig(epsilon=1e-9, max_iters=2),
            callback=lambda t, z, Pz: seen.append((z.copy(), Pz.copy())),
        )
        # rebuild z_1 from the published update rule
        mu0 = 2.0
        w0 = simplex_prox(P @ u_bar, mu0, u_bar)
        z0 = w0
        assert np.allclose(seen[0][0], z0, atol=1e-12)
        theta0 = 2.0 / 3.0
        u1 = (1 - theta0) * (u_bar + theta0 * z0) + theta0**2 * w0
        mu1 = (1 - theta0) * mu0
        z1 = (1 - theta0) * z0 + theta0 * simplex_prox(P @ u1, mu1, u_bar)
        assert np.allclose(seen[1][0], z1, atol=1e-12)

    def test_iterates_stay_on_simplex(self):
        P = random_projector(10, 20, seed=47)

        def cb(t, z, Pz):
            assert np.all(z >= -1e-15)
            assert abs(z.sum() - 1.0) <= 1e-9

        out = run_smooth(P, uniform_simplex(20), BpConfig(epsilon=0.1), callback=cb)
        assert out.status in (INTERIOR_FOUND, RESCALE_READY)


def reference_stop_check(Pz, z, epsilon):
    """basic.stop_check as first written: the minimum and the full positive
    sum on every call.  Frozen here so the bitwise reference runs below do
    not change along with the code they check."""
    Pz = np.asarray(Pz, dtype=float)
    z = np.asarray(z, dtype=float)
    if float(Pz.min()) > 0.0:
        return INTERIOR_FOUND
    if float(np.maximum(Pz, 0.0).sum()) <= epsilon * float(z.max()):
        return RESCALE_READY
    return None


def reference_project_simplex(y):
    """basic.project_simplex as first written (sort-based, fresh arrays),
    frozen like reference_stop_check."""
    y = np.asarray(y, dtype=float)
    u = np.sort(y)[::-1]
    css = u.cumsum()
    ks = np.arange(1, y.size + 1)
    k = int(np.nonzero(u > (css - 1.0) / ks)[0][-1]) + 1
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(y - tau, 0.0)


def reference_smooth(P, u_bar, cfg):
    """The smooth perceptron written out with fresh arrays every step and
    the auxiliary iterate u formed explicitly; run_smooth must reproduce
    its bits."""
    u = np.array(u_bar, dtype=float)
    mu = 2.0
    Pu = P @ u
    w = reference_project_simplex(u_bar - Pu / mu)
    z = w.copy()
    Pw = P @ w
    Pz = Pw.copy()
    t = 0
    while True:
        status = reference_stop_check(Pz, z, cfg.epsilon)
        if status is not None:
            Pz = P @ z
            status = reference_stop_check(Pz, z, cfg.epsilon)
            if status is not None:
                return status, z, Pz, t
        if cfg.max_iters and t >= cfg.max_iters:
            Pz = P @ z
            return reference_stop_check(Pz, z, cfg.epsilon) or ITER_LIMIT, z, Pz, t
        theta = 2.0 / (t + 3)
        u = (1.0 - theta) * (u + theta * z) + theta**2 * w
        Pu = (1.0 - theta) * (Pu + theta * Pz) + theta**2 * Pw
        mu = (1.0 - theta) * mu
        w = reference_project_simplex(u_bar - Pu / mu)
        Pw = P @ w
        z = (1.0 - theta) * z + theta * w
        Pz = (1.0 - theta) * Pz + theta * Pw
        t += 1


class TestSmoothMatchesReference:
    # m = 12 mostly finds interior points, m = 15 mostly rescales or runs
    # into the cap of 300 steps
    @pytest.mark.parametrize("m", [12, 15])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("epsilon, max_iters", [(0.5, 0), (0.05, 0), (1e-9, 300)])
    def test_bit_identical(self, m, seed, epsilon, max_iters):
        P = random_projector(m, 30, seed=200 + seed)
        cfg = BpConfig(epsilon=epsilon, max_iters=max_iters)
        status, z, Pz, t = reference_smooth(P, uniform_simplex(30), cfg)
        out = run_smooth(P, uniform_simplex(30), cfg)
        assert (out.status, out.iterations) == (status, t)
        assert out.z.tobytes() == z.tobytes()
        assert out.Pz.tobytes() == Pz.tobytes()


def reference_perceptron(P, z0, cfg, seen):
    """The perceptron written out with fresh arrays every step.  seen
    collects the loop events the run went through: "refresh" (periodic),
    "false_alarm" (a tracked stop that the fresh projection rejects) and
    "cap"."""
    z = np.array(z0, dtype=float)
    Pz = P @ z
    t = since_refresh = 0
    while True:
        if reference_stop_check(Pz, z, cfg.epsilon) is not None:
            Pz = P @ z
            since_refresh = 0
            status = reference_stop_check(Pz, z, cfg.epsilon)
            if status is not None:
                return status, z, Pz, t
            seen.add("false_alarm")
        if cfg.max_iters and t >= cfg.max_iters:
            seen.add("cap")
            Pz = P @ z
            return reference_stop_check(Pz, z, cfg.epsilon) or ITER_LIMIT, z, Pz, t
        i = int(np.argmin(Pz))
        beta = 1.0 / (t + 1)
        z = (1.0 - beta) * z
        z[i] += beta
        Pz = (1.0 - beta) * Pz + beta * P[:, i]
        t += 1
        since_refresh += 1
        if since_refresh >= 128:
            seen.add("refresh")
            Pz = P @ z
            since_refresh = 0


def reference_von_neumann(P, z0, cfg, seen):
    """The von Neumann scheme written out like reference_perceptron."""
    z = np.array(z0, dtype=float)
    Pz = P @ z
    t = since_refresh = 0
    while True:
        if reference_stop_check(Pz, z, cfg.epsilon) is not None:
            Pz = P @ z
            since_refresh = 0
            status = reference_stop_check(Pz, z, cfg.epsilon)
            if status is not None:
                return status, z, Pz, t
            seen.add("false_alarm")
        if cfg.max_iters and t >= cfg.max_iters:
            seen.add("cap")
            Pz = P @ z
            return reference_stop_check(Pz, z, cfg.epsilon) or ITER_LIMIT, z, Pz, t
        i = int(np.argmin(Pz))
        Pu = P[:, i]
        pz2 = float(Pz @ Pz)
        upz = float(Pz[i])
        theta = (pz2 - upz) / (pz2 + float(Pu @ Pu) - 2.0 * upz)
        theta = min(1.0, max(0.0, theta))
        z = (1.0 - theta) * z
        z[i] += theta
        Pz = (1.0 - theta) * Pz + theta * Pu
        t += 1
        since_refresh += 1
        if since_refresh >= 128:
            seen.add("refresh")
            Pz = P @ z
            since_refresh = 0


def reference_vna(P, z0, cfg, seen):
    """The von Neumann scheme with away steps written out like
    reference_perceptron; an away step with theta > 0.5 adds
    "forced_refresh" to seen."""
    z = np.array(z0, dtype=float)
    Pz = P @ z
    t = since_refresh = 0
    while True:
        if reference_stop_check(Pz, z, cfg.epsilon) is not None:
            Pz = P @ z
            since_refresh = 0
            status = reference_stop_check(Pz, z, cfg.epsilon)
            if status is not None:
                return status, z, Pz, t
            seen.add("false_alarm")
        if cfg.max_iters and t >= cfg.max_iters:
            seen.add("cap")
            Pz = P @ z
            return reference_stop_check(Pz, z, cfg.epsilon) or ITER_LIMIT, z, Pz, t
        pz2 = float(Pz @ Pz)
        iu = int(np.argmin(Pz))
        iv = int(np.argmax(np.where(z > 0, Pz, -np.inf)))
        away = pz2 - float(Pz[iu]) <= float(Pz[iv]) - pz2 and float(z[iv]) < 1.0
        if away:
            Pa = Pz - P[:, iv]
            theta_max = float(z[iv]) / (1.0 - float(z[iv]))
        else:
            Pa = P[:, iu] - Pz
            theta_max = 1.0
        theta = min(theta_max, -float(z @ Pa) / float(Pa @ Pa))
        if away:
            z = (1.0 + theta) * z
            z[iv] -= theta
            z = np.maximum(z, 0.0)
            Pz = (1.0 + theta) * Pz - theta * P[:, iv]
        else:
            z = (1.0 - theta) * z
            z[iu] += theta
            Pz = (1.0 - theta) * Pz + theta * P[:, iu]
        t += 1
        since_refresh += 1
        if away and theta > 0.5:
            seen.add("forced_refresh")
            Pz = P @ z
            since_refresh = 0
        elif since_refresh >= 128:
            seen.add("refresh")
            Pz = P @ z
            since_refresh = 0


def drift_epsilon(scheme, P, z0, max_iters):
    """An epsilon at which the tracked projection meets the rescaling test
    at some step while the fresh projection does not, and no earlier step
    meets it, so a run with this epsilon starts with a drift false alarm.
    None when no step of the run qualifies."""
    steps = []

    def record(t, z, Pz):
        tracked = float(np.maximum(Pz, 0.0).sum())
        fresh = float(np.maximum(P @ z, 0.0).sum())
        steps.append((tracked, fresh, float(z.max())))

    run_scheme(P, z0, BpConfig(epsilon=1e-300, max_iters=max_iters, scheme=scheme),
               callback=record)
    tracked = np.array([s[0] for s in steps])
    z_max = np.array([s[2] for s in steps])
    for t, (tr, fr, zm) in enumerate(steps):
        eps = tr / zm
        if not (tr < fr and 0.0 < eps < 0.5):
            continue
        while eps * zm < tr:
            eps = float(np.nextafter(eps, 1.0))
        if eps * zm < fr and np.all(tracked[:t] > eps * z_max[:t]):
            return eps
    return None


VERTEX_REFERENCES = {
    "perceptron": (run_perceptron, reference_perceptron),
    "vn": (run_von_neumann, reference_von_neumann),
    "vna": (run_vna, reference_vna),
}


class TestVertexSchemesMatchReference:
    @pytest.mark.parametrize("scheme", sorted(VERTEX_REFERENCES))
    def test_bit_identical(self, scheme):
        run, reference = VERTEX_REFERENCES[scheme]
        seen = set()
        for m in (12, 15):
            for seed in range(4):
                P = random_projector(m, 30, seed=200 + seed)
                # a start with weight 0.36 on one vertex makes vna take
                # away steps with theta > 0.5
                leaning = np.full(30, 0.64 / 29)
                leaning[3] = 0.36
                for z0 in (uniform_simplex(30), leaning):
                    cases = [(0.5, 0), (0.05, 0), (1e-9, 300)]
                    eps = drift_epsilon(scheme, P, z0, 600)
                    if eps is not None:
                        cases.append((eps, 600))
                    for epsilon, max_iters in cases:
                        cfg = BpConfig(epsilon=epsilon, max_iters=max_iters)
                        status, z, Pz, t = reference(P, z0, cfg, seen)
                        out = run(P, z0, cfg)
                        assert (out.status, out.iterations) == (status, t)
                        assert out.z.tobytes() == z.tobytes()
                        assert out.Pz.tobytes() == Pz.tobytes()
        # the cases reach every branch of the loop
        expected = {"refresh", "false_alarm", "cap"}
        if scheme == "vna":
            expected.add("forced_refresh")
        assert expected <= seen


@pytest.mark.usefixtures("python_driver")
class TestSmoothMatchesReferencePythonDriver(TestSmoothMatchesReference):
    pass


@pytest.mark.usefixtures("python_driver")
class TestVertexSchemesMatchReferencePythonDriver(TestVertexSchemesMatchReference):
    pass


class TestOutcomeSoundness:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_returned_status_repasses_stop_check(self, scheme):
        for seed in range(8):
            P = random_projector(4, 8, seed=100 + seed)
            cfg = BpConfig(epsilon=0.25, max_iters=2000, scheme=scheme)
            out = run_scheme(P, uniform_simplex(8), cfg)
            assert np.all(out.z >= 0) and out.z.sum() > 0
            if out.status != ITER_LIMIT:
                assert stop_check(out.Pz, out.z, cfg.epsilon) == out.status
            # the reported projection is the honest one
            assert np.allclose(out.Pz, P @ out.z, atol=1e-9)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_simplex_invariance_along_the_run(self, scheme):
        P = random_projector(5, 10, seed=53)

        def cb(t, z, Pz):
            assert abs(z.sum() - 1.0) <= 1e-9
            assert np.all(z >= -1e-15)

        run_scheme(P, uniform_simplex(10), BpConfig(epsilon=0.2, scheme=scheme), callback=cb)


@pytest.mark.usefixtures("python_driver")
class TestOutcomeSoundnessPythonDriver(TestOutcomeSoundness):
    pass


# stop-check inputs: a small pool makes ties, signed zeros and sums that
# meet the bound exactly likely; wide floats and NaN cover the rest
_POOL = st.sampled_from([-1.0, -0.25, -0.0, 0.0, 0.125, 0.25, 0.5, 1.0, np.nan])
_ENTRY = st.one_of(_POOL, st.floats(-1e3, 1e3), st.floats(allow_nan=True, allow_infinity=True))
_Z_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.nan]), st.floats(0.0, 1e3)
)
_EPSILON = st.one_of(
    st.sampled_from([0.25, 0.5, 0.75]),
    st.floats(5e-324, 1e-6),
    st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@st.composite
def stop_inputs(draw):
    n = draw(st.integers(1, 12))
    Pz = draw(hnp.arrays(np.float64, n, elements=_ENTRY))
    shape = draw(st.sampled_from(["any", "nonpositive", "zeros"]))
    if shape == "nonpositive":
        Pz = -np.abs(Pz)
    elif shape == "zeros":
        Pz = np.zeros(n) * draw(st.sampled_from([1.0, -1.0]))
    z = draw(hnp.arrays(np.float64, n, elements=_Z_ENTRY))
    return Pz, z, draw(_EPSILON)


class TestStopCheckMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(stop_inputs(), st.booleans())
    def test_same_status(self, case, as_lists):
        Pz, z, epsilon = case
        # the positive part's sum may overflow to inf, which still compares
        # as it must; the solver's drivers run the check with overflow off
        with np.errstate(over="ignore"):
            expected = reference_stop_check(Pz, z, epsilon)
            if as_lists:
                Pz, z = Pz.tolist(), z.tolist()
            assert stop_check(Pz, z, epsilon) == expected

    def test_bound_met_exactly(self):
        # the positive part sums to exactly epsilon * max(z), and its
        # largest term alone is within the bound
        Pz = np.array([0.25, -1.0, 0.25, 0.0])
        z = np.array([0.5, 1.0, 0.0, 0.0])
        assert reference_stop_check(Pz, z, 0.5) == RESCALE_READY
        assert stop_check(Pz, z, 0.5) == RESCALE_READY
        assert stop_check(Pz, z, np.nextafter(0.5, 0.0)) is None


class TestProjectSimplexMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 300),
            elements=st.one_of(
                st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0]), st.floats(-1e12, 1e12)
            ),
        )
    )
    def test_same_bytes(self, y):
        expected = reference_project_simplex(y).tobytes()
        assert project_simplex(y).tobytes() == expected
        assert project_simplex(y.tolist()).tobytes() == expected

    @pytest.mark.parametrize("y", [[1e17, 1e17], [np.inf], [np.nan, 0.0]])
    def test_no_threshold_index_raises_like_reference(self, y):
        with pytest.raises(IndexError):
            reference_project_simplex(y)
        with pytest.raises(NoThreshold):  # typed, and still an IndexError
            project_simplex(y)


def _run_bytes(out):
    return out.status, out.iterations, out.z.tobytes(), out.Pz.tobytes()


class TestReentrancy:
    """Every buffer lives for one run: a run started inside another run's
    callback, or in another thread, changes no bit of either."""

    CFG = dict(epsilon=1e-9, max_iters=150)

    def test_nested_run_in_callback(self):
        outer_P = random_projector(15, 30, seed=301)  # every scheme reaches the cap
        inner_P = random_projector(5, 11, seed=301)
        names = sorted(SCHEMES)
        inner_expected = {
            s: _run_bytes(run_scheme(inner_P, uniform_simplex(11), BpConfig(scheme=s, **self.CFG)))
            for s in names
        }
        for scheme in names:
            cfg = BpConfig(scheme=scheme, **self.CFG)
            expected = _run_bytes(run_scheme(outer_P, uniform_simplex(30), cfg))
            nested = []

            def cb(t, z, Pz):
                if t % 9 == 0:
                    s = names[(t // 9) % len(names)]
                    inner_cfg = BpConfig(scheme=s, **self.CFG)
                    inner = run_scheme(inner_P, uniform_simplex(11), inner_cfg)
                    nested.append((s, _run_bytes(inner)))

            got = _run_bytes(run_scheme(outer_P, uniform_simplex(30), cfg, callback=cb))
            assert got == expected
            assert len(nested) >= 4
            for s, result in nested:
                assert result == inner_expected[s]

    def test_concurrent_threads(self):
        # one size for both, so a buffer cached per size would be shared
        jobs = [(random_projector(15, 30, seed=s), 30) for s in (301, 302)]
        expected = [
            [_run_bytes(run_scheme(P, uniform_simplex(n), BpConfig(scheme=s, **self.CFG)))
             for s in sorted(SCHEMES)]
            for P, n in jobs
        ]
        got = [[], []]

        def work(k):
            P, n = jobs[k]
            for _ in range(3):
                for s in sorted(SCHEMES):
                    cfg = BpConfig(scheme=s, **self.CFG)
                    # sleep(0) hands the interpreter to the other thread at
                    # every step, so the two runs interleave step by step
                    out = run_scheme(P, uniform_simplex(n), cfg, callback=lambda *_: time.sleep(0))
                    got[k].append(_run_bytes(out))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for k in range(2):
            assert got[k] == expected[k] * 3

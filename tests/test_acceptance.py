"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they land.
Every numeric band and runtime budget is asserted, not just reported.
"""

import time

import numpy as np

from epra_kit.basic import (
    BpConfig,
    ITER_LIMIT,
    SCHEMES,
    run_scheme,
    stop_check,
    uniform_simplex,
)
from epra_kit.epra import (
    EpraConfig,
    PARTITION_FOUND,
    ROUND_LIMIT,
    SINGLE_DIRECTION,
    STALLED,
    TRIVIAL_PRIMAL,
    solve,
)
from epra_kit.instances import gen_controlled, gen_naive, gen_partitioned, nullspace_basis
from epra_kit.oracle import (
    condition_measure_1d,
    condition_measure_search,
    monte_carlo_feasible_rate,
    verify_relint_pair,
    wendel_probability,
)
from epra_kit.subspace import projector_from_kernel, rescaled_projectors

BASE_SEED = 20260809


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num}] {tag} - {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def test_criterion_1_projector_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED + 1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 101))
        m = int(rng.integers(1, n))
        A = rng.standard_normal((m, n))
        pair = projector_from_kernel(A)
        P, P_hat = pair.P, pair.P_hat
        worst = max(worst, float(np.max(np.abs(P - P.T))))
        worst = max(worst, float(np.max(np.abs(P @ P - P))))
        worst = max(worst, float(np.max(np.abs(P + P_hat - np.eye(n)))))
        D = np.exp(rng.uniform(0.0, np.log(1e4), n))
        D_hat = np.exp(rng.uniform(0.0, np.log(1e4), n))
        scaled = rescaled_projectors(A, D, D_hat)
        AD = A / D[None, :]
        resid = float(np.max(np.abs(scaled.P @ AD.T))) / max(
            float(np.max(np.abs(AD))), 1e-300
        )
        worst = max(worst, resid)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "projector property suite on 200 random instances",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_basic_procedure_soundness():
    t0 = time.perf_counter()
    eps = 0.5
    bad_sum = 0.0
    worst_ascent = -np.inf
    recheck_failures = 0
    for i in range(100):
        inst = gen_naive(25, 50, seed=BASE_SEED + 100 + i)
        P = projector_from_kernel(inst.A).P
        z0 = uniform_simplex(50)
        for scheme in SCHEMES:
            sums = []
            norms = []

            def cb(t, z, Pz):
                sums.append(abs(float(z.sum()) - 1.0))
                norms.append(float(np.linalg.norm(Pz)))

            out = run_scheme(P, z0, BpConfig(epsilon=eps, scheme=scheme), callback=cb)
            bad_sum = max(bad_sum, max(sums))
            if scheme in ("vn", "vna") and len(norms) > 1:
                worst_ascent = max(worst_ascent, float(np.max(np.diff(norms))))
            if out.status != ITER_LIMIT:
                if stop_check(out.Pz, out.z, eps) != out.status:
                    recheck_failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "basic-procedure soundness on 100 instances x 4 schemes",
        recheck_failures == 0
        and bad_sum <= 1e-9
        and worst_ascent <= 1e-12
        and elapsed < 30.0,
        f"recheck failures {recheck_failures}, worst |sum-1| {bad_sum:.2e}, "
        f"worst ascent {worst_ascent:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_scheme_comparison_on_naive_instances():
    t0 = time.perf_counter()
    iters = {s: [] for s in SCHEMES}
    success = {s: 0 for s in SCHEMES}
    for i in range(100):
        inst = gen_naive(100, 200, seed=BASE_SEED + 300 + i)
        P = projector_from_kernel(inst.A).P
        z0 = uniform_simplex(200)
        for scheme in SCHEMES:
            out = run_scheme(P, z0, BpConfig(epsilon=0.1, max_iters=10000, scheme=scheme))
            iters[scheme].append(out.iterations)
            success[scheme] += out.status != ITER_LIMIT
    means = {s: float(np.mean(iters[s])) for s in SCHEMES}
    smooth_fastest = all(means["smooth"] < means[s] for s in SCHEMES if s != "smooth")
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "smooth scheme solves all naive (100, 200) instances and is fastest",
        success["smooth"] == 100
        and 10.0 <= means["smooth"] <= 120.0
        and smooth_fastest
        and elapsed < 120.0,
        f"smooth mean {means['smooth']:.1f} iters, others "
        + ", ".join(f"{s} {means[s]:.0f}" for s in sorted(means) if s != "smooth")
        + f", {elapsed:.1f}s",
    )


def test_criterion_4_wendel_statistics():
    t0 = time.perf_counter()
    rate = monte_carlo_feasible_rate(5, 10, trials=2000, seed=BASE_SEED + 4)
    worst_identity = max(
        abs(wendel_probability(m, n) + wendel_probability(n - m, n) - 1.0)
        for n in range(2, 31)
        for m in range(1, n)
    )
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "feasibility statistics agree with the coverage-probability formula",
        0.45 <= rate <= 0.55 and worst_identity <= 1e-12 and elapsed < 120.0,
        f"rate {rate:.3f}, worst complement defect {worst_identity:.1e}, {elapsed:.1f}s",
    )


def test_criterion_5_controlled_instances_solved_with_few_rounds():
    t0 = time.perf_counter()
    cfg = EpraConfig(U=1e10, epsilon=0.5, scheme="smooth")
    rounds = []
    all_solved = True
    all_verified = True
    bound_ok = True
    for i in range(100):
        inst = gen_controlled(100, 200, delta_cap=0.001, seed=BASE_SEED + 500 + i)
        res = solve(inst, cfg)
        rounds.append(res.rounds)
        if res.status != TRIVIAL_PRIMAL:
            all_solved = False
            continue
        if not verify_relint_pair(inst, res, U=cfg.U).relint_ok:
            all_verified = False
        delta = inst.meta.known_delta
        limit = np.inf if delta == 0.0 else np.log2(1.0 / delta) + 10.0
        if res.rounds > limit:
            bound_ok = False
    mean_rounds = float(np.mean(rounds))
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "controlled (100, 200) instances all solved; rounds in band",
        all_solved
        and all_verified
        and bound_ok
        and 4.0 <= mean_rounds <= 25.0
        and elapsed < 180.0,
        f"mean rounds {mean_rounds:.2f}, solved {all_solved}, verified "
        f"{all_verified}, {elapsed:.1f}s",
    )


def test_criterion_6_partition_recovery():
    t0 = time.perf_counter()
    recovered = 0
    verified = True
    rounds = []
    for i in range(100):
        inst = gen_partitioned(100, seed=BASE_SEED + 600 + i)
        res = solve(inst)
        rounds.append(res.rounds)
        true_b, true_n = inst.meta.known_partition
        hit = (
            res.status == PARTITION_FOUND
            and set(res.B.tolist()) == set(true_b)
            and set(res.N.tolist()) == set(true_n)
        )
        if hit:
            recovered += 1
            if not verify_relint_pair(inst, res, U=1e10).relint_ok:
                verified = False
    mean_rounds = float(np.mean(rounds))
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "partitioned n=100 instances: partition recovered and certified",
        recovered >= 85 and verified and 8.0 <= mean_rounds <= 30.0 and elapsed < 180.0,
        f"recovered {recovered}/100, mean rounds {mean_rounds:.2f}, {elapsed:.1f}s",
    )


def test_criterion_7_naive_instances_at_scale():
    t0 = time.perf_counter()
    easy_ok = True
    for i in range(30):
        inst = gen_naive(100, 1000, seed=BASE_SEED + 700 + i)
        res = solve(inst)
        if res.status != TRIVIAL_PRIMAL or res.rounds != 0:
            easy_ok = False
    primal = 0
    for i in range(50):
        inst = gen_naive(500, 1000, seed=BASE_SEED + 850 + i)
        res = solve(inst)
        primal += res.status == TRIVIAL_PRIMAL
    fraction = primal / 50.0
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "naive (100, 1000) solved without rescaling; (500, 1000) near half-split",
        easy_ok and 0.35 <= fraction <= 0.65 and elapsed < 300.0,
        f"all easy {easy_ok}, feasible fraction {fraction:.2f}, {elapsed:.1f}s",
    )


def test_criterion_8_single_direction_ablation():
    t0 = time.perf_counter()
    single_failed = 0
    all_solved = 0
    for i in range(30):
        inst = gen_controlled(100, 200, delta_cap=0.001, seed=BASE_SEED + 900 + i)
        res_all = solve(inst, EpraConfig())
        res_single = solve(inst, EpraConfig(rescale_mode=SINGLE_DIRECTION, max_rounds=100))
        all_solved += res_all.status == TRIVIAL_PRIMAL
        single_failed += res_single.status in (ROUND_LIMIT, STALLED)
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "single-direction rescaling fails where all-direction succeeds",
        all_solved == 30 and single_failed >= 15 and elapsed < 180.0,
        f"all-direction solved {all_solved}/30, single failed {single_failed}/30, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_condition_measure_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED + 9)
    bound_ok = True
    for i in range(50):
        n = int(rng.integers(8, 21))
        m = int(rng.integers(2, max(3, n // 2)))
        inst = gen_controlled(m, n, delta_cap=0.2, seed=BASE_SEED + 1000 + i)
        val = condition_measure_search(inst.A)
        if val > inst.meta.known_delta + 1e-6:
            bound_ok = False
    ray_ok = True
    for i in range(20):
        n = int(rng.integers(4, 12))
        inst = gen_controlled(n - 1, n, delta_cap=0.2, seed=BASE_SEED + 1100 + i)
        basis = nullspace_basis(inst.A)
        if abs(condition_measure_1d(basis[0]) - inst.meta.known_delta) > 1e-12:
            ray_ok = False
    doubling_ok = True
    for _ in range(100):
        v = rng.uniform(0.5, 1.0, 10)
        i = int(rng.integers(0, 10))
        v[i] = 0.3 * np.max(v)
        doubled = v.copy()
        doubled[i] *= 2.0
        if condition_measure_1d(doubled) != 2.0 * condition_measure_1d(v):
            doubling_ok = False
    elapsed = time.perf_counter() - t0
    _report(
        9,
        "condition-measure oracles agree with certified ground truth",
        bound_ok and ray_ok and doubling_ok and elapsed < 60.0,
        f"bound ok {bound_ok}, ray agreement {ray_ok}, doubling exact "
        f"{doubling_ok}, {elapsed:.1f}s",
    )

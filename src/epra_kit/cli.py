"""Command-line interface.

Subcommands: gen, solve, verify, bench, hist.  Exit codes: 0 success,
1 solver or verification failure, 2 invalid input.
"""

import argparse
import dataclasses
import os
import sys

from . import basic, bench, epra, oracle, serialize
from .epra import EpraConfig, SUCCESS_STATUSES
from .exceptions import DimensionMismatch, EpraKitError
from .instances import (CONTROLLED, NAIVE, PARTITIONED, gen_controlled, gen_naive,
                        gen_partitioned)
from .subspace import RESIDUAL_TOL, load_instance, save_instance

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_INVALID_INPUT = 2


def _cmd_gen(args) -> int:
    if args.family == PARTITIONED and args.m is not None:
        print("gen: --m is derived for the partitioned family", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.family != PARTITIONED and args.m is None:
        print(f"gen: --m is required for the {args.family} family", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.family == NAIVE:
        inst = gen_naive(args.m, args.n, args.seed)
    elif args.family == CONTROLLED:
        inst = gen_controlled(args.m, args.n, args.delta_cap, args.frac_small, args.seed)
    else:
        # --delta-cap and --frac-small are for the controlled family only
        inst = gen_partitioned(args.n, args.seed)
    save_instance(inst, args.out)
    print(f"wrote {args.family} instance (m={inst.m}, n={inst.n}) to {args.out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    cfg = EpraConfig(
        U=args.U,
        epsilon=args.epsilon,
        scheme=args.scheme,
        max_rounds=args.max_rounds,
        rescale_mode=args.rescale_mode,
    )
    res = epra.solve(inst, cfg)
    epra.save_result(res, args.out)
    print(
        f"status={res.status} rounds={res.rounds} "
        f"bp_iters={res.bp_iters_primal}+{res.bp_iters_dual} "
        f"|B|={len(res.B)} |N|={len(res.N)} -> {args.out}"
    )
    return EXIT_OK if res.status in SUCCESS_STATUSES else EXIT_SOLVER_FAILURE


def _cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    res = epra.load_result(args.result)
    report = oracle.verify_relint_pair(inst, res, U=args.U, tol=args.tol)
    print(serialize.dumps(dataclasses.asdict(report)))
    ok = report.relint_ok and report.partition_matches_ground_truth is not False
    return EXIT_OK if ok else EXIT_SOLVER_FAILURE


def _cmd_bench(args) -> int:
    manifest = bench.ExperimentManifest.load(args.manifest)
    env_seed = os.environ.get("EPRA_SEED")
    overrides = {} if env_seed is None else {"base_seed": int(env_seed)}
    if args.parallelism is not None:
        overrides["parallelism"] = args.parallelism
    # the manifest is frozen; replace checks the overriding values
    manifest = dataclasses.replace(manifest, **overrides)
    rows = bench.run_experiment(manifest, out_dir=args.out_dir)
    summary = serialize.load(os.path.join(args.out_dir, bench.SUMMARY_JSON))
    print(
        f"{manifest.experiment}: {len(rows)} result rows, {summary['errored']} of "
        f"{summary['tasks']} instances errored -> "
        f"{os.path.join(args.out_dir, bench.RESULTS_CSV)}"
    )
    return EXIT_SOLVER_FAILURE if summary["errored"] else EXIT_OK


def _cmd_hist(args) -> int:
    records = bench.load_records_jsonl(args.results)
    pairs = bench.emit_histogram(records, args.field, out_path=args.out)
    print(f"{len(pairs)} bins -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epra-kit",
        description="Projection and rescaling feasibility solver and benchmark kit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--family", required=True, choices=(NAIVE, CONTROLLED, PARTITIONED))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--delta-cap", type=float, default=0.001, dest="delta_cap")
    p.add_argument("--frac-small", type=float, default=None, dest="frac_small")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    defaults = EpraConfig()
    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--scheme", choices=tuple(basic.SCHEMES), default=defaults.scheme)
    p.add_argument("--U", type=float, default=defaults.U)
    p.add_argument("--epsilon", type=float, default=defaults.epsilon)
    p.add_argument("--max-rounds", type=int, default=defaults.max_rounds, dest="max_rounds")
    p.add_argument("--rescale-mode", choices=(epra.ALL_DIRECTIONS, epra.SINGLE_DIRECTION),
                   default=defaults.rescale_mode, dest="rescale_mode")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="verify a result file against its instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--U", type=float, default=defaults.U)
    p.add_argument("--tol", type=float, default=RESIDUAL_TOL)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="run an experiment manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--parallelism", type=int, default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("hist", help="histogram a field of a per-instance log")
    p.add_argument("--results", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"epra-kit: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except DimensionMismatch as exc:
        # a shape that no instance or result can have
        print(f"epra-kit: invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except EpraKitError as exc:
        print(f"epra-kit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())

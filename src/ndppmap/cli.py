"""Command-line front end: instance generation, MAP pipeline, verification.

Machine output is a single JSON object on stdout (UTF-8, newline-terminated);
a short human summary goes to stderr.  Exit codes: 0 success, 1 verification
failure, 2 infeasibility, 3 capacity, 4 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import downup, instances
from .coreset import build_plan, compose_and_report
from .errors import CapacityError, DomainError, InfeasibilityError, NdppError
from .exchange import brute_force_map, verify_exchange_all_pairs
from .kernel import load_kernel, save_kernel
from .localsearch import SearchConfig, map_inference
from .setdist import KernelDistribution

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INFEASIBLE = 2
EXIT_CAPACITY = 3
EXIT_USAGE = 4


def _emit(report, out_path=None):
    text = json.dumps(report, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_gen(args):
    kind = args.kind
    if kind == "skew-block":
        c = [float(v) for v in args.c.split(",")]
        x = [float(v) for v in args.x.split(",")]
        K = instances.skew_block(c, x)
    elif kind == "random-npsd":
        K = instances.random_npsd(args.n, args.seed)
    elif kind == "sym-psd":
        K = instances.sym_psd(args.n, args.seed)
    elif kind == "lowrank-npsd":
        K = instances.lowrank_npsd(args.n, args.d, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown kind {kind}")
    save_kernel(K, args.out)
    report = {
        "command": "gen",
        "kind": kind,
        "n": K.n,
        "d": K.rank_d,
        "seed": args.seed,
        "out": args.out,
    }
    _emit(report)
    print(f"wrote {kind} kernel n={K.n} to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_map(args):
    K = load_kernel(args.kernel)
    cfg = SearchConfig(r=args.r, zeta=args.zeta)
    S, report = map_inference(K, args.k, cfg, init=args.init)
    report["command"] = "map"
    report["init"] = args.init
    report["kernel"] = args.kernel
    report["k"] = args.k
    if args.oracle:
        mu = KernelDistribution(K, args.k)
        opt_set, opt = brute_force_map(mu, K.n, args.k)
        report["oracle"] = {
            "opt_set": list(opt_set),
            "opt_value": opt,
            "ratio": opt / report["value"] if report["value"] > 0 else None,
        }
    _emit(report, args.out)
    print(
        f"map k={args.k} r={args.r}: set={report['set']} value={report['value']:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def _suite_exchange(K, k, args):
    res = verify_exchange_all_pairs(KernelDistribution(K, k))
    return {
        "pairs": res["pairs"],
        "exchange_failures": len(res["exchange_failures"]),
        "hurwitz_failures": len(res["hurwitz_failures"]),
        "max_measured_beta": res["max_measured_beta"],
        "passed": not res["exchange_failures"] and not res["hurwitz_failures"],
    }


def _suite_walk(K, k, args):
    mu = KernelDistribution(K, k)
    reports = []
    for l in sorted({k - 1, max(k - 2, 0)}):
        C = downup.build_downup(mu, K.n, k, l)
        rep = downup.chain_checks(C, K.n, k, l)
        rep["gap_positive"] = rep["gap"] > 0.0
        rep["ok"] = bool(rep["ok"] and rep["gap_positive"])
        reports.append(rep)
    return {"chains": reports, "passed": all(r["ok"] for r in reports)}


def _suite_coreset(K, k, args):
    mu = KernelDistribution(K, k)
    parts = instances.random_partition(K.n, 3, args.seed)
    plan = build_plan(mu, parts, args.zeta)
    rep = compose_and_report(mu, plan, args.zeta)
    rep.pop("chain", None)
    rep["passed"] = rep["bound_ok"]
    return rep


def cmd_verify(args):
    K = load_kernel(args.kernel)
    if not 1 <= args.k <= K.n:
        raise DomainError(f"need 1 <= k <= n, got k={args.k}, n={K.n}")
    if not 0.0 < args.zeta < 1.0:
        raise DomainError(f"zeta must lie in (0, 1), got {args.zeta}")
    suites = ["exchange", "walk", "coreset"] if args.suite == "all" else [args.suite]
    runners = {
        "exchange": _suite_exchange,
        "walk": _suite_walk,
        "coreset": _suite_coreset,
    }
    t0 = time.perf_counter()
    results = {name: runners[name](K, args.k, args) for name in suites}
    passed = all(r["passed"] for r in results.values())
    report = {
        "command": "verify",
        "kernel": args.kernel,
        "k": args.k,
        "seed": args.seed,
        "suites": results,
        "passed": passed,
        "timing": {"wall_s": time.perf_counter() - t0},
    }
    _emit(report, args.out)
    for name, r in results.items():
        print(f"suite {name}: {'pass' if r['passed'] else 'FAIL'}", file=sys.stderr)
    return EXIT_OK if passed else EXIT_VERIFY


def build_parser():
    ap = argparse.ArgumentParser(prog="ndppmap")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a kernel file")
    g.add_argument("kind", choices=["random-npsd", "skew-block", "sym-psd", "lowrank-npsd"])
    g.add_argument("--n", type=int, default=6)
    g.add_argument("--d", type=int, default=3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--c", default="4,3,2", help="skew-block diagonal entries")
    g.add_argument("--x", default="100,200,300", help="skew-block off-diagonals")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    m = sub.add_parser("map", help="run the greedy + local-search MAP pipeline")
    m.add_argument("--kernel", required=True)
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--r", type=int, default=2)
    m.add_argument("--zeta", type=float, default=0.5)
    m.add_argument("--init", choices=["induced", "standard"], default="induced",
                   help="greedy initialization: marginal-driven or plain determinant")
    m.add_argument("--oracle", action="store_true", help="cross-check against brute force")
    m.add_argument("--out")
    m.set_defaults(func=cmd_map)

    v = sub.add_parser("verify", help="run the verification suites")
    v.add_argument("--kernel", required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--suite", choices=["exchange", "walk", "coreset", "all"], default="all")
    v.add_argument("--zeta", type=float, default=0.5)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        raise SystemExit(EXIT_USAGE if exc.code not in (0, None) else 0)
    try:
        code = args.func(args)
    except InfeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        code = EXIT_INFEASIBLE
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        code = EXIT_CAPACITY
    except (DomainError, OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except NdppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VERIFY
    raise SystemExit(code)


if __name__ == "__main__":
    main()

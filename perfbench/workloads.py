"""The benchmark's workloads: seeded instance pools, operations and output checks.

Each workload is one pass of operations built from the seed.  The benchmark
cycles through the pass, so any prefix of the loop keeps the workload's mix
(one special kernel in every block of four or five operations).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ndppmap import cli, downup, exchange, instances
from ndppmap.kernel import Kernel, principal_minor, save_kernel
from ndppmap.setdist import KernelDistribution

import speed

VALUE_RTOL = 1e-9
TV_BOUND = 0.05
WALK_STEPS = 20_000


class OpFailed(Exception):
    """The program reported a failure: non-zero exit or a raised exception."""


class WrongOutput(Exception):
    """The program reported success but its output failed the check."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises OpFailed or WrongOutput


@dataclass
class Workload:
    ops: list
    # Error prefixes of the failures the program shows today, on purpose kept
    # in the workload: they are the defects the roadmap fixes next.
    known_failures: tuple
    warmup: Op
    reference: speed.Reference = speed.DETERMINANTS

    def execute(self, op):
        """Run one operation under the speed reference, then check its output.

        `latency_s` covers the call only; `norm_s` is that time at the nominal
        host speed (see speed.py).  `error` is None when the call succeeded
        and passed its check.  An error that starts with one of the workload's
        known-failure prefixes is `known`; any other error, or a wrong output,
        is `failed`.
        """
        with speed.timed(self.reference) as t:
            try:
                outcome = op.run()
                error = None
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        wrong = False
        if error is None:
            try:
                op.check(outcome)
            except OpFailed as exc:
                error = str(exc)
            except WrongOutput as exc:
                error, wrong = f"wrong output: {exc}", True
        known = error is not None and not wrong and error.startswith(self.known_failures)
        return {
            "label": op.label,
            "latency_s": t["wall_s"],
            "norm_s": t["norm_s"],
            "ref_s": t["ref_s"],
            "ref_samples": t["ref_samples"],
            "error": error,
            "known": known,
            "failed": error is not None and not known,
        }


def cli_call(argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _report(outcome):
    code, out, err = outcome
    if code != 0:
        lines = err.strip().splitlines()
        raise OpFailed(f"exit {code}: {lines[-1] if lines else ''}")
    return json.loads(out)


def _kernel_file(workdir, label, K):
    path = os.path.join(workdir, f"{label}.knl")
    save_kernel(K, path)
    return path


def map_op(workdir, label, K, k, flags):
    argv = ["map", "--kernel", _kernel_file(workdir, label, K), "--k", str(k), *flags]

    def check(outcome):
        rep = _report(outcome)
        if not rep["certified_local_max"]:
            raise WrongOutput("map report is not a certified local maximum")
        if len(set(rep["set"])) != k:
            raise WrongOutput(f"map set {rep['set']} does not have k={k} elements")
        want = principal_minor(K, rep["set"])
        if not abs(rep["value"] - want) <= VALUE_RTOL * abs(want):
            raise WrongOutput(f"map value {rep['value']!r} != principal minor {want!r}")

    return Op(label, lambda: cli_call(argv), check)


def verify_op(workdir, label, K, k, extra=()):
    argv = ["verify", "--kernel", _kernel_file(workdir, label, K), "--k", str(k),
            "--suite", "all", *extra]

    def check(outcome):
        if not _report(outcome)["passed"]:
            raise WrongOutput("verify exited 0 without passing")

    return Op(label, lambda: cli_call(argv), check)


def walk_op(label, K, k, steps, seed):
    """Down-up diagnostics for l in {k-1, k-2}, then a seeded walk from the MAP."""

    def run():
        mu = KernelDistribution(K, k)
        checks = []
        for l in (k - 1, k - 2):
            C = downup.build_downup(mu, K.n, k, l)
            checks.append(downup.chain_checks(C, K.n, k, l))
        S0, _ = exchange.brute_force_map(mu, K.n, k)
        traj = downup.sample_walk(mu, S0, 1, steps, seed)
        tv = downup.tv_distance(downup.empirical_density(traj, C.states), C.pi)
        return checks, tv

    def check(outcome):
        checks, tv = outcome
        for rep in checks:
            if not (rep["ok"] and rep["gap"] > 0.0):
                raise WrongOutput(f"chain checks fail for l={rep['l']}: {rep}")
        if not tv <= TV_BOUND:
            raise WrongOutput(f"sampler TV {tv:.4f} exceeds {TV_BOUND}")

    return Op(label, run, check)


def relabelled_skew_block(n, seed):
    """A randomly relabelled skew-block kernel on which determinant greedy
    starts badly: it picks the blocks with the largest diagonal, while one
    block has a far larger off-diagonal, so r=2 search must move once."""
    rng = np.random.default_rng(seed)
    blocks = n // 2
    c = np.sort(rng.uniform(1.5, 3.5, blocks))[::-1]
    x = 40.0 + np.sort(rng.uniform(0.0, 4.0, blocks))
    x[-1] = 130.0
    L = instances.skew_block(c, x).entries
    perm = rng.permutation(n)
    return Kernel(L[np.ix_(perm, perm)])


def _seeds(seed, tag, count):
    return [int(s) for s in np.random.default_rng([seed, tag]).integers(2**31, size=count)]


def map_search(seed, workdir):
    flags = ["--init", "standard", "--r", "2", "--zeta", "0.5"]
    ops = []
    for i, s in enumerate(_seeds(seed, 1, 48)):
        K = relabelled_skew_block(40, s) if i % 4 == 3 else instances.random_npsd(40, s)
        ops.append(map_op(workdir, f"search{i:02d}", K, 6, flags))
    warm = map_op(workdir, "warmup", instances.random_npsd(10, seed), 3, flags)
    return Workload(ops, (), warm)


def map_greedy(seed, workdir):
    flags = ["--init", "induced", "--r", "1"]
    ops = []
    for i, s in enumerate(_seeds(seed, 2, 192)):
        K = instances.lowrank_npsd(24, 12, s) if i % 4 == 3 else instances.random_npsd(24, s)
        ops.append(map_op(workdir, f"greedy{i:03d}", K, 6, flags))
    warm = map_op(workdir, "warmup", instances.random_npsd(10, seed), 3, flags)
    # The dense marginal's interpolation breaks down on some dense kernels
    # and on every low-rank one, which never takes the low-rank route.
    return Workload(ops, ("exit 1: error: interpolation residual",), warm)


def verify(seed, workdir):
    ops = [
        verify_op(workdir, f"verify{i}", instances.random_npsd(12, s), 4, ["--seed", str(s)])
        for i, s in enumerate(_seeds(seed, 3, 4))
    ]
    # The README example: its 3-part core-set split leaves parts smaller than k.
    ops.append(verify_op(workdir, "readme", instances.random_npsd(7, 1), 3))
    warm = verify_op(workdir, "warmup", instances.random_npsd(6, seed), 2)
    return Workload(ops, ("exit 4: usage error: part",), warm)


def walk(seed, workdir):
    ops = [
        walk_op(f"walk{i}", instances.random_npsd(6, s), 3, WALK_STEPS, s)
        for i, s in enumerate(_seeds(seed, 4, 10))
    ]
    warm = walk_op("warmup", instances.random_npsd(5, seed), 2, 200, seed)
    return Workload(ops, (), warm, speed.ARRAYS)


WORKLOADS = {
    "map-search": map_search,
    "map-greedy": map_greedy,
    "verify": verify,
    "walk": walk,
}


def build(name, seed, workdir):
    """Set-up: instance generation, kernel files written and one warm-up."""
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[name](seed, workdir)
    wl.warmup.run()
    return wl


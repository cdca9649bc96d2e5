"""Acceptance gate: the nine desk-scale criteria, one test (and one
pass/fail line under ``pytest -v``) per criterion.

The shared batch covers 205 seeded nPSD kernels with n <= 8 and
k in {2, 3, 4}; the exchange, Hurwitz, pipeline, and bound checks read
every size-k principal minor from `mu.tabulate()`.
"""

import json
import math
from itertools import combinations

import numpy as np
import pytest

from ndppmap import (
    Kernel,
    KernelDistribution,
    SearchConfig,
    apply_field,
    brute_force_map,
    build_downup,
    build_plan,
    compose_and_report,
    induced_greedy,
    local_search,
    principal_minor,
    sample_walk,
    standard_greedy,
    superset_marginal,
    tv_distance,
    verify_exchange_all_pairs,
)
from ndppmap.cli import main as cli_main
from ndppmap.downup import chain_checks, empirical_density
from ndppmap.instances import (
    lowrank_npsd,
    random_field,
    random_npsd,
    random_partition,
    skew_block,
    sym_psd,
)

BATCH_CONFIGS = [(5, 2, 50), (6, 2, 50), (6, 3, 40), (7, 3, 40), (8, 4, 25)]
ZETA = 0.5


@pytest.fixture(scope="module")
def batch():
    """205 seeded kernels with their size-k distributions."""
    out = []
    seed = 0
    for n, k, count in BATCH_CONFIGS:
        for _ in range(count):
            K = random_npsd(n, seed)
            out.append((n, k, seed, K, KernelDistribution(K, k)))
            seed += 1
    return out


@pytest.fixture(scope="module")
def exchange_results(batch):
    """The batch verifier's result for every kernel, shared by criteria 1 and 2."""
    return [verify_exchange_all_pairs(mu) for n, k, seed, K, mu in batch]


@pytest.fixture(scope="module")
def pipeline(batch):
    """Greedy + LS2 pipeline runs over the batch, with brute-force optima."""
    runs = []
    for n, k, seed, K, mu in batch:
        g = induced_greedy(mu)
        S, trace = local_search(
            mu, g.final_set, SearchConfig(r=2, zeta=ZETA, max_iters=10000)
        )
        runs.append(
            {
                "n": n,
                "k": k,
                "opt": float(mu.tabulate().max()),
                "greedy_value": g.final_value,
                "final_value": mu.value(S),
                "iterations": trace.iterations,
            }
        )
    return runs


def test_criterion_1_exchange_theorem_zero_failures(batch, exchange_results):
    total_pairs = 0
    worst = 0.0
    for (n, k, seed, K, mu), res in zip(batch, exchange_results):
        assert not res["exchange_failures"], (n, k, seed, res["exchange_failures"][:3])
        total_pairs += res["pairs"]
        worst = max(worst, res["max_measured_beta"])
    assert len(batch) == 205
    print(
        f"criterion 1: {len(batch)} kernels, {total_pairs} pairs, "
        f"0 exchange failures, max measured beta {worst:.4g}"
    )


def test_criterion_2_even_polynomial_hurwitz_zero_failures(batch, exchange_results):
    for (n, k, seed, K, mu), res in zip(batch, exchange_results):
        assert not res["hurwitz_failures"], (n, k, seed, res["hurwitz_failures"][:3])
    print("criterion 2: 0 Hurwitz failures over the same pairs")


def test_criterion_3_local_to_global_bound(pipeline):
    worst_ratio = 0.0
    for run in pipeline:
        bound = (run["k"] ** 4 / ZETA) ** run["k"]
        assert bound * run["final_value"] >= run["opt"] * (1.0 - 1e-9), run
        if run["final_value"] > 0:
            worst_ratio = max(worst_ratio, run["opt"] / run["final_value"])
    assert worst_ratio < 10.0
    print(f"criterion 3: (k^4/zeta)^k bound holds; empirical max ratio {worst_ratio:.4g}")


def test_criterion_4_greedy_failure_reproduction():
    K = skew_block([4.0, 3.0, 2.0], [100.0, 200.0, 300.0])
    mu = KernelDistribution(K, 2)
    g = standard_greedy(K, 2)
    assert g.final_set == (0, 1)
    assert g.final_value == pytest.approx(4.0**2 + 100.0**2)  # 10016
    opt_set, opt = brute_force_map(mu, 6, 2)
    assert opt_set == (4, 5) and opt == pytest.approx(2.0**2 + 300.0**2)  # 90004
    S2, _ = local_search(mu, g.final_set, SearchConfig(r=2, zeta=ZETA))
    assert S2 == opt_set and mu.value(S2) == pytest.approx(opt)
    S1, t1 = local_search(mu, g.final_set, SearchConfig(r=1, zeta=ZETA))
    assert S1 == (0, 1) and t1.certified_local_max
    print(
        f"criterion 4: greedy 10016 vs OPT 90004 (ratio {opt / g.final_value:.4g}); "
        "LS2 recovers OPT, LS1 stuck at (0, 1)"
    )


def test_criterion_5_crude_greedy_and_step_bounds(pipeline):
    for run in pipeline:
        crude = math.comb(run["n"], run["k"]) * run["greedy_value"]
        assert crude >= run["opt"] * (1.0 - 1e-9), run
        if run["greedy_value"] > 0 and run["opt"] > 0:
            cap = math.log2(run["opt"] / run["greedy_value"]) + 1.0
            assert run["iterations"] <= max(cap, 0.0) + 1e-9, run
    print("criterion 5: C(n,k) greedy bound and log2 step bound hold on all 205 runs")


def test_criterion_6_marginal_correctness():
    checked = 0
    dense = random_npsd(10, 777)
    lowrank = lowrank_npsd(8, 3, 778)
    # The low-rank kernel is checked as given (k > d returns 0 from the rank
    # bound) and once its factors are dropped (every pin is conditioned).
    for K, routes in ((dense, (dense,)), (lowrank, (lowrank, Kernel(lowrank.entries)))):
        n = K.n
        for k in range(1, 5):
            minors = {S: principal_minor(K, S) for S in combinations(range(n), k)}
            scale = 1.0 + max(abs(v) for v in minors.values())
            for ysize in range(k + 1):
                for Y in combinations(range(n), ysize):
                    brute = sum(v for S, v in minors.items() if set(Y) <= set(S))
                    for route in routes:
                        got = superset_marginal(route, Y, k)
                        assert got == pytest.approx(brute, rel=1e-8, abs=1e-8 * scale), (
                            route.lowrank is not None, Y, k,
                        )
                        checked += 1
    print(f"criterion 6: {checked} marginal evaluations match brute force (rel 1e-8)")


def test_criterion_7_chain_validity_and_sampler():
    chains = 0
    for n, k in ((6, 2), (6, 3), (7, 3), (8, 4)):
        mu = KernelDistribution(random_npsd(n, 9000 + n + k), k)
        for l in sorted({k - 1, max(k - 2, 0)}):
            dists = [mu] + [
                apply_field(mu, random_field(n, seed=100 * n + 10 * k + f))
                for f in range(20)
            ]
            for nu in dists:
                rep = chain_checks(build_downup(nu, n, k, l), n, k, l)
                assert rep["ok"], (n, k, l, rep)
                assert rep["gap"] > 0.0
                chains += 1
    mu = KernelDistribution(random_npsd(6, 4242), 3)
    steps = 10**5
    traj = sample_walk(mu, (0, 1, 2), 1, steps, seed=11)
    states = list(combinations(range(6), 3))
    weights = np.array([mu.value(S) for S in states])
    tv = tv_distance(empirical_density(traj, states), weights / weights.sum())
    assert tv < 0.05
    print(f"criterion 7: {chains} chains valid; sampler TV {tv:.4f} after {steps} steps")


def test_criterion_8_coreset_certificates():
    worst = 0.0
    for seed in range(20):
        mu = KernelDistribution(sym_psd(9, 5000 + seed), 2)
        plan = build_plan(mu, random_partition(9, 3, seed=seed), ZETA)
        rep = compose_and_report(mu, plan, ZETA)
        assert rep["bound_ok"], (seed, rep["ratio"], rep["bound"])
        core = set(i for Ci in rep["coresets"] for i in Ci)
        chain = rep["chain"]
        assert set(chain[-1]["set"]) <= core
        for a, b in zip(chain, chain[1:]):
            assert len(set(b["set"]) - core) == len(set(a["set"]) - core) - 1
        worst = max(worst, rep["ratio"])
    print(f"criterion 8: 20 core-set certificates hold; worst ratio {worst:.4g}")


def test_criterion_9_determinism(tmp_path, capsys):
    kernel = str(tmp_path / "det.knl")
    with pytest.raises(SystemExit):
        cli_main(["gen", "random-npsd", "--n", "6", "--seed", "12", "--out", kernel])
    capsys.readouterr()
    reports = {"map": [], "verify": []}
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli_main(["map", "--kernel", kernel, "--k", "2", "--oracle"])
        assert exc.value.code == 0
        rep = json.loads(capsys.readouterr().out)
        rep.pop("timing")
        reports["map"].append(json.dumps(rep, sort_keys=True).encode())
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify", "--kernel", kernel, "--k", "2", "--seed", "7"])
        assert exc.value.code == 0
        rep = json.loads(capsys.readouterr().out)
        rep.pop("timing")
        reports["verify"].append(json.dumps(rep, sort_keys=True).encode())
    assert reports["map"][0] == reports["map"][1]
    assert reports["verify"][0] == reports["verify"][1]
    print("criterion 9: repeated seeded runs byte-identical (timing excluded)")

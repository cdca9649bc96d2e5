import math
from itertools import combinations

import numpy as np
import pytest

from ndppmap import (
    CapacityError,
    DomainError,
    InfeasibilityError,
    Kernel,
    KernelDistribution,
    PartitionPlan,
    TableDistribution,
    build_plan,
    compose_and_report,
    coreset_map,
    principal_minor,
)
from ndppmap.coreset import _map_within
from ndppmap.instances import lowrank_npsd, random_npsd, random_partition, sym_psd
from test_exchange import holed_signed_table, parent_strong_basis
from test_localsearch import neighborhood
from test_setdist import CountingKernel


def diag_distribution(values, k):
    return KernelDistribution(Kernel(np.diag(np.asarray(values, dtype=float))), k)


class TestCoresetMap:
    def test_exact_size_part_returned_whole(self):
        mu = KernelDistribution(random_npsd(6, 0), 2)
        assert coreset_map(mu, (1, 4)) == (1, 4)

    def test_small_part_rejected(self):
        mu = KernelDistribution(random_npsd(6, 0), 3)
        with pytest.raises(DomainError):
            coreset_map(mu, (1, 4))

    def test_diagonal_picks_heaviest(self):
        mu = diag_distribution([1, 9, 2, 8, 3, 7], 2)
        assert coreset_map(mu, (0, 1, 2, 3)) == (1, 3)

    def test_result_is_one_swap_local_max(self):
        mu = KernelDistribution(sym_psd(8, 3), 2)
        P = (0, 2, 3, 5, 7)
        S = coreset_map(mu, P, zeta=0.5)
        base = mu.value(S)
        for T in neighborhood(S, 1, mu.n):
            if set(T) <= set(P):
                assert mu.value(T) <= 2.0 * base + 1e-12

    def test_priced_inside_its_part(self):
        # Over all of [4], item 2 has the largest marginal through the pair
        # (2, 3); item 3 lies outside the part, and no pair of the part
        # holds item 2 with positive mass.
        L = np.array([[0.0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]])
        mu = KernelDistribution(Kernel(L), 2)
        assert mu.value((0, 1)) > 0.0
        assert coreset_map(mu, (0, 1, 2)) == (0, 1)


class TestBuildPlan:
    def test_disjointness_enforced(self):
        mu = KernelDistribution(random_npsd(6, 0), 2)
        with pytest.raises(DomainError):
            build_plan(mu, [(0, 1, 2), (2, 3, 4)])

    def test_one_coreset_per_part(self):
        mu = KernelDistribution(sym_psd(9, 1), 2)
        parts = random_partition(9, 3, seed=1)
        plan = build_plan(mu, parts)
        assert len(plan.coresets) == len(plan.parts) == 3
        for P, Ci in zip(plan.parts, plan.coresets):
            assert set(Ci) <= set(P) and len(Ci) == 2


def parent_compose(mu, value, plan, zeta=0.5):
    """compose_and_report as it was before the chain reused the check's
    ratios: the witnesses from the per-swap loop, and each step re-priced by
    value calls, beta_step = value(Ci) value(W) / (value(Ci - e + j) value(W2))."""
    union = tuple(sorted(i for P in plan.parts for i in P))
    C = tuple(sorted(i for Ci in plan.coresets for i in Ci))
    opt_union_set, opt_union = _map_within(mu, union)
    opt_core_set, opt_core = _map_within(mu, C)
    if opt_core <= 0.0:
        raise InfeasibilityError("merged core-set carries no positive-mass subset")
    ratio = opt_union / opt_core
    chain = [{"set": list(opt_union_set), "value": opt_union}]
    beta_hat, W = 1.0, opt_union_set
    while not set(W) <= set(C):
        pi, j = next(
            (pi, min(set(W) & set(P) - set(Ci)))
            for pi, (P, Ci) in enumerate(zip(plan.parts, plan.coresets))
            if set(W) & set(P) - set(Ci)
        )
        Ci = plan.coresets[pi]
        measured, witnesses = parent_strong_basis(value, Ci, W)
        if j not in witnesses:
            raise InfeasibilityError(f"no positive-mass swap for j={j} against core-set {Ci}")
        e = witnesses[j][0]
        W2 = tuple(sorted(set(W) - {j} | {e}))
        prod = value(tuple(sorted(set(Ci) - {e} | {j}))) * value(W2)
        beta_step = value(Ci) * value(W) / prod
        beta_hat = max(beta_hat, measured)
        W = W2
        chain.append({"set": list(W), "value": value(W), "part": pi, "swap_out": j,
                      "swap_in": e, "beta_step": beta_step})
    try:
        bound = (beta_hat / zeta) ** mu.k
    except OverflowError:
        bound = math.inf
    return {
        "parts": [list(P) for P in plan.parts],
        "coresets": [list(Ci) for Ci in plan.coresets],
        "opt_union": opt_union,
        "opt_union_set": list(opt_union_set),
        "opt_coreset": opt_core,
        "opt_coreset_set": list(opt_core_set),
        "ratio": ratio,
        "beta_hat": beta_hat,
        "bound": bound,
        "bound_ok": bool(ratio <= bound * (1.0 + 1e-9)),
        "chain": chain,
    }


def outcome(compose, *args):
    try:
        return repr(compose(*args))
    except InfeasibilityError as exc:
        return f"InfeasibilityError({exc})"


class TestComposeAndReport:
    def test_diagonal_ratio_is_one(self):
        mu = diag_distribution([1, 9, 2, 8, 3, 7, 4, 6, 5], 2)
        plan = build_plan(mu, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        rep = compose_and_report(mu, plan)
        assert rep["ratio"] == pytest.approx(1.0)
        assert rep["bound_ok"]

    def test_seeded_sym_psd_bound_and_chain(self):
        for seed in range(8):
            mu = KernelDistribution(sym_psd(9, 100 + seed), 2)
            plan = build_plan(mu, random_partition(9, 3, seed=seed), zeta=0.5)
            rep = compose_and_report(mu, plan)
            assert rep["bound_ok"], rep
            core = set(i for Ci in rep["coresets"] for i in Ci)
            chain = rep["chain"]
            # chain walks the union optimum into the merged core-set one
            # swap at a time, never losing more than beta_hat per step
            assert set(chain[-1]["set"]) <= core
            prev_outside = len(set(chain[0]["set"]) - core)
            for a, b in zip(chain, chain[1:]):
                outside = len(set(b["set"]) - core)
                assert outside == prev_outside - 1
                prev_outside = outside
                assert a["value"] <= (rep["beta_hat"] / 0.5) * b["value"] * (1 + 1e-9)

    def test_opt_values_match_enumeration(self):
        mu = KernelDistribution(sym_psd(6, 9), 2)
        plan = build_plan(mu, [(0, 1, 2), (3, 4, 5)])
        rep = compose_and_report(mu, plan)
        union_best = max(mu.value(S) for S in combinations(range(6), 2))
        assert rep["opt_union"] == pytest.approx(union_best)
        core = [i for Ci in plan.coresets for i in Ci]
        core_best = max(mu.value(S) for S in combinations(sorted(core), 2))
        assert rep["opt_coreset"] == pytest.approx(core_best)

    def test_bound_priced_at_the_plans_zeta(self):
        mu = KernelDistribution(random_npsd(9, 2), 2)
        plan = build_plan(mu, [(0, 1, 2), (3, 4, 5), (6, 7, 8)], zeta=0.1)
        assert plan.zeta == 0.1
        rep = compose_and_report(mu, plan)
        assert rep["bound"] == (rep["beta_hat"] / 0.1) ** 2
        assert rep["bound_ok"]

    @pytest.mark.parametrize("zeta", [0.0, 1.0, "0.5", None])
    def test_plan_zeta_checked_where_the_plan_is_built(self, zeta):
        # every part has exactly k elements, so no search would check it
        mu = KernelDistribution(random_npsd(4, 0), 2)
        with pytest.raises(DomainError, match="zeta"):
            build_plan(mu, [(0, 1), (2, 3)], zeta=zeta)

    def test_bound_past_float_range_is_inf(self):
        # beta_hat is about 1e242, so (beta_hat / zeta)^2 leaves the float range
        table = {S: 1e-120 for S in combinations(range(8), 2)}
        table.update({(0, 1): 1.0, (4, 5): 1.0, (2, 6): 100.0})
        mu = TableDistribution(8, 2, table)
        plan = build_plan(mu, [(0, 1, 2, 3), (4, 5, 6, 7)])
        rep = compose_and_report(mu, plan)
        assert rep["beta_hat"] > 1e200
        assert rep["bound"] == math.inf and rep["bound_ok"]

    @pytest.mark.parametrize("kind", ["dense", "lowrank", "sym_psd", "signed-table"])
    def test_matches_parent_chain_bit_for_bit(self, kind):
        # hand-built plans: each part's core-set is a random k-subset of it,
        # so most unions' optima lie outside the merged core-sets
        rng = np.random.default_rng(7)
        chains = 0
        for trial in range(12):
            if kind == "signed-table":
                mu = holed_signed_table(9, 2, trial)

                def value(S):
                    return mu.table.get(S, 0.0)
            else:
                K = {"dense": random_npsd, "sym_psd": sym_psd}.get(kind)
                K = K(9, trial) if K else lowrank_npsd(9, 3, trial)
                mu = KernelDistribution(K, 2)

                def value(S):
                    return principal_minor(mu.kernel, S)

            parts = [tuple(p) for p in np.split(rng.permutation(9), 3)]
            coresets = [tuple(sorted(rng.choice(P, 2, replace=False).tolist())) for P in parts]
            plan = PartitionPlan([tuple(sorted(map(int, P))) for P in parts], coresets)
            got = outcome(compose_and_report, mu, plan)
            assert got == outcome(parent_compose, mu, value, plan)
            chains += "swap_in" in got
        assert chains >= 2

    def test_chain_makes_no_value_call(self):
        # the union optimum {1, 3} lies outside the merged core-sets
        mu = CountingKernel(Kernel(np.diag([1.0, 9, 2, 8, 3, 7, 4, 6, 5])), 2)
        plan = PartitionPlan([(0, 1, 2), (3, 4, 5), (6, 7, 8)], [(0, 2), (4, 5), (6, 7)])
        rep = compose_and_report(mu, plan)
        assert len(rep["chain"]) == 3 and mu.values == 0
        # the checks' two calls per step, then one call for the chain's values
        assert mu.cores[-1] == () and len(mu.arrays[-1]) == len(rep["chain"]) - 1

    def test_union_optimum_past_float64_is_capacity(self):
        mu = diag_distribution([1e200, 1e200, 1, 2], 2)
        plan = PartitionPlan([(0, 1), (2, 3)], [(0, 1), (2, 3)])
        with pytest.raises(CapacityError):
            compose_and_report(mu, plan)

    def test_all_nan_mu_is_infeasible(self):
        # no set exceeds -inf, in the union or in the merged core-sets
        mu = TableDistribution(6, 2, {S: math.nan for S in combinations(range(6), 2)})
        assert _map_within(mu, (0, 1, 3, 4)) == (None, -math.inf)
        plan = PartitionPlan([(0, 1, 2), (3, 4, 5)], [(0, 1), (3, 4)])
        with pytest.raises(InfeasibilityError, match="no positive-mass subset"):
            compose_and_report(mu, plan)

    def test_exchange_past_float64_is_capacity(self):
        # the chain's first check pairs C_0 = (0, 1) with W = (2, 5), whose
        # mu(S)mu(T) = 1.5 big^2 is past float64 at big = 1e200: a capacity
        # limit, not a missing swap
        def run(big):
            table = {S: 1.0 for S in combinations(range(6), 2)}
            table[(0, 1)] = table[(3, 4)] = big
            table[(2, 5)] = 1.5 * big
            mu = TableDistribution(6, 2, table)
            return compose_and_report(mu, build_plan(mu, [(0, 1, 2), (3, 4, 5)]))

        rep = run(1e2)
        assert rep["coresets"] == [[0, 1], [3, 4]] and rep["opt_union_set"] == [2, 5]
        assert rep["beta_hat"] == 15000.0 and rep["bound_ok"]
        with pytest.raises(CapacityError, match=r"mu\(0, 1\)mu\(2, 5\) = inf"):
            run(1e200)

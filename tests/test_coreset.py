from itertools import combinations

import numpy as np
import pytest

from ndppmap import (
    DomainError,
    Kernel,
    KernelDistribution,
    build_plan,
    compose_and_report,
    coreset_map,
    neighborhood,
)
from ndppmap.instances import random_npsd, random_partition, sym_psd


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
            plan = build_plan(mu, random_partition(9, 3, seed=seed))
            rep = compose_and_report(mu, plan, zeta=0.5)
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

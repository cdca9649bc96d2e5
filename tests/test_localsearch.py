import math
from itertools import combinations
from math import comb

import numpy as np
import pytest

from ndppmap import (
    ConditioningError,
    DomainError,
    IncompleteSearchError,
    Kernel,
    KernelDistribution,
    SearchConfig,
    TableDistribution,
    brute_force_map,
    condition_on,
    kernel_table,
    local_search,
    map_inference,
    neighborhood,
)
from ndppmap.instances import lowrank_npsd, random_npsd, skew_block


class TestNeighborhood:
    def test_small_case_explicit(self):
        got = sorted(neighborhood((0, 1), 1, 4))
        assert got == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]

    def test_r_equals_k_is_everything(self):
        got = sorted(neighborhood((0, 1), 2, 5))
        assert got == sorted(combinations(range(5), 2))

    def test_count_formula(self):
        got = list(neighborhood((0, 1, 2), 2, 6))
        assert len(got) == len(set(got)) == 1 + 9 + 9
        for s in range(3):
            expect = comb(3, s) * comb(3, s)
            assert sum(1 for T in got if len(set(T) - {0, 1, 2}) == s) == expect

    def test_restricted_ground(self):
        mu = KernelDistribution(random_npsd(6, seed=2), 2)
        P = (1, 3, 4)
        got = mu.restrict(P).neighborhood_values((0, 1), 1)
        assert sorted(got) == [(0, 1), (0, 2), (1, 2)]
        for T, v in got.items():
            assert v == pytest.approx(mu.value([P[i] for i in T]), rel=1e-12)


class TestLocalSearch:
    def test_at_global_optimum_no_steps(self):
        K = random_npsd(6, seed=4)
        mu = KernelDistribution(K, 2)
        opt_set, _ = brute_force_map(mu, 6, 2)
        S, trace = local_search(mu, opt_set, SearchConfig(r=2, zeta=0.5))
        assert S == opt_set
        assert trace.iterations == 0
        assert trace.certified_local_max

    def test_skew_block_r1_stuck(self):
        K = skew_block([4, 3, 2], [100, 200, 300])
        mu = KernelDistribution(K, 2)
        S, trace = local_search(mu, (0, 1), SearchConfig(r=1, zeta=0.5))
        assert S == (0, 1)
        assert trace.iterations == 0

    def test_skew_block_r2_escapes(self):
        K = skew_block([4, 3, 2], [100, 200, 300])
        mu = KernelDistribution(K, 2)
        S, trace = local_search(mu, (0, 1), SearchConfig(r=2, zeta=0.5))
        opt_set, opt = brute_force_map(mu, 6, 2)
        assert S == opt_set == (4, 5)
        assert mu.value(S) == pytest.approx(opt)

    def test_zero_start_rejected(self):
        K = Kernel(np.diag([1.0, 1.0, 0.0, 0.0]))
        mu = KernelDistribution(K, 2)
        with pytest.raises(DomainError):
            local_search(mu, (2, 3), SearchConfig())

    def test_wrong_size_start_rejected(self):
        mu = KernelDistribution(random_npsd(6, seed=1), 3)
        with pytest.raises(DomainError):
            local_search(mu, (0, 1), SearchConfig())

    def test_max_iters_carries_best(self):
        K = skew_block([4, 3, 2], [100, 200, 300])
        mu = KernelDistribution(K, 2)
        with pytest.raises(IncompleteSearchError) as exc:
            local_search(mu, (0, 1), SearchConfig(r=2, zeta=0.5, max_iters=0))
        assert exc.value.best_set is not None

    def test_certification_rescan(self):
        K = random_npsd(7, seed=6)
        mu = KernelDistribution(K, 3)
        cfg = SearchConfig(r=2, zeta=0.5)
        _, opt = brute_force_map(mu, 7, 3)
        opt_set, _ = brute_force_map(mu, 7, 3)
        S, trace = local_search(mu, opt_set, cfg)
        val = mu.value(S)
        for T in neighborhood(S, 2, 7):
            assert val >= cfg.zeta * mu.value(T) - 1e-12

    def test_improvement_factors_exceed_threshold(self):
        K = skew_block([4, 3, 2], [100, 200, 300])
        mu = KernelDistribution(K, 2)
        _, trace = local_search(mu, (0, 1), SearchConfig(r=2, zeta=0.5))
        for _, _, factor in trace.steps:
            assert factor > 2.0

    def test_neighborhood_values_fast_path_matches_direct(self):
        # A skew-symmetric kernel has L_ii = 0, so every one-element core is
        # singular and its completions take the direct-determinant fallback.
        M = np.random.default_rng(19).normal(size=(7, 7))
        skew = Kernel(M - M.T)
        with pytest.raises(ConditioningError):
            condition_on(skew, (0,))
        S = (0, 2, 5)
        for K in (random_npsd(7, seed=19), skew):
            mu = KernelDistribution(K, 3)
            vals = mu.neighborhood_values(S, 2)
            expect = {T: mu.value(T) for T in neighborhood(S, 2, 7)}
            assert set(vals) == set(expect)
            for T, v in vals.items():
                assert v == pytest.approx(expect[T], rel=1e-8, abs=1e-10)


class TestGenericRoute:
    """A table of minors has only SetDistribution's enumerated neighbourhood;
    local search over it must follow the kernel route's Schur-priced path."""

    @pytest.mark.parametrize(
        "K, k, S0",
        [
            (random_npsd(7, seed=3), 3, (0, 1, 2)),
            (random_npsd(8, seed=9), 4, (0, 2, 4, 6)),
            (skew_block([4, 3, 2], [100, 200, 300]), 2, (0, 1)),
        ],
        ids=["npsd-n7", "npsd-n8", "skew-block"],
    )
    @pytest.mark.parametrize("r, restrict", [(1, False), (2, False), (2, True)])
    def test_table_matches_kernel(self, K, k, S0, r, restrict):
        cfg = SearchConfig(r=r, zeta=0.5)
        minors = dict(zip(combinations(range(K.n), k), kernel_table(K, k)))
        table = TableDistribution(K.n, k, minors)
        mu = KernelDistribution(K, k)
        if restrict:  # element i + 1 becomes i, so S0 names other elements
            table, mu = table.restrict(range(1, K.n)), mu.restrict(range(1, K.n))
        S_t, trace_t = local_search(table, S0, cfg)
        S_k, trace_k = local_search(mu, S0, cfg)
        assert S_t == S_k
        assert trace_t.iterations == trace_k.iterations
        assert trace_t.neighborhood_evals == trace_k.neighborhood_evals


class TestMapInference:
    def test_identity(self):
        S, report = map_inference(Kernel(np.eye(4)), 2)
        assert report["value"] == pytest.approx(1.0)
        assert report["certified_local_max"]

    def test_skew_block(self):
        K = skew_block([4, 3, 2], [100, 200, 300])
        S, report = map_inference(K, 2)
        mu = KernelDistribution(K, 2)
        _, opt = brute_force_map(mu, 6, 2)
        assert report["value"] == pytest.approx(opt)

    def test_rejects_non_npsd(self):
        with pytest.raises(DomainError):
            map_inference(Kernel(np.array([[0.0, 2.0], [0.0, 0.0]])), 1)

    @pytest.mark.parametrize(
        "K",
        [random_npsd(32, 1), lowrank_npsd(24, 12, 0)],
        ids=["dense-n32", "lowrank-n24-d12"],
    )
    def test_greedy_marginals_past_desk_scale(self, K):
        S, report = map_inference(K, 6, SearchConfig(r=1))
        assert report["certified_local_max"]
        assert len(S) == 6 and report["value"] > 0.0

    def test_seeded_batch_bounds(self):
        zeta = 0.5
        for seed in range(8):
            K = random_npsd(10, seed)
            k = 3
            S, report = map_inference(K, k)
            mu = KernelDistribution(K, k)
            _, opt = brute_force_map(mu, 10, k)
            cap = (k**4 / zeta) ** k
            assert cap * report["value"] >= opt * (1 - 1e-9)
            # step bound from the improvement threshold
            greedy_val = report["greedy_value"]
            if greedy_val > 0 and opt > greedy_val:
                assert report["iterations"] <= math.log2(opt / greedy_val) + 1

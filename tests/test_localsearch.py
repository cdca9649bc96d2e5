import math
from itertools import combinations
from math import comb

import numpy as np
import pytest

from ndppmap import (
    CapacityError,
    ConditioningError,
    DomainError,
    IncompleteSearchError,
    Kernel,
    KernelDistribution,
    SearchConfig,
    TableDistribution,
    brute_force_map,
    condition_on,
    induced_greedy,
    kernel_table,
    local_search,
    map_inference,
)
from ndppmap import localsearch
from ndppmap.instances import lowrank_npsd, random_npsd, skew_block


def neighborhood(S, r, n):
    """Yield every size-k set within r swaps of S (S included), each once:
    the per-set reference for neighborhood_values and the search's
    certificate."""
    S = tuple(sorted(S))
    outside = [i for i in range(n) if i not in S]
    for s in range(0, min(r, len(S), len(outside)) + 1):
        for drop in combinations(S, s):
            kept = tuple(i for i in S if i not in drop)
            for add in combinations(outside, s):
                yield tuple(sorted(kept + add))


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
        got = dict(mu.restrict(P).neighborhood_values((0, 1), 1).items())
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

    def test_nan_start_rejected(self):
        table = {S: 1.0 for S in combinations(range(5), 2)}
        table[(0, 1)] = math.nan
        with pytest.raises(DomainError, match="needs mu"):
            local_search(TableDistribution(5, 2, table), (0, 1), SearchConfig())

    @pytest.mark.parametrize("start, r", [((0, 1), 2), ((2, 3), 2), ((2, 3), 1)])
    def test_mu_past_float64_is_capacity(self, start, r):
        # mu({0, 1}) = 1e400 is inf: at the start, or reached by one move
        # (r = 2) or by two, through mu({0, 3}) = 2e200 (r = 1)
        mu = KernelDistribution(Kernel(np.diag([1e200, 1e200, 1.0, 2.0])), 2)
        with pytest.raises(CapacityError, match=r"mu\(0, 1\) = inf is past the float64 range"):
            local_search(mu, start, SearchConfig(r=r))

    @pytest.mark.parametrize("r", [2.0, True, "2", 1.5])
    def test_non_integer_r_rejected(self, r):
        # 2.0 passed the r >= 1 check and then raised TypeError in the scan; True ran as r = 1
        with pytest.raises(DomainError, match="r must be an integer"):
            SearchConfig(r=r)

    def test_numpy_integer_r_accepted(self):
        cfg = SearchConfig(r=np.int64(2))
        assert type(cfg.r) is int and cfg.r == 2
        mu = KernelDistribution(random_npsd(6, 1), 3)
        assert local_search(mu, (0, 1, 2), cfg)[0] == local_search(mu, (0, 1, 2), SearchConfig())[0]

    @pytest.mark.parametrize("zeta", ["0.5", None, True, math.nan])
    def test_non_real_zeta_rejected(self, zeta):
        # "0.5" and None raised a bare TypeError from the range comparison
        with pytest.raises(DomainError, match="zeta must"):
            SearchConfig(zeta=zeta)

    def test_numpy_float_zeta_accepted(self):
        cfg = SearchConfig(zeta=np.float64(0.25))
        assert type(cfg.zeta) is float and cfg.zeta == 0.25

    def test_default_budget(self):
        assert localsearch.MAX_ITERS == 1000

    def test_max_iters_carries_best(self, monkeypatch):
        K = skew_block([4, 3, 2], [100, 200, 300])
        mu = KernelDistribution(K, 2)
        monkeypatch.setattr(localsearch, "MAX_ITERS", 0)
        with pytest.raises(IncompleteSearchError) as exc:
            local_search(mu, (0, 1), SearchConfig(r=2, zeta=0.5))
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
        # singular, and so is the odd S: its scan takes the base route, whose
        # completions are batched determinants like any core's.
        M = np.random.default_rng(19).normal(size=(7, 7))
        skew = Kernel(M - M.T)
        with pytest.raises(ConditioningError):
            condition_on(skew, (0,))
        S = (0, 2, 5)
        for K in (random_npsd(7, seed=19), skew):
            mu = KernelDistribution(K, 3)
            vals = dict(mu.neighborhood_values(S, 2).items())
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

    def test_fractional_k_rejected(self):
        with pytest.raises(DomainError, match="k must be an integer"):
            map_inference(random_npsd(6, 1), 2.5)

    def test_rejects_non_npsd(self):
        with pytest.raises(DomainError):
            map_inference(Kernel(np.array([[0.0, 2.0], [0.0, 0.0]])), 1)

    def test_budget_reaches_the_search(self, monkeypatch):
        # the determinant greedy starts at (0, 1), one move from the optimum
        K = skew_block([4, 3, 2], [100, 200, 300])
        monkeypatch.setattr(localsearch, "MAX_ITERS", 0)
        with pytest.raises(IncompleteSearchError):
            map_inference(K, 2, SearchConfig(), init="standard")

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


def scaled(K, c):
    """c L, keeping the factorization (B, c C) of a low-rank kernel."""
    if K.lowrank is None:
        return Kernel(K.entries * c)
    return Kernel.from_lowrank(K.lowrank[0], K.lowrank[1] * c)


class TestScaleCovariance:
    """mu(c S) = c^k mu(S), so the argmax does not depend on c."""

    @pytest.mark.parametrize(
        "K", [random_npsd(40, 1), lowrank_npsd(40, 12, 2)], ids=["dense", "lowrank"]
    )
    def test_map_is_scale_covariant(self, K):
        S1, rep1 = map_inference(K, 8)
        for e in range(-8, 9, 2):
            S, rep = map_inference(scaled(K, 10.0**e), 8)
            assert S == S1, e
            shift = math.log10(rep["value"]) - math.log10(rep1["value"])
            assert shift == pytest.approx(8 * e, abs=1e-9)

    def test_small_scale_greedy_is_conditioned(self):
        trace = induced_greedy(KernelDistribution(scaled(random_npsd(40, 1), 1e-3), 8))
        assert trace.conditioned_steps == 8 and trace.per_candidate_steps == 0

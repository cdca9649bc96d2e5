from math import comb

import numpy as np
import pytest

from ndppmap import (
    InfeasibilityError,
    Kernel,
    KernelDistribution,
    brute_force_map,
    induced_greedy,
    standard_greedy,
)
from ndppmap.instances import random_npsd, skew_block


class TestInducedGreedy:
    def test_identity_picks_prefix(self):
        K = Kernel(np.eye(5))
        for k in (1, 2, 3):
            trace = induced_greedy(KernelDistribution(K, k))
            assert trace.final_set == tuple(range(k))
            assert trace.final_value == pytest.approx(1.0)

    def test_crude_bound_seeded(self):
        K = random_npsd(8, seed=31)
        mu = KernelDistribution(K, 3)
        trace = induced_greedy(mu)
        _, opt = brute_force_map(mu, 8, 3)
        assert comb(8, 3) * trace.final_value >= opt * (1 - 1e-9)

    def test_skew_block_sees_the_heavy_pair(self):
        # the marginal oracle weights each item by all pairs through it, so
        # the heaviest complementary pair wins immediately
        K = skew_block([4, 3, 2], [100, 200, 300])
        mu = KernelDistribution(K, 2)
        trace = induced_greedy(mu)
        assert trace.final_set == (4, 5)

    def test_zero_distribution_infeasible(self):
        K = Kernel(np.zeros((4, 4)))
        with pytest.raises(InfeasibilityError):
            induced_greedy(KernelDistribution(K, 2))

    def test_trace_value_recomputed(self):
        K = random_npsd(6, seed=3)
        mu = KernelDistribution(K, 3)
        trace = induced_greedy(mu)
        assert trace.final_value == pytest.approx(mu.value(trace.final_set), rel=1e-8)
        assert len(trace.picks) == 3

    def test_per_step_marginal_identity(self):
        # mu(S_j) = 1/(k-j) * sum over i outside of mu(S_j + i), by counting
        K = random_npsd(8, seed=12)
        mu = KernelDistribution(K, 3)
        trace = induced_greedy(mu)
        S = ()
        for j, (pick, _) in enumerate(trace.picks):
            if j < 2:  # identity only meaningful while |S| < k
                lhs = mu.marginal(S)
                rhs = sum(
                    mu.marginal(tuple(sorted(S + (i,)))) for i in range(8) if i not in S
                ) / (3 - len(S))
                assert lhs == pytest.approx(rhs, rel=1e-7)
            S = tuple(sorted(S + (pick,)))


class TestStandardGreedy:
    def test_diagonal(self):
        trace = standard_greedy(Kernel(np.diag([5.0, 4.0, 3.0])), 2)
        assert trace.final_set == (0, 1)
        assert trace.final_value == pytest.approx(20.0)

    def test_skew_block_failure(self):
        # picks the first blocks while the optimum is the last two blocks
        K = skew_block([5, 4, 3, 2], [100, 200, 300, 400])
        trace = standard_greedy(K, 4)
        assert trace.final_set == (0, 1, 2, 3)
        mu = KernelDistribution(K, 4)
        opt_set, opt = brute_force_map(mu, 8, 4)
        assert opt_set == (4, 5, 6, 7)
        assert opt > trace.final_value

    def test_skew_symmetric_zero_determinant(self):
        # L_00 is the only nonzero diagonal entry and item 0 has no couplings,
        # so after grabbing it every pair extension ties at det 0 and greedy
        # falls back to the arbitrary smallest index, ending on a zero set
        L = np.zeros((4, 4))
        L[0, 0] = 1.0
        L[2, 3], L[3, 2] = 5.0, -5.0
        trace = standard_greedy(Kernel(L), 2)
        assert trace.final_set == (0, 1)
        assert trace.final_value == pytest.approx(0.0)
        opt_set, opt = brute_force_map(KernelDistribution(Kernel(L), 2), 4, 2)
        assert opt_set == (2, 3)
        assert opt == pytest.approx(25.0)  # the skew pair has det x^2

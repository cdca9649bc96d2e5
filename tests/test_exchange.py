from itertools import combinations

import numpy as np
import pytest

from ndppmap import (
    CapacityError,
    DomainError,
    Kernel,
    KernelDistribution,
    TableDistribution,
    UniformDistribution,
    brute_force_map,
    check_pair_exchange,
    check_strong_basis_exchange,
    check_weak_exchange,
    exchange_polynomial,
    hurwitz_coeff_check,
    hurwitz_matrix,
    kernel_table,
    verify_exchange_all_pairs,
)
from ndppmap.exchange import hurwitz_minors_nonnegative
from ndppmap.instances import random_npsd, skew_block, sym_psd


class TestBruteForceMap:
    def test_identity(self):
        mu = KernelDistribution(Kernel(np.eye(3)), 2)
        assert brute_force_map(mu, 3, 2) == ((0, 1), 1.0)

    def test_diagonal(self):
        mu = KernelDistribution(Kernel(np.diag([1.0, 2.0, 3.0])), 2)
        S, v = brute_force_map(mu, 3, 2)
        assert S == (1, 2) and v == pytest.approx(6.0)

    def test_skew_block_optimum_is_last_block(self):
        K = skew_block([4, 3, 2], [100, 200, 300])
        S, v = brute_force_map(KernelDistribution(K, 2), 6, 2)
        assert S == (4, 5)
        assert v == pytest.approx(2**2 + 300**2)

    def test_capacity(self):
        mu = UniformDistribution(60, 10)
        with pytest.raises(CapacityError):
            brute_force_map(mu, 60, 10)


class TestPairExchange:
    def test_same_set_vacuous(self):
        mu = KernelDistribution(random_npsd(5, 0), 2)
        rep = check_pair_exchange(mu, (0, 1), (0, 1))
        assert rep.vacuous and rep.passed and rep.distance == 0

    def test_distance_one_beta_one(self):
        mu = KernelDistribution(random_npsd(6, 1), 3)
        rep = check_pair_exchange(mu, (0, 1, 2), (0, 1, 3))
        # the single exchange swaps S into T, so the inequality is an identity
        assert rep.measured_beta == pytest.approx(1.0)
        assert rep.passed

    def test_seeded_all_pairs_pass(self):
        K = random_npsd(6, seed=23)
        mu = KernelDistribution(K, 3)
        sets = list(combinations(range(6), 3))
        for S in sets:
            for T in sets:
                rep = check_pair_exchange(mu, S, T, r=2)
                assert rep.passed, (S, T, rep.measured_beta)
                for s, U in rep.witnesses:
                    inter_s = len(set(U) & set(S))
                    inter_t = len(set(U) & set(T))
                    assert inter_s == inter_t == s

    def test_symmetric_kernels_pass_at_r1(self):
        # real-stable case: log-concave, single swaps suffice with beta <= k^2
        K = sym_psd(7, seed=2)
        mu = KernelDistribution(K, 3)
        sets = list(combinations(range(7), 3))
        for S in sets[::3]:
            for T in sets[::3]:
                if S == T:
                    continue
                rep = check_pair_exchange(mu, S, T, r=1)
                assert rep.measured_beta <= 9 * (1 + 1e-9), (S, T, rep.measured_beta)


class TestWeakExchange:
    def test_within_radius_trivial(self):
        mu = KernelDistribution(random_npsd(6, 5), 3)
        rep = check_weak_exchange(mu, (0, 1, 2), (0, 1, 3), r=2)
        # U = S symmetric-difference T lands exactly on T: beta = 1
        assert rep.measured_beta <= 1.0 + 1e-9

    def test_uniform_single_swap(self):
        mu = UniformDistribution(6, 3)
        rep = check_weak_exchange(mu, (0, 1, 2), (3, 4, 5), r=2)
        assert rep.measured_beta == pytest.approx(1.0)

    def test_seeded_pairs_finite(self):
        K = random_npsd(8, seed=3)
        mu = KernelDistribution(K, 3)
        sets = list(combinations(range(8), 3))
        for S in sets[::7]:
            for T in sets[::7]:
                if S == T:
                    continue
                rep = check_weak_exchange(mu, S, T, r=2)
                assert np.isfinite(rep.measured_beta)

    def test_zero_mu_T_rejected(self):
        mu = TableDistribution(4, 2, {(0, 1): 1.0})
        with pytest.raises(DomainError):
            check_weak_exchange(mu, (0, 1), (2, 3), r=1)


class TestStrongBasisExchange:
    def test_same_set_vacuous(self):
        mu = UniformDistribution(4, 2)
        rep = check_strong_basis_exchange(mu, (0, 1), (0, 1))
        assert rep.vacuous and rep.passed

    def test_diagonal_kernel_beta_one(self):
        mu = KernelDistribution(Kernel(np.diag([2.0, 3.0, 5.0, 7.0])), 2)
        rep = check_strong_basis_exchange(mu, (0, 1), (2, 3))
        # products factorize over elements, so every swap is exact
        assert rep.measured_beta == pytest.approx(1.0)

    def test_projection_like_kernel_finite(self):
        K = sym_psd(8, seed=6)
        mu = KernelDistribution(K, 3)
        sets = list(combinations(range(8), 3))
        worst = 0.0
        for S in sets[::5]:
            for T in sets[::5]:
                rep = check_strong_basis_exchange(mu, S, T)
                assert np.isfinite(rep.measured_beta)
                worst = max(worst, rep.measured_beta)
        assert worst < 1e6


class TestExchangePolynomial:
    def test_distance_one(self):
        mu = KernelDistribution(random_npsd(5, 9), 2)
        poly = exchange_polynomial(mu, (0, 1), (0, 2))
        assert poly == pytest.approx(
            [mu.value((0, 2)), 0.0, mu.value((0, 1))]
        )

    def test_uniform_counts_by_intersection(self):
        mu = UniformDistribution(4, 2)
        poly = exchange_polynomial(mu, (0, 1), (2, 3))
        assert poly == pytest.approx([1.0, 0.0, 4.0, 0.0, 1.0])

    def test_matches_direct_enumeration(self):
        K = random_npsd(6, seed=14)
        mu = KernelDistribution(K, 3)
        S, T = (0, 1, 2), (3, 4, 5)
        poly = exchange_polynomial(mu, S, T)
        # independent route: enumerate all W between S n T and S u T
        buckets = np.zeros(4)
        for W in combinations(range(6), 3):
            buckets[len(set(W) & set(S))] += mu.value(W)
        assert poly[::2] == pytest.approx(buckets)
        assert poly[1::2] == pytest.approx([0.0, 0.0, 0.0])

    def test_overlapping_pair_reduces_by_conditioning(self):
        K = random_npsd(7, seed=15)
        mu = KernelDistribution(K, 3)
        S, T = (0, 1, 2), (0, 3, 4)
        poly = exchange_polynomial(mu, S, T)
        buckets = np.zeros(3)
        for extra in combinations((1, 2, 3, 4), 2):
            W = tuple(sorted((0,) + extra))
            buckets[len(set(W) & {1, 2})] += mu.value(W)
        assert poly[::2] == pytest.approx(buckets)


class TestHurwitz:
    def test_binomial_cube(self):
        # (z+1)^3: a3*a0 = 1 <= a1*a2 = 9
        assert hurwitz_coeff_check([1.0, 3.0, 3.0, 1.0])

    def test_low_degree_trivially_true(self):
        assert hurwitz_coeff_check([1.0])
        assert hurwitz_coeff_check([1.0, 5.0])
        assert hurwitz_coeff_check([2.0, 0.0, 1.0])

    def test_negative_coefficient_rejected(self):
        with pytest.raises(DomainError):
            hurwitz_coeff_check([1.0, -2.0, 1.0])

    def test_even_only_on_exchange_polynomial(self):
        K = random_npsd(6, seed=22)
        mu = KernelDistribution(K, 3)
        poly = exchange_polynomial(mu, (0, 1, 2), (3, 4, 5))
        assert hurwitz_coeff_check(poly, even_only=True)

    def test_matrix_layout(self):
        H = hurwitz_matrix([1.0, 2.0, 1.0])  # z^2 + 2z + 1
        assert np.array_equal(H, [[2.0, 0.0], [1.0, 1.0]])

    def test_matrix_zero_polynomial(self):
        assert not np.any(hurwitz_matrix([0.0, 0.0, 0.0]))

    def test_products_of_positive_roots_totally_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            roots = -rng.uniform(0.5, 3.0, size=5)  # (z + a_i), a_i > 0
            coeffs = np.poly(roots)[::-1]
            H = hurwitz_matrix(coeffs)
            assert hurwitz_minors_nonnegative(H)


class TestBatchVerifier:
    def test_consistent_with_per_pair_check(self):
        K = random_npsd(6, seed=27)
        table = kernel_table(K, 3)
        res = verify_exchange_all_pairs(table, 3)
        assert res["pairs"] == 10 * 19  # C(20,2)
        assert not res["exchange_failures"]
        assert not res["hurwitz_failures"]
        mu = KernelDistribution(K, 3)
        worst = max(
            check_pair_exchange(mu, S, T).measured_beta
            for S in combinations(range(6), 3)
            for T in combinations(range(6), 3)
            if S < T
        )
        assert res["max_measured_beta"] == pytest.approx(worst, rel=1e-9)

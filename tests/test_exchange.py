import math
from itertools import combinations

import numpy as np
import pytest

from ndppmap import exchange, setdist
from ndppmap import (
    CapacityError,
    DomainError,
    Kernel,
    KernelDistribution,
    SetDistribution,
    TableDistribution,
    UniformDistribution,
    brute_force_map,
    check_pair_exchange,
    check_strong_basis_exchange,
    exchange_polynomial,
    hurwitz_coeff_check,
    kernel_table,
    verify_exchange_all_pairs,
)
from ndppmap.exchange import _hurwitz_sides, _pair_verdict, pair_buckets
from ndppmap.instances import lowrank_npsd, random_npsd, skew_block, sym_psd


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

    def test_n_k_must_match_mu(self):
        mu = KernelDistribution(Kernel(np.eye(4)), 2)
        with pytest.raises(DomainError):
            brute_force_map(mu, 5, 2)
        with pytest.raises(DomainError):
            brute_force_map(mu, 4, 3)

    def test_smallest_set_wins_ties_and_nan_never_wins(self):
        mu = TableDistribution(4, 2, {(0, 1): math.nan, (0, 3): 2.0, (1, 2): 2.0})
        assert brute_force_map(mu, 4, 2) == ((0, 3), 2.0)

    def test_nothing_above_minus_inf(self):
        table = {S: -math.inf for S in combinations(range(4), 2)}
        table[(1, 3)] = math.nan
        assert brute_force_map(TableDistribution(4, 2, table), 4, 2) == (None, -math.inf)

    def test_k_above_n_rejected(self):
        mu = KernelDistribution(Kernel(np.eye(3)), 5)
        with pytest.raises(DomainError):
            brute_force_map(mu, 3, 5)


class TestTabulate:
    @pytest.mark.parametrize("n, k", [(7, 3), (6, 0), (5, 5), (4, 6)])
    def test_kernel_route_matches_enumeration(self, n, k):
        mu = KernelDistribution(lowrank_npsd(n, 3, n + k), k)
        want = [mu.value(S) for S in combinations(range(n), k)]
        got = mu.tabulate()
        assert got.dtype == float and got.shape == (math.comb(n, k),)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert SetDistribution.tabulate(mu) == pytest.approx(want, rel=0, abs=0)

    def test_blocks_do_not_change_values(self, monkeypatch):
        K = random_npsd(9, 4)
        whole = kernel_table(K, 4)
        monkeypatch.setattr(setdist, "TABLE_BLOCK", 10)
        assert np.array_equal(kernel_table(K, 4), whole)


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


class TestPairSides:
    @pytest.mark.parametrize(
        "check", [check_pair_exchange, check_strong_basis_exchange, exchange_polynomial]
    )
    def test_unequal_sizes_rejected(self, check):
        mu = UniformDistribution(4, 2)
        with pytest.raises(DomainError):
            check(mu, (0, 1), (0, 1, 2))


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
        # each j in T \\ S maps to its swap partner i in S \\ T
        assert set(rep.witnesses) == {2, 3} and set(rep.witnesses.values()) <= {0, 1}

    def test_witnesses_skip_j_without_positive_swap(self):
        table = {(0, 1, 2): 1.0, (3, 4, 5): 1.0, (1, 2, 3): 1.0, (0, 4, 5): 1.0}
        rep = check_strong_basis_exchange(TableDistribution(6, 3, table), (0, 1, 2), (3, 4, 5))
        # j = 3 pairs with i = 0 (mu(1, 2, 3) mu(0, 4, 5) > 0); no i serves 4 or 5
        assert rep.witnesses == {3: 0}
        assert rep.measured_beta == math.inf and not rep.passed

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

    def test_even_only_on_exchange_polynomial(self):
        K = random_npsd(6, seed=22)
        mu = KernelDistribution(K, 3)
        poly = exchange_polynomial(mu, (0, 1, 2), (3, 4, 5))
        assert hurwitz_coeff_check(poly[::2])


def swap_beta(value, S, T, r=2):
    """Smallest (mu(S)mu(T) / M^i(S->T) M^i(T->S))^(1/i) over i <= r, with the
    maxima taken over the i-exchanges U = A u B by swapping sets directly."""
    D1, D2 = sorted(set(S) - set(T)), sorted(set(T) - set(S))
    best = np.inf
    for i in range(1, min(r, len(D1)) + 1):
        swaps = [(set(A), set(B)) for A in combinations(D1, i) for B in combinations(D2, i)]
        m_st = max(value(tuple(sorted(set(S) - A | B))) for A, B in swaps)
        m_ts = max(value(tuple(sorted(set(T) - B | A))) for A, B in swaps)
        if m_st * m_ts > 0.0:
            best = min(best, (value(S) * value(T) / (m_st * m_ts)) ** (1.0 / i))
    return best


class TestBatchVerifier:
    def test_consistent_with_per_pair_check(self):
        mu = KernelDistribution(random_npsd(6, seed=27), 3)
        res = verify_exchange_all_pairs(mu)
        assert res["pairs"] == 10 * 19  # C(20,2)
        assert not res["exchange_failures"]
        assert not res["hurwitz_failures"]
        worst = 0.0
        for S in combinations(range(6), 3):
            for T in combinations(range(6), 3):
                if S < T:
                    ref = swap_beta(mu.value, S, T)
                    assert check_pair_exchange(mu, S, T).measured_beta == pytest.approx(
                        ref, rel=1e-9
                    )
                    worst = max(worst, ref)
        assert res["max_measured_beta"] == pytest.approx(worst, rel=1e-9)

    def test_records_exchange_and_hurwitz_failures(self):
        # two heavy disjoint sets and nothing heavy between them
        S, T = (0, 1, 2), (3, 4, 5)
        table = {W: 1e-6 for W in combinations(range(6), 3)}
        table[S] = table[T] = 1e6
        res = verify_exchange_all_pairs(TableDistribution(6, 3, table))
        # M^1 = M^2 = 1e-6 on both sides: beta_1 = 1e24, beta_2 = 1e12
        assert res["exchange_failures"] == [(S, T, pytest.approx(1e12))]
        # b = (1e6, 9e-6, 9e-6, 1e6): b_0 b_3 = 1e12 > b_1 b_2 = 8.1e-11
        assert res["hurwitz_failures"] == [
            (S, T, pytest.approx(1e12), pytest.approx(8.1e-11))
        ]
        assert not hurwitz_coeff_check([1e6, 9e-6, 9e-6, 1e6])


def per_pair_reference(mu):
    """The batch verifier's result, pair by pair in (S, T) order, from
    `pair_buckets`, the pair verdict and the Hurwitz rule on mu.value."""
    values = {S: mu.value(S) for S in combinations(range(mu.n), mu.k)}
    sets = list(values)
    res = {"pairs": 0, "exchange_failures": [], "hurwitz_failures": [], "max_measured_beta": 0.0}
    for ai, S in enumerate(sets):
        for T in sets[ai + 1:]:
            res["pairs"] += 1
            maxima, sums = pair_buckets(values.__getitem__, S, T)
            ok, measured = _pair_verdict(
                np.array([values[S] * values[T]]), np.array(maxima)[:, None], float(mu.k) ** 4, 2
            )
            if not ok[0]:
                res["exchange_failures"].append((S, T, float(measured[0])))
            if math.isfinite(measured[0]):
                res["max_measured_beta"] = max(res["max_measured_beta"], float(measured[0]))
            if not hurwitz_coeff_check(sums):
                lhs, rhs = _hurwitz_sides(sums)
                res["hurwitz_failures"].append((S, T, float(lhs), float(rhs)))
    return res


def signed_table(n, k, seed):
    """Lognormal masses of widely spread magnitude over the size-k subsets of
    [n], about a third of them zero and a sixth negative."""
    rng = np.random.default_rng(seed)
    sets = list(combinations(range(n), k))
    sign = rng.choice([0.0, 0.0, -1.0, 1.0, 1.0, 1.0], size=len(sets))
    masses = (sign * rng.lognormal(0.0, 4.0, size=len(sets))).tolist()
    return TableDistribution(n, k, dict(zip(sets, masses)))


class TestSweepMatchesPerPair:
    @pytest.mark.parametrize(
        "mu",
        [
            signed_table(7, 3, 0),
            signed_table(9, 4, 2),
            signed_table(6, 1, 5),
            TableDistribution(3, 3, {(0, 1, 2): 2.0}),
            KernelDistribution(random_npsd(9, 6), 4),
        ],
        ids=["signed-7-3", "signed-9-4", "k1", "one-set", "kernel-9-4"],
    )
    def test_identical_results(self, mu):
        assert verify_exchange_all_pairs(mu) == per_pair_reference(mu)

    def test_signed_table_reaches_every_verdict_path(self):
        res = per_pair_reference(signed_table(9, 4, 2))
        beta_hats = [f[2] for f in res["exchange_failures"]]
        # no positive product (inf) and a positive one too small (finite)
        assert math.inf in beta_hats and any(map(math.isfinite, beta_hats))
        assert res["hurwitz_failures"]

    def test_measured_beta_is_python_float_power(self):
        # numpy's power and square root round this root one unit lower
        lhs = 9.562958764887671
        maxima = [np.ones(1), np.full(1, 1e-9), np.ones(1)]
        _, measured = _pair_verdict(np.array([lhs]), maxima, 16.0, 2)
        assert measured[0] == lhs**0.5

    def test_failures_in_pair_order_across_blocks(self, monkeypatch):
        mu = signed_table(9, 4, 2)
        want = per_pair_reference(mu)
        monkeypatch.setattr(exchange, "PAIR_BLOCK", 37)
        got = verify_exchange_all_pairs(mu)
        assert got == want
        pairs = list(combinations(combinations(range(9), 4), 2))
        for key in ("exchange_failures", "hurwitz_failures"):
            assert len({pairs.index(f[:2]) // 37 for f in got[key]}) > 1
        assert len({len(set(S) - set(T)) for S, T, *_ in got["hurwitz_failures"]}) > 1


class TestTableDistributionKeys:
    def test_wrong_k_rejected(self):
        with pytest.raises(DomainError):
            TableDistribution(5, 2, {(0, 1, 2): 1.0})

    def test_repeated_index_rejected(self):
        with pytest.raises(DomainError):
            TableDistribution(5, 2, {(1, 1): 1.0})

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            TableDistribution(5, 2, {(0, 5): 1.0})

    def test_same_set_twice_rejected(self):
        with pytest.raises(DomainError):
            TableDistribution(5, 2, {(0, 2): 1.0, (2, 0): 2.0})

    def test_missing_set_has_mass_zero(self):
        mu = TableDistribution(4, 2, {(2, 1): 3.0})
        assert mu.value((1, 2)) == 3.0 and mu.value((0, 1)) == 0.0
        assert mu.tabulate().tolist() == [0.0, 0.0, 0.0, 3.0, 0.0, 0.0]

import math
import tracemalloc
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
    brute_force_map,
    check_strong_basis_exchange,
    hurwitz_coeff_check,
    kernel_table,
    principal_minor,
    verify_exchange_all_pairs,
)
from ndppmap.exchange import RTOL, _hurwitz_sides, _pair_verdict, _root
from ndppmap.instances import lowrank_npsd, random_npsd, skew_block, sym_psd
from test_setdist import CountingKernel


def uniform(n, k):
    """mu = 1 on every size-k subset of [n]."""
    return TableDistribution(n, k, {S: 1.0 for S in combinations(range(n), k)})


def pair_buckets(value, S, T):
    """Walk the sets W between S n T and S u T once, for sorted tuples S, T.

    Returns (maxima, sums), each of length t + 1 with t = d(S, T): bucket a
    holds the largest and the summed value(W) over W with |W n (S\\T)| = a.
    So maxima[t - i] = M^i(S->T), maxima[i] = M^i(T->S), and sums[a] is the
    coefficient b_{2a} of the exchange polynomial.  This is the per-pair
    reference for the all-pairs sweep.
    """
    core = tuple(i for i in S if i in T)
    D1 = tuple(i for i in S if i not in T)
    D2 = tuple(j for j in T if j not in S)
    t = len(D1)
    maxima, sums = [], []
    for a in range(t + 1):
        m, tot = -math.inf, 0.0
        for A in combinations(D1, a):
            for B in combinations(D2, t - a):
                v = value(tuple(sorted(core + A + B)))
                tot += v
                if v > m:
                    m = v
        maxima.append(m)
        sums.append(tot)
    return maxima, sums


def pair_beta(value, S, T, r=2):
    """(passed, measured beta) of one pair from `pair_buckets` and the pair verdict."""
    maxima, _ = pair_buckets(value, S, T)
    lhs = np.array([value(S) * value(T)])
    ok, measured = _pair_verdict(lhs, np.array(maxima)[:, None], float(len(S)) ** 4, r)
    return bool(ok[0]), float(measured[0])


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
        mu = KernelDistribution(Kernel(np.eye(60)), 10)  # the cap raises before any table
        with pytest.raises(CapacityError):
            brute_force_map(mu, 60, 10)

    def test_n_k_must_match_mu(self):
        mu = KernelDistribution(Kernel(np.eye(4)), 2)
        with pytest.raises(DomainError):
            brute_force_map(mu, 5, 2)
        with pytest.raises(DomainError):
            brute_force_map(mu, 4, 3)
        assert brute_force_map(mu, np.int64(4), np.int32(2)) == brute_force_map(mu, 4, 2)

    @pytest.mark.parametrize(
        "n, k", [(4.0, 2), (4, 2.0), (4, True), (4, "2")],
        ids=["float-n", "float-k", "bool-k", "str-k"],
    )
    def test_non_integer_n_k_rejected(self, n, k):
        # 4.0 == 4 passed the match with mu, then math.comb raised TypeError
        mu = KernelDistribution(Kernel(np.eye(4)), 2)
        with pytest.raises(DomainError, match="must be an integer"):
            brute_force_map(mu, n, k)

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
    def test_distance_one_beta_one(self):
        mu = KernelDistribution(random_npsd(6, 1), 3)
        S, T = (0, 1, 2), (0, 1, 3)
        res = verify_exchange_all_pairs(TableDistribution(6, 3, {S: mu.value(S), T: mu.value(T)}))
        # the single exchange swaps S into T, so the inequality is an identity;
        # every other pair has a zero side and measures 0
        assert res["max_measured_beta"] == pytest.approx(1.0)
        assert not res["exchange_failures"] and not res["hurwitz_failures"]

    def test_seeded_all_pairs_pass(self):
        mu = KernelDistribution(random_npsd(6, seed=23), 3)
        res = verify_exchange_all_pairs(mu)
        assert not res["exchange_failures"], res["exchange_failures"][:3]

    def test_symmetric_kernels_pass_at_r1(self):
        # real-stable case: log-concave, single swaps suffice with beta <= k^2
        K = sym_psd(7, seed=2)
        mu = KernelDistribution(K, 3)
        sets = list(combinations(range(7), 3))
        for S in sets[::3]:
            for T in sets[::3]:
                if S == T:
                    continue
                _, beta = pair_beta(mu.value, S, T, r=1)
                assert beta <= 9 * (1 + 1e-9), (S, T, beta)


class TestPairSides:
    @pytest.mark.parametrize("check", [check_strong_basis_exchange])
    def test_unequal_sizes_rejected(self, check):
        mu = uniform(4, 2)
        with pytest.raises(DomainError):
            check(mu, (0, 1), (0, 1, 2))


def parent_strong_basis(value, S, T):
    """The per-swap loop that check_strong_basis_exchange replaced, kept as
    its reference: 2 t^2 scalar value calls, a j's witness taken by the
    strict `<` rule, and its beta_j the ratio at that witness."""
    S, T = tuple(sorted(S)), tuple(sorted(T))
    D1 = tuple(i for i in S if i not in T)
    D2 = tuple(j for j in T if j not in S)
    if not D1:
        return 1.0, {}
    lhs = value(S) * value(T)
    if lhs <= 0.0:
        return 0.0, {}
    worst, witnesses = 0.0, {}
    for j in D2:
        best = math.inf
        for i in D1:
            prod = value(tuple(sorted(set(S) - {i} | {j}))) * value(tuple(sorted(set(T) - {j} | {i})))
            if prod > 0.0 and lhs / prod < best:
                best, witnesses[j] = lhs / prod, (i, lhs / prod)
        worst = max(worst, best)
    return worst, witnesses


def holed_signed_table(n, k, seed):
    """Masses of both signs, about one set in four of mass exactly 0."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=math.comb(n, k)) * (rng.random(math.comb(n, k)) > 0.25)
    return TableDistribution(n, k, dict(zip(combinations(range(n), k), vals.tolist())))


class TestStrongBasisExchange:
    @pytest.mark.parametrize(
        "S, T",
        [((0, -1), (0, 1)), ((0, 9), (0, 1)), ((1, 1), (0, 2))],
        ids=["negative", "past-n", "repeated"],
    )
    def test_bad_sets_rejected(self, S, T):
        # -1 wrapped to element 5 and served as a witness; 9 and the repeated
        # element raised numpy's IndexError and ValueError
        mu = KernelDistribution(random_npsd(6, 1), 2)
        with pytest.raises(DomainError):
            check_strong_basis_exchange(mu, S, T)
        with pytest.raises(DomainError):
            check_strong_basis_exchange(mu, T, S)

    def test_same_set_vacuous(self):
        mu = uniform(4, 2)
        assert check_strong_basis_exchange(mu, (0, 1), (0, 1)) == (1.0, {})

    def test_diagonal_kernel_beta_one(self):
        mu = KernelDistribution(Kernel(np.diag([2.0, 3.0, 5.0, 7.0])), 2)
        beta, witnesses = check_strong_basis_exchange(mu, (0, 1), (2, 3))
        # products factorize over elements, so every swap is exact
        assert beta == pytest.approx(1.0)
        # each j in T \\ S maps to its swap partner i in S \\ T, at beta_j = 1
        assert set(witnesses) == {2, 3} and {i for i, _ in witnesses.values()} <= {0, 1}
        assert [b for _, b in witnesses.values()] == pytest.approx([1.0, 1.0])

    def test_witnesses_skip_j_without_positive_swap(self):
        table = {(0, 1, 2): 1.0, (3, 4, 5): 1.0, (1, 2, 3): 1.0, (0, 4, 5): 1.0}
        beta, witnesses = check_strong_basis_exchange(
            TableDistribution(6, 3, table), (0, 1, 2), (3, 4, 5)
        )
        # j = 3 pairs with i = 0 (mu(1, 2, 3) mu(0, 4, 5) > 0); no i serves 4 or 5
        assert witnesses == {3: (0, 1.0)}
        assert beta == math.inf

    def test_projection_like_kernel_finite(self):
        K = sym_psd(8, seed=6)
        mu = KernelDistribution(K, 3)
        sets = list(combinations(range(8), 3))
        worst = 0.0
        for S in sets[::5]:
            for T in sets[::5]:
                beta, _ = check_strong_basis_exchange(mu, S, T)
                assert np.isfinite(beta)
                worst = max(worst, beta)
        assert worst < 1e6

    @pytest.mark.parametrize("kind", ["dense", "lowrank", "sym_psd", "signed-table"])
    def test_matches_parent_loop_bit_for_bit(self, kind):
        if kind == "signed-table":
            mu = holed_signed_table(7, 3, 6)

            def value(S):  # the parent's table lookup
                return mu.table.get(S, 0.0)
        else:
            K = {"dense": random_npsd(7, 3), "lowrank": lowrank_npsd(7, 2, 4), "sym_psd": sym_psd(7, 5)}
            mu = KernelDistribution(K[kind], 3)

            def value(S):  # the parent's kernel value
                return principal_minor(mu.kernel, S)

        sets = list(combinations(range(7), 3))
        for S in sets[::2]:
            for T in sets[1::3]:
                got = check_strong_basis_exchange(mu, S, T)
                assert repr(got) == repr(parent_strong_basis(value, S, T)), (S, T)

    def test_two_completions_calls_on_the_core(self):
        mu = CountingKernel(random_npsd(8, 2), 4)
        check_strong_basis_exchange(mu, (0, 2, 4, 6), (0, 3, 4, 7))
        assert mu.cores == [(0, 4), (0, 4)] and mu.values == 0
        assert [D.tolist() for D in mu.arrays] == [
            [[2, 6], [3, 6], [2, 3], [6, 7], [2, 7]],
            [[3, 7], [2, 7], [6, 7], [2, 3], [3, 6]],
        ]

    def test_empty_core_rows_are_sorted(self):
        # union_rows returns D itself for an empty core, so each row is sorted
        mu = CountingKernel(random_npsd(4, 1), 2)
        check_strong_basis_exchange(mu, (2, 3), (0, 1))
        assert mu.cores == [(), ()]
        assert all((np.diff(D, axis=1) > 0).all() for D in mu.arrays)

    @pytest.mark.parametrize("mass", [0.0, -1.0])
    def test_nonpositive_lhs(self, mass):
        table = {(0, 1): mass, (2, 3): 1.0, (0, 2): 1.0, (1, 3): 1.0}
        assert check_strong_basis_exchange(TableDistribution(4, 2, table), (0, 1), (2, 3)) == (0.0, {})

    def test_nan_and_inf_ratios_never_serve(self):
        # mu(S) = inf leaves every ratio undecided: a capacity limit
        table = {(0, 1): math.inf, (2, 3): 1.0, (0, 2): math.inf, (1, 3): 1.0, (1, 2): 2.0, (0, 3): 1.0}
        with pytest.raises(CapacityError, match="past the float64 range"):
            check_strong_basis_exchange(TableDistribution(4, 2, table), (0, 1), (2, 3))
        # a NaN swap mass never serves, though it is the first i for j = 2
        table = {(0, 1): 1.0, (2, 3): 1.0, (0, 2): 2.0, (1, 3): 1.0, (1, 2): math.nan, (0, 3): 1.0}
        got = check_strong_basis_exchange(TableDistribution(4, 2, table), (0, 1), (2, 3))
        assert got == (0.5, {2: (1, 0.5), 3: (0, 0.5)})
        assert got == parent_strong_basis(lambda S: table.get(S, 0.0), (0, 1), (2, 3))

    def test_nan_mass(self):
        table = {(0, 1): math.nan, (2, 3): 1.0, (0, 2): 1.0, (1, 3): 1.0}
        got = check_strong_basis_exchange(TableDistribution(4, 2, table), (0, 1), (2, 3))
        assert got == (math.inf, {})

    def test_tied_minimum_takes_the_first_i(self):
        mu = uniform(6, 3)
        beta, witnesses = check_strong_basis_exchange(mu, (0, 1, 2), (3, 4, 5))
        assert beta == 1.0 and witnesses == {3: (0, 1.0), 4: (0, 1.0), 5: (0, 1.0)}


class TestExchangePolynomial:
    """The even coefficients b_0, b_2, .. of the exchange polynomial are the
    bucket sums of the per-pair reference, `pair_buckets`."""

    def test_distance_one(self):
        mu = KernelDistribution(random_npsd(5, 9), 2)
        _, sums = pair_buckets(mu.value, (0, 1), (0, 2))
        assert sums == pytest.approx([mu.value((0, 2)), mu.value((0, 1))])

    def test_uniform_counts_by_intersection(self):
        _, sums = pair_buckets(uniform(4, 2).value, (0, 1), (2, 3))
        assert sums == pytest.approx([1.0, 4.0, 1.0])

    def test_matches_direct_enumeration(self):
        K = random_npsd(6, seed=14)
        mu = KernelDistribution(K, 3)
        S, T = (0, 1, 2), (3, 4, 5)
        _, sums = pair_buckets(mu.value, S, T)
        # independent route: enumerate all W between S n T and S u T
        buckets = np.zeros(4)
        for W in combinations(range(6), 3):
            buckets[len(set(W) & set(S))] += mu.value(W)
        assert sums == pytest.approx(buckets)

    def test_overlapping_pair_reduces_by_conditioning(self):
        K = random_npsd(7, seed=15)
        mu = KernelDistribution(K, 3)
        S, T = (0, 1, 2), (0, 3, 4)
        _, sums = pair_buckets(mu.value, S, T)
        buckets = np.zeros(3)
        for extra in combinations((1, 2, 3, 4), 2):
            W = tuple(sorted((0,) + extra))
            buckets[len(set(W) & {1, 2})] += mu.value(W)
        assert sums == pytest.approx(buckets)


class TestHurwitz:
    def test_binomial_cube(self):
        # (z+1)^3: a3*a0 = 1 <= a1*a2 = 9
        assert hurwitz_coeff_check([1.0, 3.0, 3.0, 1.0])

    def test_low_degree_trivially_true(self):
        assert hurwitz_coeff_check([1.0])
        assert hurwitz_coeff_check([1.0, 5.0])
        assert hurwitz_coeff_check([2.0, 0.0, 1.0])

    def test_slack_on_the_holding_side_of_a_negative_right_side(self):
        # b_0 b_3 and b_1 b_2 are both -1: equal sides hold
        assert hurwitz_coeff_check([1.0, -1.0, 1.0, -1.0])
        # a left side above -1 within RTOL holds; one past it fails
        assert hurwitz_coeff_check([1.0, -1.0, 1.0, -(1.0 - RTOL / 2)])
        assert not hurwitz_coeff_check([1.0, -1.0, 1.0, -(1.0 - 2 * RTOL)])
        assert not hurwitz_coeff_check([1.0, -1.0, 1.0, -0.5])

    def test_even_only_on_exchange_polynomial(self):
        K = random_npsd(6, seed=22)
        mu = KernelDistribution(K, 3)
        _, sums = pair_buckets(mu.value, (0, 1, 2), (3, 4, 5))
        assert hurwitz_coeff_check(sums)


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
                    assert pair_beta(mu.value, S, T)[1] == pytest.approx(ref, rel=1e-9)
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


def per_pair_reference(mu, distance=None):
    """The batch verifier's result, pair by pair in (S, T) order, from
    `pair_buckets`, the pair verdict and the Hurwitz rule on mu.value; over
    the pairs at the given distance only, when one is given."""
    values = {S: mu.value(S) for S in combinations(range(mu.n), mu.k)}
    sets = list(values)
    res = {"pairs": 0, "exchange_failures": [], "hurwitz_failures": [], "max_measured_beta": 0.0}
    for ai, S in enumerate(sets):
        for T in sets[ai + 1:]:
            if distance is not None and len(set(S) - set(T)) != distance:
                continue
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
            signed_table(8, 6, 3),
            signed_table(7, 6, 1),
            KernelDistribution(lowrank_npsd(10, 3, 1), 4),
            signed_table(10, 5, 4),
        ],
        ids=[
            "signed-7-3", "signed-9-4", "k1", "one-set", "kernel-9-4",
            "signed-8-6", "signed-7-6", "lowrank-10-4", "signed-10-5",
        ],
    )
    def test_identical_results(self, mu):
        assert verify_exchange_all_pairs(mu) == per_pair_reference(mu)

    def test_bucket_sums_start_from_zero(self):
        # a bucket of one set at -0.0 sums to 0.0 + -0.0 = 0.0, so the
        # failing pair's b_0 b_3 = 0.0 * -1.0 is -0.0; == would miss the sign
        S, T = (0, 1, 2), (3, 4, 5)
        table = {W: 1.0 if len(set(W) & set(S)) == 1 else -1.0 for W in combinations(range(6), 3)}
        table[T] = -0.0
        mu = TableDistribution(6, 3, table)
        got = verify_exchange_all_pairs(mu)
        assert repr(got) == repr(per_pair_reference(mu))
        sides = [repr(f[2:]) for f in got["hurwitz_failures"] if f[:2] == (S, T)]
        assert sides == ["(-0.0, -81.0)"]

    def test_distance_six_matches_per_pair(self):
        # at t = 6 the sweep folds no bucket a = 3, which no verdict reads
        mu = signed_table(12, 6, 0)
        want = per_pair_reference(mu, distance=6)
        got = verify_exchange_all_pairs(mu)
        assert want["pairs"] == 462
        assert len(want["hurwitz_failures"]) == 22 and not want["exchange_failures"]
        for key in ("exchange_failures", "hurwitz_failures"):
            assert [f for f in got[key] if len(set(f[0]) - set(f[1])) == 6] == want[key]

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
        q = np.random.default_rng(0).lognormal(0.0, 20.0, size=10_000)
        assert _root(q, 2).tolist() == [x**0.5 for x in q.tolist()]

    def test_failures_in_pair_order_across_blocks(self, monkeypatch):
        mu = signed_table(9, 4, 2)
        want = per_pair_reference(mu)
        pairs = list(combinations(combinations(range(9), 4), 2))
        for block in (37, 1):  # a block of 1 gathers one union S u T
            monkeypatch.setattr(exchange, "PAIR_BLOCK", block)
            got = verify_exchange_all_pairs(mu)
            assert got == want
            for key in ("exchange_failures", "hurwitz_failures"):
                failures = [(S, T) for S, T, *_ in got[key]]
                assert len({pairs.index(f) // 37 for f in failures}) > 1
                assert len({tuple(sorted(set(S) | set(T))) for S, T in failures}) > 1
            assert len({len(set(S) - set(T)) for S, T, *_ in got["hurwitz_failures"]}) > 1


class TestWorkingSet:
    def test_short_last_block_reads_no_stale_entries(self, monkeypatch):
        # at t = 3 the blocks hold 16, 16 and 4 unions: the first two hold
        # failing pairs, and the last reuses a prefix of their buffers
        mu = signed_table(9, 4, 2)
        want = per_pair_reference(mu)
        monkeypatch.setattr(exchange, "PAIR_BLOCK", 2250)
        rows = 2250 // (math.comb(6, 3) * math.comb(7, 1))
        unions = {u: i for i, u in enumerate(combinations(range(9), 7))}
        failing = [f for key in ("exchange_failures", "hurwitz_failures") for f in want[key]
                   if len(set(f[0]) - set(f[1])) == 3]
        blocks = {unions[tuple(sorted(set(S) | set(T)))] // rows for S, T, *_ in failing}
        assert rows == 16 and len(unions) % rows == 4 and {0, 1} <= blocks
        assert verify_exchange_all_pairs(mu) == want


def masked_pair_verdict(lhs, maxima, beta, r):
    """The pair verdict with boolean-mask compaction: each root is taken on
    the copies lhs[pos] / prod[pos] and written back through the mask."""
    t = len(maxima) - 1
    ok = lhs <= 0.0
    measured = np.where(ok, 0.0, math.inf)
    for i in range(1, min(r, t) + 1):
        prod = maxima[t - i] * maxima[i]
        pos = (prod > 0.0) & (lhs > 0.0)
        measured[pos] = np.minimum(measured[pos], _root(lhs[pos] / prod[pos], i))
        ok |= pos & (beta**i * prod >= lhs * (1.0 - RTOL))
    return ok, measured


def with_fp_flags(fn, *args):
    """fn(*args) and the set of floating-point errors it flagged."""
    seen = set()
    with np.errstate(all="call", call=lambda kind, flag: seen.add(kind)):
        out = fn(*args)
    return out, seen


class Untabulated(KernelDistribution):
    def tabulate(self):
        raise AssertionError("tabulated")


class TestSweepCapacity:
    def test_runs_at_the_cap_and_stops_past_it_before_tabulating(self, monkeypatch):
        monkeypatch.setattr(exchange, "CHAIN_STATE_CAP", math.comb(6, 3))
        assert verify_exchange_all_pairs(KernelDistribution(random_npsd(6, 1), 3))["pairs"] == 190
        with pytest.raises(CapacityError):
            verify_exchange_all_pairs(Untabulated(random_npsd(7, 1), 3))

    def test_mu_near_float64_sqrt_is_a_verdict(self):
        # mu(S)mu(T) = 1.69e308 fits, and the Hurwitz sides' b_1 b_2 overflow
        mu = TableDistribution(6, 3, {S: 1.3e154 for S in combinations(range(6), 3)})
        res = verify_exchange_all_pairs(mu)
        assert res["pairs"] == 190 and res["max_measured_beta"] == 1.0
        assert not res["exchange_failures"] and not res["hurwitz_failures"]

    @pytest.mark.parametrize("e", [-510, -500, 400, 500])
    def test_verdicts_do_not_depend_on_scale(self, e):
        # both inequalities are homogeneous in mu, so scaling it by 2^e
        # changes no verdict, out to where products underflow or overflow
        base = signed_table(9, 4, 0)
        mu = TableDistribution(9, 4, {S: math.ldexp(v, e) for S, v in base.table.items()})
        want, got = verify_exchange_all_pairs(base), verify_exchange_all_pairs(mu)
        assert len(want["hurwitz_failures"]) == 918
        assert got["max_measured_beta"] == want["max_measured_beta"]
        for kind in ("exchange_failures", "hurwitz_failures"):
            assert [f[:2] for f in got[kind]] == [f[:2] for f in want[kind]]

    def test_overflowing_ratio_is_a_verdict(self):
        # mu(S)mu(T) = 1e300 is finite: the i = 1 ratio 1e500 is an infinite
        # beta_1, and the i = 2 exchange, T itself, holds with beta 1
        S, T = (0, 1), (2, 3)
        table = {W: 1e-100 for W in combinations(range(4), 2)}
        table[S] = table[T] = 1e150
        res = verify_exchange_all_pairs(TableDistribution(4, 2, table))
        assert res["max_measured_beta"] == 1.0
        assert not res["exchange_failures"] and not res["hurwitz_failures"]

    @pytest.mark.parametrize("n, k", [(12, 4), (12, 6)])
    def test_peak_memory_is_a_few_blocks(self, n, k):
        # a sweep that held every column of a bucket, or every split against
        # every half, would pass this bound in its widest block
        mu = KernelDistribution(random_npsd(n, 1), k)
        mu.tabulate()
        tracemalloc.start()
        try:
            verify_exchange_all_pairs(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * exchange.PAIR_BLOCK * 8

    @pytest.mark.parametrize(
        "diag",
        [
            [1e200, 1e200, 1.0, 2.0],  # mu({0, 1}) = 1e400 is inf
            [1e80, 1e80, 1e80, 1.0, 2.0],  # every mu is finite, but mu(S)mu(T) reaches 1e320
        ],
    )
    def test_mu_past_float64_is_capacity(self, diag):
        mu = KernelDistribution(Kernel(np.diag(diag)), 2)
        with pytest.raises(CapacityError, match="float64 range"):
            verify_exchange_all_pairs(mu)


class TestPairVerdictEdges:
    EDGES = [0.0, -0.0, -1.5, 1e-300, 0.25, 3.0, 1e300, math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2])
    def test_matches_masked_copies(self, t, r):
        rng = np.random.default_rng(10 * t + r)
        for size in (1, 3, 64, 5000):
            lhs = rng.choice(self.EDGES, size)
            maxima = [rng.choice(self.EDGES, size) for _ in range(t + 1)]
            want, want_flags = with_fp_flags(masked_pair_verdict, lhs, maxima, 16.0, r)
            # fill freed memory with a marker, so an unset entry would show
            junk = [np.full(size, -7.0) for _ in range(8)]
            del junk
            got, got_flags = with_fp_flags(_pair_verdict, lhs, maxima, 16.0, r)
            assert np.array_equal(got[0], want[0])
            assert got[1].tobytes() == want[1].tobytes()
            assert got_flags == want_flags
            assert -7.0 not in got[1]

    def test_edges_reach_every_outcome(self):
        # 0, inf, nan and a finite positive root all appear among the betas
        rng = np.random.default_rng(12)
        lhs = rng.choice(self.EDGES, 5000)
        maxima = [rng.choice(self.EDGES, 5000) for _ in range(3)]
        with np.errstate(all="ignore"):
            ok, measured = _pair_verdict(lhs, maxima, 16.0, 2)
        assert ok.any() and not ok.all()
        assert np.isinf(measured).any() and np.isnan(measured).any()
        assert (measured == 0.0).any() and (np.isfinite(measured) & (measured > 0.0)).any()


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

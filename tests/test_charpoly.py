import math
import warnings
from itertools import combinations
from math import comb

import mpmath
import numpy as np
import pytest

from ndppmap import (
    CapacityError,
    DomainError,
    Kernel,
    KernelDistribution,
    induced_greedy,
    principal_minor,
    superset_marginal,
)
from ndppmap import charpoly
from ndppmap.charpoly import step_marginals
from ndppmap.instances import lowrank_npsd, random_npsd
from ndppmap.kernel import condition_on


def brute_marginal(K, Y, k):
    Y = tuple(sorted(Y))
    rest = [i for i in range(K.n) if i not in Y]
    return sum(
        principal_minor(K, sorted(Y + extra)) for extra in combinations(rest, k - len(Y))
    )


def mp_marginal(K, Y, k, dps=60, rho="1e-8"):
    """The superset marginal as a polynomial coefficient, at `dps` digits.

    det(diag(1_rest) + mu * L) = sum over S containing Y of mu^|S| det(L_S).
    Dividing the Y rows by mu leaves q(mu), whose mu^t coefficient
    (t = k - |Y|) is the marginal.  q is fitted by a degree t + 3 polynomial
    through Chebyshev nodes on [-rho, rho]; the dropped higher coefficients
    enter scaled by rho^4.
    """
    Y = set(Y)
    t = k - len(Y)
    N = t + 4
    with mpmath.workdps(dps):
        rho = mpmath.mpf(rho)
        L = mpmath.matrix(K.entries.tolist())
        nodes = [mpmath.cos(mpmath.pi * (2 * j + 1) / (2 * N)) for j in range(N)]
        vals = []
        for x in nodes:
            A = L * (rho * x)
            for i in range(K.n):
                if i in Y:
                    for j in range(K.n):
                        A[i, j] = L[i, j]
                else:
                    A[i, i] += 1
            vals.append(mpmath.det(A))
        V = mpmath.matrix([[x**i for i in range(N)] for x in nodes])
        coeffs = mpmath.lu_solve(V, mpmath.matrix(vals))
        return float(coeffs[t] / rho**t)


class TestCharpolyCoeffs:
    """Superset marginals are the coefficients of det(L + lambda * diag(1_rest))."""

    def test_identity_binomials(self):
        n = 4
        K = Kernel(np.eye(n))
        got = [superset_marginal(K, [], k) for k in range(n + 1)]
        assert got == pytest.approx([comb(n, k) for k in range(n + 1)])

    def test_diagonal_with_pinned_index(self):
        K = Kernel(np.diag([2.0, 3.0]))
        # g(lambda) = 2 * (3 + lambda): k=1 reads lambda^1, k=2 reads lambda^0
        assert superset_marginal(K, [0], 1) == pytest.approx(2.0)
        assert superset_marginal(K, [0], 2) == pytest.approx(6.0)

    def test_coefficients_count_supersets(self):
        K = random_npsd(5, seed=21)
        for k in range(1, 6):
            assert superset_marginal(K, [2], k) == pytest.approx(
                brute_marginal(K, [2], k), rel=1e-8, abs=1e-9
            )


class TestElementarySymmetric:
    """With nothing pinned, the marginal is e_k of the kernel's spectrum."""

    def test_roots_123(self):
        K = Kernel(np.diag([1.0, 2.0, 3.0]))
        got = [superset_marginal(K, [], k) for k in range(4)]
        assert got == pytest.approx([1.0, 6.0, 11.0, 6.0])

    def test_all_zero_roots(self):
        K = Kernel(np.triu(np.ones((4, 4)), 1))  # nilpotent: every minor is 0
        for k in range(1, 5):
            assert superset_marginal(K, [], k) == pytest.approx(0.0, abs=1e-12)

    def test_conjugate_pair(self):
        # spectrum {i, -i}: e_1 = 0, e_2 = 1
        K = Kernel(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert superset_marginal(K, [], 1) == pytest.approx(0.0, abs=1e-12)
        assert superset_marginal(K, [], 2) == pytest.approx(1.0)


def loop_elementary(lam, t):
    """e_0..e_t by the product recurrence as a loop over lam: the reference
    for `charpoly._elementary`."""
    e = np.zeros(t + 1, dtype=complex)
    e[0] = 1.0
    for x in lam:
        e[1:] += x * e[:-1]
    return e


def same_parts(a, b):
    """Bit for bit on every real and imaginary part that is not NaN, and NaN
    in the same parts.  A NaN's sign and payload are not compared: numpy's
    vector add of +NaN and -NaN returns either, by the array's length."""
    x, y = a.view(float), b.view(float)
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and x[~nan].tobytes() == y[~nan].tobytes()


class TestElementaryColumns:
    POOL = [0.0, -0.0, 1.5, -2.0, 3.0, 1e300, -1e-300, math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("pairs", [False, True], ids=["real", "conjugate-pairs"])
    def test_matches_the_loop(self, pairs):
        rng = np.random.default_rng(7)
        cases = 0
        with np.errstate(all="ignore"):
            for m in range(8):
                for t in range(m + 3):  # t > m too, and m = 0
                    for draw in range(12):
                        pool = self.POOL if draw % 2 else self.POOL[:7]  # finite half the time
                        lam = rng.choice(pool, m)
                        if pairs:
                            lam = lam.astype(complex)
                            for i in range(0, m - 1, 2):
                                lam[i] = complex(rng.choice(pool), rng.choice(pool))
                                lam[i + 1] = np.conj(lam[i])
                        got, want = charpoly._elementary(lam, t), loop_elementary(lam, t)
                        assert same_parts(got, want), (lam, t)
                        if not np.isnan(want.view(float)).any():
                            assert got.tobytes() == want.tobytes()
                        cases += 1
        assert cases == 12 * sum(m + 3 for m in range(8))

    def test_superset_marginal_unchanged(self, monkeypatch):
        cases = [(random_npsd(9, s), Y, k) for s in range(3) for Y in ((), (2,), (0, 5))
                 for k in range(len(Y), 10)] + [(lowrank_npsd(9, 4, 1), (1,), 4)]
        got = [superset_marginal(K, Y, k) for K, Y, k in cases]
        monkeypatch.setattr(charpoly, "_elementary", loop_elementary)
        assert repr(got) == repr([superset_marginal(K, Y, k) for K, Y, k in cases])


class TestSupersetMarginal:
    @pytest.mark.parametrize("k", [True, 2.5])
    def test_k_must_be_an_integer(self, k):
        K = random_npsd(6, seed=1)
        with pytest.raises(DomainError, match="k must be an integer"):
            superset_marginal(K, (), k)
        with pytest.raises(DomainError, match="k must be an integer"):
            step_marginals(K, (), k)

    def test_numpy_integer_k_accepted(self):
        K = random_npsd(6, seed=1)
        assert superset_marginal(K, (0,), np.int64(3)) == superset_marginal(K, (0,), 3)
        assert step_marginals(K, (0,), np.int64(3)) == step_marginals(K, (0,), 3)

    def test_identity_trace(self):
        assert superset_marginal(Kernel(np.eye(3)), [], 1) == pytest.approx(3.0)

    def test_full_size_is_determinant(self):
        K = random_npsd(5, seed=2)
        want = float(np.linalg.det(K.entries))
        assert superset_marginal(K, [], 5) == pytest.approx(want, rel=1e-8)

    def test_two_pinned(self):
        K = random_npsd(6, seed=13)
        got = superset_marginal(K, [0, 3], 3)
        assert got == pytest.approx(brute_marginal(K, [0, 3], 3), rel=1e-8)

    def test_all_small_instances(self):
        for seed in range(3):
            K = random_npsd(7, seed)
            for k in range(1, 4):
                for ylen in range(0, k + 1):
                    for Y in combinations(range(7), ylen):
                        got = superset_marginal(K, Y, k)
                        want = brute_marginal(K, Y, k)
                        assert got == pytest.approx(want, rel=1e-8, abs=1e-9)

    def test_telescoping_total(self):
        K = random_npsd(6, seed=17)
        total = sum(principal_minor(K, S) for S in combinations(range(6), 3))
        assert superset_marginal(K, [], 3) == pytest.approx(total, rel=1e-8)

    def test_bad_sizes(self):
        K = random_npsd(4, seed=0)
        with pytest.raises(DomainError):
            superset_marginal(K, [0, 1], 1)

    def test_singular_pin_skew_pair(self):
        # L_22 = 0 cannot be conditioned on, yet {2, 3} has det 5^2
        L = np.zeros((4, 4))
        L[0, 0] = 1.0
        L[2, 3], L[3, 2] = 5.0, -5.0
        K = Kernel(L)
        assert superset_marginal(K, (2,), 2) == pytest.approx(25.0)
        assert brute_marginal(K, (2,), 2) == pytest.approx(25.0)

    def test_skew_odd_pins_match_enumeration(self):
        # A skew-symmetric kernel has every odd principal minor equal to 0.
        rng = np.random.default_rng(8)
        M = rng.normal(size=(12, 12))
        K = Kernel(M - M.T)
        for Y in ((0,), (3,), (1, 4, 9), (2, 5, 7, 8, 10)):
            for k in (len(Y) + 1, 6):
                want = brute_marginal(K, Y, k)
                assert superset_marginal(K, Y, k) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_singular_pin_cap(self):
        K = Kernel(np.zeros((30, 30)))
        with pytest.raises(CapacityError):
            superset_marginal(K, (0,), 8)
        assert superset_marginal(K, (0,), 2) == 0.0  # 29 steps, within the cap

    def test_induced_greedy_on_skew_kernel(self):
        # Every odd pin along the way is singular and is priced through its
        # even extensions; each step's best marginal is sandwiched by
        # (k - |S|) M(S) = sum_j M(S u {j}).
        rng = np.random.default_rng(24)
        M = rng.normal(size=(24, 24))
        K = Kernel(M - M.T)
        n, k = 24, 12
        mu = KernelDistribution(K, k)
        trace = induced_greedy(mu)
        prev = superset_marginal(K, (), k)
        for step, (_, val) in enumerate(trace.picks):
            assert (k - step) / (n - step) * prev * (1 - 1e-9) <= val <= prev * (1 + 1e-9)
            prev = val
        assert trace.final_value == pytest.approx(prev, rel=1e-9)
        assert trace.final_value > 0.0

    def test_lowrank_pin_beyond_rank(self):
        K = lowrank_npsd(7, 2, seed=3)
        for Y in combinations(range(7), 3):
            want = brute_marginal(K, Y, 4)
            assert want == pytest.approx(0.0, abs=1e-9)
            assert superset_marginal(K, Y, 4) == pytest.approx(want, abs=1e-9)

    def test_restricted_lowrank_keeps_rank_bound(self):
        mu = KernelDistribution(lowrank_npsd(8, 3, seed=1), 4)
        nu = mu.restrict((0, 2, 3, 5, 6, 7))
        assert nu.kernel.rank_d == 3
        assert nu.marginal(()) == 0.0  # exact: the rank bound, not a sum of minors


class TestLowrankMarginal:
    def test_rank_one_trace(self):
        n = 5
        K = Kernel.from_lowrank(np.ones((n, 1)), np.array([[1.0]]))
        assert superset_marginal(K, [], 1) == pytest.approx(float(n))

    def test_rank_one_pairs_vanish(self):
        K = Kernel.from_lowrank(np.ones((5, 1)), np.array([[1.0]]))
        assert superset_marginal(K, [], 2) == pytest.approx(0.0, abs=1e-9)

    def test_matches_dense_path(self):
        # With factors, k > d returns 0 from the rank bound; without them the
        # same pins are conditioned, or summed over extensions when singular.
        K = lowrank_npsd(8, 3, seed=1)
        for k in range(2, 6):
            got = superset_marginal(K, [1], k)
            want = superset_marginal(Kernel(K.entries), [1], k)
            scale = 1.0 + abs(superset_marginal(K, [1], 3))
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9 * scale)

    def test_full_sweep_against_enumeration(self):
        K = lowrank_npsd(7, 3, seed=5)
        for k in range(1, 5):
            for ylen in range(0, k + 1):
                for Y in combinations(range(7), ylen):
                    got = superset_marginal(K, Y, k)
                    want = brute_marginal(K, Y, k)
                    scale = 1.0 + abs(want)
                    assert got == pytest.approx(want, rel=1e-6, abs=1e-6 * scale)


class TestHighPrecisionOracle:
    """Pins beyond brute-force reach, checked against a 60-digit mpmath oracle
    that never conditions on Y."""

    def test_oracle_matches_enumeration(self):
        K = random_npsd(7, seed=4)
        for Y, k in (((), 3), ((1,), 3), ((0, 5), 4)):
            want = brute_marginal(K, Y, k)
            assert mp_marginal(K, Y, k) == pytest.approx(want, rel=1e-12)

    def test_dense_n40(self):
        K = random_npsd(40, seed=6)
        Y, k = (3, 17), 6
        assert superset_marginal(K, Y, k) == pytest.approx(mp_marginal(K, Y, k), rel=1e-9)

    def test_lowrank_n60(self):
        K = lowrank_npsd(60, 8, seed=7)
        Y, k = (5,), 4
        want = mp_marginal(K, Y, k)
        assert superset_marginal(K, Y, k) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize(
        "make, S, k",
        [
            (lambda: random_npsd(40, seed=6), (3, 17), 6),
            (lambda: lowrank_npsd(60, 8, seed=7), (5,), 4),
            (lambda: random_npsd(40, seed=6), (3, 17, 25, 31), 6),
            (lambda: random_npsd(40, seed=6), (3, 8, 17, 25, 31), 6),
            (lambda: lowrank_npsd(60, 8, seed=7), (5, 40), 4),
            (lambda: lowrank_npsd(60, 8, seed=7), (5, 12, 40), 4),
        ],
        ids=["dense-n40", "lowrank-n60", "dense-n40-t2", "dense-n40-t1",
             "lowrank-n60-t2", "lowrank-n60-t1"],
    )
    def test_step_marginals(self, make, S, k):
        # The argmax decides the greedy's pick; the median candidate lies well
        # below it. Both are the diagonal of one polynomial in L^S, whose
        # coefficients take one eigvals at t >= 3 and no spectrum at t <= 2.
        K = make()
        cands, vals = step_marginals(K, S, k)
        median = int(np.argsort(vals)[len(vals) // 2])
        assert vals[median] < 0.99 * max(vals)
        for p in (int(np.argmax(vals)), median):
            want = mp_marginal(K, S + (cands[p],), k)
            assert vals[p] == pytest.approx(want, rel=1e-12)


class TestStepMarginalsRoute:
    def test_cancelling_polynomial_takes_the_eigenbasis(self, monkeypatch):
        # Pinned on 5, L^S has rank t = 9 and a spectrum from 2.9 to 682, so
        # the terms of the polynomial reach about 1e9 times its values; its
        # error estimate is far above the limit, and one eig prices the step.
        K = lowrank_npsd(40, 10, seed=5)
        M, det_S = condition_on(K, (5,))
        assert charpoly._polynomial_step(M, det_S, 9) is None
        eigs, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda A: eigs.append(len(A)) or eig(A))
        cands, vals = step_marginals(K, (5,), 10)
        assert eigs == [39]
        want = [superset_marginal(K, (5, i), 10) for i in cands]
        assert np.abs(np.subtract(vals, want)).max() <= 1e-12 * max(map(abs, want))


class TestStepMarginalsOverflow:
    def test_overflow_returns_none_without_warnings(self):
        # The +-1e200 pair overflows the recurrence and the product; the
        # step reports no price, and its own overflow is silent.
        K = Kernel(np.array([[1, 1e200, 0.5, 0], [-1e200, 1, 0, 0], [0.5, 0, 2, 0], [0, 0, 0, 3]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert step_marginals(K, (), 3) is None
        assert caught == []

    @pytest.mark.parametrize("S, k", [((3,), 3), ((3,), 2)], ids=["t2", "t1"])
    def test_last_steps_overflow_returns_none_without_warnings(self, S, k):
        # Pinned on 3, det(L_S) = 1e200 and L^S is the leading 3 x 3 block:
        # det(L_S) * L^S_00 overflows at t = 1, and the +-1e200 pair's minor
        # at t = 2. The closed forms take no spectrum, and their overflow is
        # silent too.
        K = Kernel(
            np.array(
                [[1e200, 1e200, 0.5, 0], [-1e200, 1, 0, 0], [0.5, 0, 2, 0], [0, 0, 0, 1e200]]
            )
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert step_marginals(K, S, k) is None
        assert caught == []

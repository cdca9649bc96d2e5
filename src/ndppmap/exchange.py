"""Brute-force MAP oracle and exchange-inequality verification.

For a pair of size-k sets S, T at distance t, the i-exchanges E^i(S,T) are
the subsets U of the symmetric difference with |U n S| = |U n T| = i.  One
walk over the sets W between S n T and S u T, bucketed by |W n (S\\T)|,
prices every pair check: the pairwise exchange inequality, its
even-polynomial Hurwitz corollary and the batch verifier over all pairs.
The strong basis exchange, which pairs single swaps element by element, is
checked on its own for the core-set certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import CapacityError, DomainError
from .setdist import SetDistribution, as_set

BRUTE_FORCE_CAP = 2 * 10**6
RTOL = 1e-9  # relative slack of the exchange and Hurwitz inequalities


@dataclass
class ExchangeReport:
    pair: tuple
    variant: str  # pair_exchange | strong_basis
    measured_beta: float
    passed: bool
    witnesses: list = field(default_factory=list)
    distance: int = 0
    vacuous: bool = False


def brute_force_map(mu: SetDistribution, n, k):
    """Exact argmax of mu over size-k subsets of [n], smallest set on ties."""
    if not 0 <= k <= n:
        raise DomainError(f"k={k} outside 0..n={n}")
    if math.comb(n, k) > BRUTE_FORCE_CAP:
        raise CapacityError(f"C({n},{k}) exceeds brute-force cap {BRUTE_FORCE_CAP}")
    best, best_val = None, -math.inf
    for S in combinations(range(n), k):
        v = float(mu.value(S))
        if v > best_val:
            best, best_val = S, v
    return best, best_val


def _sides(S, T):
    S, T = as_set(S), as_set(T)
    if len(S) != len(T):
        raise DomainError("S and T must have equal size")
    D1 = tuple(i for i in S if i not in T)
    D2 = tuple(j for j in T if j not in S)
    return S, T, D1, D2


def pair_buckets(value, S, T):
    """Walk the sets W between S n T and S u T once, for sorted tuples S, T.

    Returns (maxima, sums), each of length t + 1 with t = d(S, T): bucket a
    holds the largest and the summed value(W) over W with |W n (S\\T)| = a.
    So maxima[t - i] = M^i(S->T), maxima[i] = M^i(T->S), and sums[a] is the
    coefficient b_{2a} of the exchange polynomial.
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


def _pair_verdict(lhs, maxima, beta, r):
    """(passed, measured beta) of mu(S)mu(T) = lhs <= max_{i<=r} beta^i M^i(S->T) M^i(T->S).

    The measured beta is the smallest (lhs / prod_i)^(1/i) over i <= r; the
    pair passes when lhs <= 0 or beta^i prod_i >= lhs (1 - RTOL) for some i.
    """
    if lhs <= 0.0:
        return True, 0.0
    t = len(maxima) - 1
    ok, measured = False, math.inf
    for i in range(1, min(r, t) + 1):
        prod = maxima[t - i] * maxima[i]
        if prod > 0.0:
            measured = min(measured, (lhs / prod) ** (1.0 / i))
            if beta**i * prod >= lhs * (1.0 - RTOL):
                ok = True
    return ok, measured


def check_pair_exchange(mu: SetDistribution, S, T, r=2) -> ExchangeReport:
    """(r, beta)-approximate exchange with beta = k^4:
    mu(S)mu(T) <= max_{i<=r} beta^i M^i(S->T) M^i(T->S)."""
    S, T, D1, _ = _sides(S, T)
    t = len(D1)
    if t == 0:
        return ExchangeReport((S, T), "pair_exchange", 1.0, True, distance=0, vacuous=True)
    maxima, _ = pair_buckets(mu.value, S, T)
    passed, measured = _pair_verdict(
        mu.value(S) * mu.value(T), maxima, float(len(S)) ** 4, r
    )
    return ExchangeReport((S, T), "pair_exchange", measured, passed, distance=t)


def check_strong_basis_exchange(mu: SetDistribution, S, T) -> ExchangeReport:
    """Strong basis exchange: for every j in T\\S some i in S\\T has
    mu(S)mu(T) <= beta * mu(S-i+j) mu(T+i-j); reports the max-over-j minimal beta."""
    S, T, D1, D2 = _sides(S, T)
    t = len(D1)
    if t == 0:
        return ExchangeReport((S, T), "strong_basis", 1.0, True, distance=0, vacuous=True)
    lhs = mu.value(S) * mu.value(T)
    if lhs <= 0.0:
        return ExchangeReport((S, T), "strong_basis", 0.0, True, distance=t)
    worst, witnesses = 0.0, []
    for j in D2:
        best, best_i = math.inf, None
        for i in D1:
            prod = mu.value(as_set(set(S) - {i} | {j})) * mu.value(as_set(set(T) - {j} | {i}))
            if prod > 0.0:
                beta = lhs / prod
                if beta < best:
                    best, best_i = beta, i
        if best > worst:
            worst = best
        witnesses.append((1, (best_i, j) if best_i is not None else (j,)))
    return ExchangeReport(
        (S, T), "strong_basis", worst, math.isfinite(worst), witnesses, t
    )


def exchange_polynomial(mu: SetDistribution, S, T) -> np.ndarray:
    """Coefficients b_0..b_{2t} with b_{2i} = sum of mu(W) over W between S n T
    and S u T with |W n (S\\T)| = i; odd coefficients vanish, b_0 = mu(T),
    b_{2t} = mu(S)."""
    S, T, D1, _ = _sides(S, T)
    b = np.zeros(2 * len(D1) + 1)
    b[::2] = pair_buckets(mu.value, S, T)[1]
    return b


def _hurwitz_sides(b):
    t = len(b) - 1
    return b[0] * b[t], max(b[1] * b[t - 1], b[2] * b[t - 2])


def hurwitz_coeff_check(b):
    """b_0 b_t <= max{b_1 b_{t-1}, b_2 b_{t-2}} on coefficients b_0..b_t,
    vacuous for t <= 2.  On the even coefficients of the exchange polynomial
    this is the Hurwitz corollary of the pairwise exchange inequality."""
    if len(b) <= 3:
        return True
    lhs, rhs = _hurwitz_sides(b)
    return lhs <= rhs * (1.0 + RTOL) + 1e-300


def verify_exchange_all_pairs(values, k):
    """Batch check of the pairwise exchange inequality (constants beta^i,
    beta = k^4, i <= 2) and the even-polynomial Hurwitz inequality over every
    unordered pair of size-k sets.

    `values` maps every sorted size-k tuple to mu of that set.  One
    `pair_buckets` walk per pair supplies both the exchange maxima and the
    Hurwitz coefficients b_{2a} = sums[a].
    """
    beta = float(k) ** 4
    value = values.__getitem__
    sets = sorted(values)
    result = {
        "pairs": 0,
        "exchange_failures": [],
        "hurwitz_failures": [],
        "max_measured_beta": 0.0,
    }
    for ai, S in enumerate(sets):
        for T in sets[ai + 1:]:
            result["pairs"] += 1
            maxima, sums = pair_buckets(value, S, T)
            ok, measured = _pair_verdict(values[S] * values[T], maxima, beta, 2)
            if not ok:
                result["exchange_failures"].append((S, T, measured))
            if math.isfinite(measured):
                result["max_measured_beta"] = max(result["max_measured_beta"], measured)
            if not hurwitz_coeff_check(sums):
                result["hurwitz_failures"].append((S, T, *_hurwitz_sides(sums)))
    return result

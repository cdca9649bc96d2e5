"""Brute-force MAP oracle and exchange-inequality verification.

For a pair of size-k sets S, T at distance t, the i-exchanges E^i(S,T) are
the subsets U of the symmetric difference with |U n S| = |U n T| = i.  The
module measures, per pair, the smallest beta for which each of the three
exchange notions holds, and runs the even-coefficient Hurwitz checks that
underlie the pairwise version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import CapacityError, DomainError
from .setdist import SetDistribution, as_set

BRUTE_FORCE_CAP = 2 * 10**6
RTOL = 1e-9  # relative slack of the Hurwitz and batch exchange inequalities


@dataclass
class ExchangeReport:
    pair: tuple
    variant: str  # weak | pair_exchange | strong_basis
    measured_beta: float
    passed: bool
    witnesses: list = field(default_factory=list)
    distance: int = 0
    vacuous: bool = False


def brute_force_map(mu: SetDistribution, n, k):
    """Exact argmax of mu over size-k subsets of [n], smallest set on ties."""
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
    D1 = tuple(i for i in S if i not in T)
    D2 = tuple(j for j in T if j not in S)
    return S, T, D1, D2


def exchanges(S, T, i):
    """Yield U in E^i(S,T) as (U_S, U_T) with U = U_S u U_T."""
    _, _, D1, D2 = _sides(S, T)
    for A in combinations(D1, i):
        for B in combinations(D2, i):
            yield A, B


def _swap(S, A, B):
    return tuple(sorted((set(S) - set(A)) | set(B)))


def check_pair_exchange(mu: SetDistribution, S, T, r=2) -> ExchangeReport:
    """(r, beta)-approximate exchange: mu(S)mu(T) <= max_i beta^i M^i(S->T) M^i(T->S)."""
    S, T, D1, D2 = _sides(S, T)
    if len(S) != len(T):
        raise DomainError("S and T must have equal size")
    t = len(D1)
    k = len(S)
    if t == 0:
        return ExchangeReport((S, T), "pair_exchange", 1.0, True, distance=0, vacuous=True)
    lhs = mu.value(S) * mu.value(T)
    best_beta = math.inf
    witnesses = []
    for i in range(1, min(r, t) + 1):
        m_st, w_st = -math.inf, None
        m_ts, w_ts = -math.inf, None
        for A, B in exchanges(S, T, i):
            v = mu.value(_swap(S, A, B))
            if v > m_st:
                m_st, w_st = v, A + B
            v = mu.value(_swap(T, B, A))
            if v > m_ts:
                m_ts, w_ts = v, A + B
        prod = m_st * m_ts
        if lhs <= 0.0:
            best_beta = 0.0
            witnesses = [(i, w_st)]
            break
        if prod > 0.0:
            beta = (lhs / prod) ** (1.0 / i)
            if beta < best_beta:
                best_beta = beta
                witnesses = [(i, w_st), (i, w_ts)]
    passed = best_beta <= k**4 * (1.0 + 1e-9)
    return ExchangeReport((S, T), "pair_exchange", best_beta, passed, witnesses, t)


def check_weak_exchange(mu: SetDistribution, S, T, r=2) -> ExchangeReport:
    """Weak exchange: mu(S) <= beta * mu(S^U) * (mu(S)/mu(T))^(s/d(S,T)) for some U."""
    S, T, D1, D2 = _sides(S, T)
    t = len(D1)
    if t < 1:
        raise DomainError("weak exchange needs d(S,T) >= 1")
    muT = mu.value(T)
    if muT <= 0.0:
        raise DomainError("weak exchange undefined: mu(T) = 0")
    muS = mu.value(S)
    if muS <= 0.0:
        return ExchangeReport((S, T), "weak", 0.0, True, distance=t)
    ratio = muS / muT
    best_beta, witness = math.inf, None
    for s in range(1, min(r, t) + 1):
        for A, B in exchanges(S, T, s):
            v = mu.value(_swap(S, A, B))
            if v <= 0.0:
                continue
            beta = muS / (v * ratio ** (s / t))
            if beta < best_beta:
                best_beta, witness = beta, (s, A + B)
    witnesses = [witness] if witness else []
    return ExchangeReport((S, T), "weak", best_beta, math.isfinite(best_beta), witnesses, t)


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
            prod = mu.value(_swap(S, (i,), (j,))) * mu.value(_swap(T, (j,), (i,)))
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
    S, T, D1, D2 = _sides(S, T)
    if len(S) != len(T):
        raise DomainError("S and T must have equal size")
    t = len(D1)
    core = tuple(i for i in S if i in T)
    b = np.zeros(2 * t + 1)
    for a in range(t + 1):
        total = 0.0
        for A in combinations(D1, a):
            for B in combinations(D2, t - a):
                total += mu.value(tuple(sorted(core + A + B)))
        b[2 * a] = total
    return b


def hurwitz_coeff_check(coeffs, even_only=False):
    """a_n a_0 <= max{a_1 a_{n-1}, a_2 a_{n-2}}; with even_only, the same rule
    on the even-indexed coefficients (a_0 a_{2t} <= max{a_2 a_{2t-2}, a_4 a_{2t-4}})."""
    a = np.asarray(coeffs, float)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if np.any(a < -RTOL * (1.0 + scale)):
        raise DomainError("Hurwitz coefficient check requires nonnegative coefficients")
    a = np.maximum(a, 0.0)
    if even_only:
        a = a[::2]
    n = len(a) - 1
    while n > 0 and a[n] == 0.0:
        n -= 1
    if n <= 2:
        return True
    lhs = a[n] * a[0]
    rhs = max(a[1] * a[n - 1], a[2] * a[n - 2])
    return lhs <= rhs * (1.0 + RTOL) + RTOL * (1.0 + scale) ** 2


def hurwitz_matrix(coeffs) -> np.ndarray:
    """H[i,j] = a_{2j-i} (1-based) when 0 <= 2j-i <= n, else 0; n = nominal degree."""
    a = np.asarray(coeffs, float)
    n = len(a) - 1
    H = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            idx = 2 * j - i
            if 0 <= idx <= n:
                H[i - 1, j - 1] = a[idx]
    return H


def hurwitz_minors_nonnegative(H):
    """Numeric spot-check: every 2x2 minor of H is >= -RTOL * scale."""
    H = np.asarray(H, float)
    n = H.shape[0]
    scale = 1.0 + float(np.max(np.abs(H))) ** 2 if H.size else 1.0
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            for c1 in range(n):
                for c2 in range(c1 + 1, n):
                    m = H[r1, c1] * H[r2, c2] - H[r1, c2] * H[r2, c1]
                    if m < -RTOL * scale:
                        return False
    return True


def verify_exchange_all_pairs(values, k):
    """Batch check of the pairwise exchange inequality (constants beta^i,
    beta = k^4) and the even-polynomial Hurwitz inequality over every
    unordered pair of size-k sets.

    `values` maps every sorted size-k tuple to mu of that set.  A single walk
    over the sets W between S n T and S u T supplies, bucketed by
    a = |W n (S\\T)|, both the maxima M^{t-a}(S->T) = M over bucket a and the
    sums b_{2a} used by the Hurwitz corollary.
    """
    beta = float(k) ** 4
    sets = sorted(values)
    result = {
        "pairs": 0,
        "exchange_failures": [],
        "hurwitz_failures": [],
        "max_measured_beta": 0.0,
    }
    for ai in range(len(sets)):
        S = sets[ai]
        sS = set(S)
        for bi in range(ai + 1, len(sets)):
            T = sets[bi]
            D1 = tuple(i for i in S if i not in T)
            D2 = tuple(j for j in T if j not in sS)
            t = len(D1)
            core = tuple(i for i in S if i in T)
            lhs = values[S] * values[T]
            result["pairs"] += 1
            maxima = [0.0] * (t + 1)
            sums = [0.0] * (t + 1)
            for a in range(t + 1):
                m = -math.inf
                tot = 0.0
                for A in combinations(D1, a):
                    for B in combinations(D2, t - a):
                        v = values[tuple(sorted(core + A + B))]
                        tot += v
                        if v > m:
                            m = v
                maxima[a] = m
                sums[a] = tot
            # pairwise exchange at i in {1, 2}
            ok = lhs <= 0.0
            measured = math.inf if not ok else 0.0
            for i in (1, 2):
                if lhs <= 0.0 or i > t:
                    break
                prod = maxima[t - i] * maxima[i]
                if prod > 0.0:
                    measured = min(measured, (lhs / prod) ** (1.0 / i))
                    if beta**i * prod >= lhs * (1.0 - RTOL):
                        ok = True
            if not ok:
                result["exchange_failures"].append((S, T, measured))
            if math.isfinite(measured):
                result["max_measured_beta"] = max(result["max_measured_beta"], measured)
            # even-polynomial Hurwitz corollary on b_{2a} = sums[a]
            cands = [sums[1] * sums[t - 1]]
            if t >= 2:
                cands.append(sums[2] * sums[t - 2])
            h_lhs = sums[0] * sums[t]
            if t > 2 and h_lhs > max(cands) * (1.0 + RTOL) + 1e-300:
                result["hurwitz_failures"].append((S, T, h_lhs, max(cands)))
    return result

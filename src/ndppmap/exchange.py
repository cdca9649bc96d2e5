"""Brute-force MAP oracle and exchange-inequality verification.

For a pair of size-k sets S, T at distance t, the i-exchanges E^i(S,T) are
the subsets U of the symmetric difference with |U n S| = |U n T| = i.  The
sets W between S n T and S u T, bucketed by |W n (S\\T)|, carry both the
pairwise exchange inequality and its even-polynomial Hurwitz corollary.  The
verifier over all pairs sweeps those buckets with arrays: it lays
mu.tabulate() out by colex rank and takes the pairs in blocks of PAIR_BLOCK,
grouped by distance, one gather per (A, B) pattern, and judges them with one
pair verdict and one Hurwitz rule.  The brute-force argmax reads the same
table.  The strong basis exchange, which pairs single swaps element by
element, is checked on its own for the core-set certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .errors import CapacityError, DomainError
from .setdist import SetDistribution, as_set, subsets

BRUTE_FORCE_CAP = 2 * 10**6
RTOL = 1e-9  # relative slack of the exchange and Hurwitz inequalities
PAIR_BLOCK = 1 << 15  # pairs per block of the all-pairs sweep


@dataclass
class ExchangeReport:
    pair: tuple
    measured_beta: float
    passed: bool
    witnesses: dict = field(default_factory=dict)  # strong basis: j -> its best i
    distance: int = 0
    vacuous: bool = False


def brute_force_map(mu: SetDistribution, n, k):
    """Exact argmax of mu over size-k subsets of [n], smallest set on ties;
    NaN never wins, and (None, -inf) when nothing exceeds -inf."""
    if (n, k) != (mu.n, mu.k):
        raise DomainError(f"(n, k) = ({n}, {k}) but mu is over ({mu.n}, {mu.k})")
    if not 0 <= k <= n:
        raise DomainError(f"k={k} outside 0..n={n}")
    if math.comb(n, k) > BRUTE_FORCE_CAP:
        raise CapacityError(f"C({n},{k}) exceeds brute-force cap {BRUTE_FORCE_CAP}")
    vals = mu.tabulate()
    i = int(np.argmax(np.where(np.isnan(vals), -math.inf, vals)))
    if not vals[i] > -math.inf:
        return None, -math.inf
    return next(islice(combinations(range(n), k), i, None)), float(vals[i])


def _sides(S, T):
    S, T = as_set(S), as_set(T)
    if len(S) != len(T):
        raise DomainError("S and T must have equal size")
    D1 = tuple(i for i in S if i not in T)
    D2 = tuple(j for j in T if j not in S)
    return S, T, D1, D2


def _root(q, i):
    """q ** (1/i) elementwise with Python's float power, which numpy's power
    and square root do not match in the last bit."""
    return q if i == 1 else np.array([x ** (1.0 / i) for x in q.tolist()])


def _pair_verdict(lhs, maxima, beta, r):
    """(passed, measured beta) of mu(S)mu(T) = lhs <= max_{i<=r} beta^i M^i(S->T) M^i(T->S),
    as arrays over pairs: lhs[p] and maxima[a][p] (bucket a of `_sweep_buckets`).

    The measured beta is the smallest (lhs / prod_i)^(1/i) over i <= r with
    prod_i > 0, inf if there is none and 0 when lhs <= 0; the pair passes when
    lhs <= 0 or beta^i prod_i >= lhs (1 - RTOL) for some i.
    """
    t = len(maxima) - 1
    ok = lhs <= 0.0
    measured = np.where(ok, 0.0, math.inf)
    for i in range(1, min(r, t) + 1):
        prod = maxima[t - i] * maxima[i]
        pos = (prod > 0.0) & (lhs > 0.0)
        measured[pos] = np.minimum(measured[pos], _root(lhs[pos] / prod[pos], i))
        ok |= pos & (beta**i * prod >= lhs * (1.0 - RTOL))
    return ok, measured


def check_strong_basis_exchange(mu: SetDistribution, S, T) -> ExchangeReport:
    """Strong basis exchange: for every j in T\\S some i in S\\T has
    mu(S)mu(T) <= beta * mu(S-i+j) mu(T+i-j); reports the max-over-j minimal
    beta, and as witnesses the map j -> i of each j's best positive-mass swap."""
    S, T, D1, D2 = _sides(S, T)
    t = len(D1)
    if t == 0:
        return ExchangeReport((S, T), 1.0, True, distance=0, vacuous=True)
    lhs = mu.value(S) * mu.value(T)
    if lhs <= 0.0:
        return ExchangeReport((S, T), 0.0, True, distance=t)
    worst, witnesses = 0.0, {}
    for j in D2:
        best = math.inf
        for i in D1:
            prod = mu.value(as_set(set(S) - {i} | {j})) * mu.value(as_set(set(T) - {j} | {i}))
            if prod > 0.0 and lhs / prod < best:
                best, witnesses[j] = lhs / prod, i
        worst = max(worst, best)
    return ExchangeReport((S, T), worst, math.isfinite(worst), witnesses, t)


def _hurwitz_sides(b):
    t = len(b) - 1
    return b[0] * b[t], np.maximum(b[1] * b[t - 1], b[2] * b[t - 2])


def hurwitz_coeff_check(b):
    """b_0 b_t <= max{b_1 b_{t-1}, b_2 b_{t-2}} on coefficients b_0..b_t,
    vacuous for t <= 2.  On the even coefficients of the exchange polynomial
    this is the Hurwitz corollary of the pairwise exchange inequality.  Each
    b_a may be an array over pairs; the verdict is then one per pair."""
    if len(b) <= 3:
        return True
    lhs, rhs = _hurwitz_sides(b)
    return lhs <= rhs * (1.0 + RTOL) + 1e-300


def _sweep_buckets(vals, colex, U, t):
    """(maxima, sums) of m pairs at distance t at once, each a length-(t + 1)
    list of arrays over the pairs: bucket a holds the largest and the summed
    mu(W) over W = core u A u B with A of size a in S\\T and B of size t - a
    in T\\S.  So maxima[t - i] = M^i(S->T), maxima[i] = M^i(T->S), and
    sums[a] is the coefficient b_{2a} of the exchange polynomial.  The rows
    of U (k + t x m) hold each pair's core, then S\\T, then T\\S, each
    ascending; every pattern (A, B) is gathered for all m pairs, each sum
    adding its terms in combinations order of A, then of B."""
    k = len(U) - t
    core = list(range(k - t))
    maxima, sums = [], []
    for a in range(t + 1):
        m, tot = -math.inf, 0.0
        for A in combinations(range(k - t, k), a):
            for B in combinations(range(k, k + t), t - a):
                v = vals[colex(U[core + list(A) + list(B)])]
                tot = tot + v
                m = np.maximum(m, v)
        maxima.append(m)
        sums.append(tot)
    return maxima, sums


def _outside_first(X, inside):
    """Each column of X with its entries not `inside` first, then the others,
    both in their original order."""
    out = np.cumsum(~inside, axis=0) - 1
    dest = np.where(inside, out[-1] + np.cumsum(inside, axis=0), out)
    R = np.empty_like(X)
    np.put_along_axis(R, dest, X, axis=0)
    return R


def verify_exchange_all_pairs(mu: SetDistribution):
    """Batch check of the pairwise exchange inequality (constants beta^i,
    beta = k^4, i <= 2) and the even-polynomial Hurwitz inequality over every
    unordered pair of size-k subsets of [n].

    mu.tabulate() is laid out by colex rank.  The unordered pairs (S, T),
    S < T, are swept in blocks of at most PAIR_BLOCK; within a block the
    pairs at each distance share their (A, B) patterns, so `_sweep_buckets`
    yields every pair's bucket maxima and sums, to which the pair
    verdict and the Hurwitz rule apply as arrays.  Failures are listed in
    pair order.
    """
    n, k = mu.n, mu.k
    N = math.comb(n, k)
    pos = subsets(range(n), k).T.copy()  # column a is the a-th set in combinations order
    # A rank below N uses only terms below N, so clamping keeps int64 exact.
    binom = np.array(
        [[min(math.comb(w, j), N) for j in range(1, k + 1)] for w in range(n)], dtype=np.int64
    ).reshape(n, k)
    count = np.min_scalar_type(k)

    def colex(W):
        """Colex ranks sum_j C(w_j, j+1), w sorted, of the columns of W; w's
        place in its sorted column is the number of entries below it."""
        below = (W[:, None, :] > W[None, :, :]).view(np.uint8).sum(axis=1, dtype=count)
        return binom[W, below].sum(axis=0)

    def label(a):
        return tuple(pos[:, a].tolist())

    own = mu.tabulate()
    vals = np.empty(N)
    vals[colex(pos)] = own
    beta = float(k) ** 4
    npairs = N * (N - 1) // 2
    result = {
        "pairs": npairs,
        "exchange_failures": [],
        "hurwitz_failures": [],
        "max_measured_beta": 0.0,
    }
    rows = np.arange(N)
    first = rows * (2 * N - rows - 1) // 2  # linear index of the pair (a, a + 1)
    for p0 in range(0, npairs, PAIR_BLOCK):
        p = np.arange(p0, min(p0 + PAIR_BLOCK, npairs))
        a = np.searchsorted(first, p, side="right") - 1
        b = p - first[a] + a + 1
        SP, TP = pos[:, a], pos[:, b]
        in_T = (SP[:, None, :] == TP[None, :, :]).any(axis=1)
        in_S = (TP[:, None, :] == SP[None, :, :]).any(axis=1)
        SP, TP = _outside_first(SP, in_T), _outside_first(TP, in_S)
        dist = k - in_T.sum(axis=0)
        exch, hurw = [], []
        for t in range(1, k + 1):
            sel = np.flatnonzero(dist == t)
            if not len(sel):
                continue
            U = np.concatenate((SP[t:, sel], SP[:t, sel], TP[:t, sel]))
            maxima, sums = _sweep_buckets(vals, colex, U, t)
            ok, measured = _pair_verdict(own[a[sel]] * own[b[sel]], maxima, beta, 2)
            finite = measured[np.isfinite(measured)]
            if len(finite):
                result["max_measured_beta"] = max(result["max_measured_beta"], float(finite.max()))
            exch += [(sel[j], measured[j]) for j in np.flatnonzero(~ok)]
            bad = np.flatnonzero(~np.broadcast_to(hurwitz_coeff_check(sums), sel.shape))
            if len(bad):
                lhs, rhs = _hurwitz_sides(sums)
                hurw += [(sel[j], lhs[j], rhs[j]) for j in bad]
        for q, beta_hat in sorted(exch):
            result["exchange_failures"].append((label(a[q]), label(b[q]), float(beta_hat)))
        for q, lhs, rhs in sorted(hurw):
            result["hurwitz_failures"].append((label(a[q]), label(b[q]), float(lhs), float(rhs)))
    return result

"""Brute-force MAP oracle and exchange-inequality verification.

For a pair of size-k sets S, T at distance t, the i-exchanges E^i(S,T) are
the subsets U of the symmetric difference with |U n S| = |U n T| = i.  One
walk over the sets W between S n T and S u T, bucketed by |W n (S\\T)|,
prices the per-pair checks: the pairwise exchange inequality and its
even-polynomial Hurwitz corollary.  The batch verifier over all pairs sweeps
the same buckets with arrays: its table, which must hold exactly the size-k
subsets of its ground set, is laid out by colex rank, and the pairs are taken
in blocks of PAIR_BLOCK, grouped by distance, one gather per (A, B) pattern.
One pair verdict and one Hurwitz rule, written for arrays, judge both.  The
strong basis exchange, which pairs single swaps element by element, is
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
PAIR_BLOCK = 1 << 15  # pairs per block of the all-pairs sweep


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


def _root(q, i):
    """q ** (1/i) elementwise with Python's float power, which numpy's power
    and square root do not match in the last bit."""
    return q if i == 1 else np.array([x ** (1.0 / i) for x in q.tolist()])


def _pair_verdict(lhs, maxima, beta, r):
    """(passed, measured beta) of mu(S)mu(T) = lhs <= max_{i<=r} beta^i M^i(S->T) M^i(T->S),
    as arrays over pairs: lhs[p] and maxima[a][p] (bucket a of `pair_buckets`).

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


def check_pair_exchange(mu: SetDistribution, S, T, r=2) -> ExchangeReport:
    """(r, beta)-approximate exchange with beta = k^4:
    mu(S)mu(T) <= max_{i<=r} beta^i M^i(S->T) M^i(T->S)."""
    S, T, D1, _ = _sides(S, T)
    t = len(D1)
    if t == 0:
        return ExchangeReport((S, T), "pair_exchange", 1.0, True, distance=0, vacuous=True)
    maxima, _ = pair_buckets(mu.value, S, T)
    passed, measured = _pair_verdict(
        np.array([mu.value(S) * mu.value(T)]), np.array(maxima)[:, None], float(len(S)) ** 4, r
    )
    return ExchangeReport(
        (S, T), "pair_exchange", float(measured[0]), bool(passed[0]), distance=t
    )


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


def _table_layout(values, k):
    """(sets, pos, colex, vals) of a table keyed by every size-k subset of its ground set.

    sets is the sorted key list and column a of pos (k x N) the positions of
    sets[a] in the sorted ground set.  colex maps a k x m array whose columns
    are sets of positions to their colex ranks sum_j C(w_j, j+1), w sorted;
    vals[colex(pos)] = values[sets].
    """
    sets = sorted(values)
    if any(len(S) != k for S in sets):
        raise DomainError(f"table keys must be size-{k} sets")
    N = len(sets)
    ground, pos = np.unique(np.array(sets, dtype=np.int64).reshape(N, k), return_inverse=True)
    pos = pos.reshape(N, k).T.copy()
    if (np.diff(pos, axis=0) <= 0).any() or N != math.comb(len(ground), k):
        raise DomainError(
            f"table keys are not the size-{k} subsets of their {len(ground)}-element ground set"
        )
    # A rank below N uses only terms below N, so clamping keeps int64 exact.
    binom = np.array(
        [[min(math.comb(w, j), N) for j in range(1, k + 1)] for w in range(len(ground))],
        dtype=np.int64,
    ).reshape(len(ground), k)
    count = np.min_scalar_type(k)

    def colex(W):
        # w's place in its sorted column is the number of entries below it.
        below = (W[:, None, :] > W[None, :, :]).view(np.uint8).sum(axis=1, dtype=count)
        return binom[W, below].sum(axis=0)

    vals = np.empty(N)
    vals[colex(pos)] = [values[S] for S in sets]
    return sets, pos, colex, vals


def _sweep_buckets(vals, colex, U, t):
    """`pair_buckets` for m pairs at distance t at once.  The rows of U
    (k + t x m) hold each pair's core, then S\\T, then T\\S, each ascending;
    every pattern (A, B) is gathered for all m pairs, in `pair_buckets`' order,
    so each sum adds its terms in the same order."""
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


def verify_exchange_all_pairs(values, k):
    """Batch check of the pairwise exchange inequality (constants beta^i,
    beta = k^4, i <= 2) and the even-polynomial Hurwitz inequality over every
    unordered pair of size-k sets.

    `values` maps every sorted size-k tuple over some ground set of labels to
    mu of that set; any other key set raises DomainError.  The unordered pairs
    (S, T), S < T, are swept in blocks of at most PAIR_BLOCK; within a block
    the pairs at each distance share their (A, B) patterns, so
    `_sweep_buckets` yields every pair's `pair_buckets` maxima and sums, to
    which the pair verdict and the Hurwitz rule apply as arrays.  Failures
    are listed in pair order.
    """
    sets, pos, colex, vals = _table_layout(values, k)
    beta = float(k) ** 4
    N = len(sets)
    npairs = N * (N - 1) // 2
    result = {
        "pairs": npairs,
        "exchange_failures": [],
        "hurwitz_failures": [],
        "max_measured_beta": 0.0,
    }
    rows = np.arange(N)
    first = rows * (2 * N - rows - 1) // 2  # linear index of the pair (a, a + 1)
    own = vals[colex(pos)]
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
            result["exchange_failures"].append((sets[a[q]], sets[b[q]], float(beta_hat)))
        for q, lhs, rhs in sorted(hurw):
            result["hurwitz_failures"].append((sets[a[q]], sets[b[q]], float(lhs), float(rhs)))
    return result

"""Brute-force MAP oracle and exchange-inequality verification.

For a pair of size-k sets S, T at distance t, the i-exchanges E^i(S,T) are
the subsets U of the symmetric difference with |U n S| = |U n T| = i.  The
sets W between S n T and S u T, bucketed by |W n (S\\T)|, carry both the
pairwise exchange inequality and its even-polynomial Hurwitz corollary.  The
verifier over all pairs sweeps those buckets with arrays: it lays
mu.tabulate() out by colex rank, enumerates the pairs at each distance by
their union, so that every set it reads sits at a fixed position pattern of
the union, gathers about PAIR_BLOCK sets per block of unions, halves first,
folds whole rows of the buckets that a verdict reads, and judges the pairs
with one pair verdict and one Hurwitz rule.  A block's colex ranks are k
gathers from its slot table, the binomial entries of each union element at
each rank place, and the verdict masks with `where=`, never by copying.
Every block writes views of one working set that the call allocates once.
The brute-force argmax reads the same table.  The strong basis exchange,
which pairs single swaps element by element, is checked on its own, by two
completions calls per pair, for the core-set certificate.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from .downup import CHAIN_STATE_CAP
from .errors import CapacityError, DomainError
from .kernel import _normalize_indices, _whole
from .setdist import SetDistribution, colex_table, subsets

BRUTE_FORCE_CAP = 2 * 10**6
RTOL = 1e-9  # relative slack of the exchange and Hurwitz inequalities
PAIR_BLOCK = 1 << 15  # sets gathered per block of unions in the all-pairs sweep


def brute_force_map(mu: SetDistribution, n, k):
    """Exact argmax of mu over size-k subsets of [n], smallest set on ties;
    NaN never wins, and (None, -inf) when nothing exceeds -inf."""
    n, k = _whole("n", n), _whole("k", k)
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


def _root(q, i, where=True, out=None):
    """q ** (1/i) elementwise by np.float_power: libm's pow in float64, like
    Python's float power, which numpy's power and sqrt miss in the last bit.
    Entries where `where` is False are left unset, or as they are in out."""
    return q if i == 1 else np.float_power(q, 1.0 / i, out=out, where=where)


def _pair_verdict(lhs, maxima, beta, r, scratch=None):
    """(passed, measured beta) of mu(S)mu(T) = lhs <= max_{i<=r} beta^i M^i(S->T) M^i(T->S),
    as arrays over pairs: lhs[p] and maxima[a][p], the largest mu(W) over the
    sets W = (S n T) u A u B with A of size a in S\\T and B in T\\S, so that
    maxima[t - i] = M^i(S->T) and maxima[i] = M^i(T->S).

    The measured beta is the smallest (lhs / prod_i)^(1/i) over i <= r with
    prod_i > 0, inf if there is none and 0 when lhs <= 0; the pair passes when
    lhs <= 0 or beta^i prod_i >= lhs (1 - RTOL) for some i.  scratch, if
    given, is the `_verdict_scratch` of lhs's shape that the verdict writes
    and returns its (passed, measured) in, so that a caller judging many
    blocks allocates nothing per block.
    """
    ok, measured, prod, q, pos, tmp = scratch or _verdict_scratch(np.shape(lhs))
    t = len(maxima) - 1
    np.less_equal(lhs, 0.0, out=ok)
    measured.fill(math.inf)
    np.copyto(measured, 0.0, where=ok)
    for i in range(1, min(r, t) + 1):
        np.multiply(maxima[t - i], maxima[i], out=prod)
        np.greater(prod, 0.0, out=pos)
        pos &= np.greater(lhs, 0.0, out=tmp)
        np.divide(lhs, prod, out=q, where=pos)  # entries off pos stay unread
        np.minimum(measured, _root(q, i, where=pos, out=q), out=measured, where=pos)
        # beta^i prod >= lhs (1 - RTOL), with prod and q reused for its sides
        np.multiply(prod, beta**i, out=prod)
        np.greater_equal(prod, np.multiply(lhs, 1.0 - RTOL, out=q), out=tmp)
        ok |= np.logical_and(tmp, pos, out=tmp)
    return ok, measured


def _verdict_scratch(shape):
    """Uninitialised arrays for `_pair_verdict` over pairs of this shape."""
    return (np.empty(shape, bool), np.empty(shape), np.empty(shape), np.empty(shape),
            np.empty(shape, bool), np.empty(shape, bool))


def check_strong_basis_exchange(mu: SetDistribution, S, T):
    """Strong basis exchange: for every j in T\\S some i in S\\T has
    mu(S)mu(T) <= beta * mu(S-i+j) mu(T+i-j).  Returns (beta, witnesses): beta
    is the max over j of beta_j, the least ratio mu(S)mu(T) / prod over the i
    with prod > 0 (inf if none), and witnesses maps each j with finite beta_j
    to (i, beta_j), i the first at that minimum; (1.0, {}) when S = T and
    (0.0, {}) when mu(S)mu(T) <= 0.  Two completions calls on the core S n T
    price S and the sets S-i+j, and T and the sets T+i-j, in (j, i) order.
    Raises DomainError unless S and T are each mu.k distinct elements of
    [0, n), and CapacityError when mu(S)mu(T) is past the float64 range,
    where no ratio is decided; a swap product past it gives the ratio 0."""
    S, T = _normalize_indices(S, mu.n), _normalize_indices(T, mu.n)
    if len(S) != mu.k or len(T) != mu.k:
        raise DomainError(f"S and T must have size {mu.k}, got {S} and {T}")
    core = tuple(i for i in S if i in T)
    D1 = [i for i in S if i not in T]
    D2 = [j for j in T if j not in S]
    t = len(D1)
    if t == 0:
        return 1.0, {}
    # Rows are sorted, since union_rows returns D itself for an empty core.
    left = [D1] + [sorted(set(D1) - {i} | {j}) for j in D2 for i in D1]
    right = [D2] + [sorted(set(D2) - {j} | {i}) for j in D2 for i in D1]
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
        vals = mu.completions(core, np.array(left)) * mu.completions(core, np.array(right))
        lhs, prod = vals[0], vals[1:].reshape(t, t)
        if np.isinf(lhs):
            raise CapacityError(f"mu{S}mu{T} = {lhs} is past the float64 range")
        if lhs <= 0.0:
            return 0.0, {}
        ratio = np.divide(lhs, prod, out=np.full((t, t), math.inf), where=prod > 0.0)
    ratio[np.isnan(ratio)] = math.inf  # NaN never serves
    best, first = ratio.min(axis=1), ratio.argmin(axis=1)
    witnesses = {j: (D1[first[a]], float(best[a])) for a, j in enumerate(D2) if best[a] < math.inf}
    return float(best.max()), witnesses


def _hurwitz_sides(b, out=None):
    """(b_0 b_t, max{b_1 b_{t-1}, b_2 b_{t-2}}), the sides of the Hurwitz
    rule, written in the arrays out = (lhs, rhs, scratch), or in new arrays
    of the b_a's broadcast shape."""
    t = len(b) - 1
    lhs, rhs, tmp = out or (np.empty(np.broadcast_shapes(*map(np.shape, b))) for _ in range(3))
    np.maximum(np.multiply(b[1], b[t - 1], out=rhs), np.multiply(b[2], b[t - 2], out=tmp), out=rhs)
    return np.multiply(b[0], b[t], out=lhs), rhs


def _hurwitz_holds(lhs, rhs, slack, holds):
    """lhs <= rhs (1 - RTOL) where rhs < 0 and lhs <= rhs (1 + RTOL)
    elsewhere, written in holds, with slack an array of holds' shape."""
    slack.fill(1.0 + RTOL)
    np.copyto(slack, 1.0 - RTOL, where=np.less(rhs, 0.0, out=holds))
    return np.less_equal(lhs, np.multiply(rhs, slack, out=slack), out=holds)


def hurwitz_coeff_check(b):
    """b_0 b_t <= max{b_1 b_{t-1}, b_2 b_{t-2}} on coefficients b_0..b_t,
    vacuous for t <= 2.  On the even coefficients of the exchange polynomial
    this is the Hurwitz corollary of the pairwise exchange inequality.  Each
    b_a may be an array over pairs; the verdict is then one per pair.  The
    only slack is RTOL, relative to the right side and added on the side
    that holds whatever the right side's sign, so scaling mu by a power of 2
    keeps the verdict while both sides stay normal floats; an infinite right
    side holds."""
    if len(b) <= 3:
        return True
    lhs, rhs = _hurwitz_sides(b)
    holds = _hurwitz_holds(lhs, rhs, np.empty(lhs.shape), np.empty(lhs.shape, bool))
    return holds[()]  # a numpy bool, as before, when every b_a is a scalar


def _distance_tables(k, t):
    """(P, cols): where the pairs at distance t sit in a sorted union of
    k + t elements.  A pair is a core pattern c, k - t of the union's
    positions, and a split: the half s of the other 2t positions that S
    keeps, T keeping the other half.  The halves are the t-subsets of those
    2t positions in combinations order; the splits are the ones that hold the
    first of them, so that S < T.  Complements reverse combinations order,
    so T's half is half -1 - s, and a core's other positions are a row of
    the reversed subsets(range(k + t), 2t).

    P[h, c] (halves x cores x k) holds the ascending positions of c and half
    h, halves first, so that a column of halves picks whole rows of an array
    laid out like P.  cols[a][j, s] is the half of the j-th set W = c u A u B
    of split s with A of size a in S's half and B of size t - a in T's,
    taken in combinations order of A, then of B.  Halves are looked up by
    their 2t-bit masks.  cols holds the buckets a <= 2 and t - a <= 2 only,
    the ones that the pair verdict at r = 2 and the Hurwitz rule read."""
    halves = subsets(range(2 * t), t)
    splits = math.comb(2 * t - 1, t - 1)
    bit = (1 << np.arange(2 * t)).astype(np.min_scalar_type((1 << 2 * t) - 1))
    index = np.empty(1 << 2 * t, dtype=np.min_scalar_type(len(halves) - 1))
    index[np.bitwise_or.reduce(bit[halves], axis=1)] = np.arange(len(halves))
    cols = {}
    for a in range(t + 1):
        if min(a, t - a) > 2:
            continue
        A = np.bitwise_or.reduce(bit[halves[:splits, subsets(range(t), a)]], axis=2)
        B = np.bitwise_or.reduce(bit[halves[::-1][:splits, subsets(range(t), t - a)]], axis=2)
        cols[a] = index[(A[:, :, None] | B[:, None, :]).reshape(splits, -1)].T.copy()
    cores = subsets(range(k + t), k - t)
    others = subsets(range(k + t), 2 * t)[::-1]
    core = np.broadcast_to(cores, (len(halves), len(cores), k - t))
    P = np.sort(np.concatenate((core, others[:, halves].swapaxes(0, 1)), axis=2), axis=2)
    return P, cols


def _block_width(n, k, t):
    """(halves, cores, rows): the shape of each block of unions at distance
    t, about PAIR_BLOCK sets of halves x cores x rows unions, at least one
    union and at most all C(n, k + t) of them."""
    halves, cores = math.comb(2 * t, t), math.comb(k + t, k - t)
    return halves, cores, min(max(1, PAIR_BLOCK // (halves * cores)), math.comb(n, k + t))


def _view(buf, *shape):
    """The first prod(shape) entries of the flat buffer buf, in that shape."""
    return buf[:math.prod(shape)].reshape(shape)


def verify_exchange_all_pairs(mu: SetDistribution):
    """Batch check of the pairwise exchange inequality (constants beta^i,
    beta = k^4, i <= 2) and the even-polynomial Hurwitz inequality over every
    unordered pair of size-k subsets of [n].

    mu.tabulate() is laid out by colex rank.  The pairs (S, T), S < T, at
    distance t are enumerated by their union, a row of subsets(range(n),
    k + t), and by their place in it (`_distance_tables`).  Every set between
    S n T and S u T is then the union at a fixed ascending position pattern,
    so its colex rank is a sum over the rank places j of the union's slot
    table binom[j, U[:, p_j]], one gather per place.  Each block of unions
    makes one gather V (halves x cores x unions) of about PAIR_BLOCK sets,
    and each read bucket's maximum and sum over every pair is a running fold
    in place of the whole rows V[c] of its fixed columns c (no sums at t <= 2,
    where the Hurwitz rule is vacuous), to which the pair verdict and the
    Hurwitz rule apply as arrays over splits x cores x unions.  Every block
    array, from the slot table to the verdict's, is a view of one working
    set allocated per call, sized for the widest block and written by `out=`
    (`take` gathers a column V[c] into one column buffer), so a block
    allocates nothing of its size, and failures, listed in pair order, are
    looked for only in a block where some pair fails.  Raises CapacityError past the walk's
    CHAIN_STATE_CAP sets before any array is built (both suites are
    quadratic in the sets), and where float64 cannot decide a verdict: a mu
    value or a product mu(S)mu(T) that is not finite.  Every other product
    that overflows is judged as the infinity it rounds to: an infinite ratio
    is an infinite beta_i, and an infinite right side holds.
    """
    n, k = mu.n, mu.k
    N = math.comb(n, k)
    if N > CHAIN_STATE_CAP:
        raise CapacityError(f"C({n},{k}) exceeds the all-pairs cap {CHAIN_STATE_CAP}")
    binom = colex_table(n, k)
    vals = np.empty(N)
    vals[binom[np.arange(k), subsets(range(n), k)].sum(axis=1)] = mu.tabulate()
    if not np.isfinite(vals).all():
        raise CapacityError("mu is past the float64 range on some size-k set")
    beta = float(k) ** 4
    exch, hurw, beta_max = [], [], 0.0
    # One working set for the call, sized for the widest block: a block's
    # arrays are views of these flat buffers, written by `out=`.  The sets of
    # a block are its ranks and V, whose int64 view holds each rank term.
    ts = range(1, min(k, n - k) + 1)
    widths = {t: _block_width(n, k, t) for t in ts}
    sets = max((h * c * r for h, c, r in widths.values()), default=0)
    half = sets // 2  # pairs per block: the splits are half the halves
    slot_len = max((k * (k + t) * r for t, (_, _, r) in widths.items()), default=0)
    slot_buf = np.empty(slot_len, np.int64)
    rank_buf, V_buf = np.empty(sets, np.int64), np.empty(sets)
    col_buf, lhs_buf, finite_buf = np.empty(half), np.empty(half), np.empty(half, bool)
    max_buf, sum_buf = np.empty(6 * half), np.empty(6 * half)  # a verdict reads at most 6 buckets
    verdict_bufs = _verdict_scratch(half)
    # A bucket sum overflows only where two of its sets have mu(S)mu(T) past
    # float64, so the call raises and no NaN verdict it leaves is returned.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in ts:
            P, cols = _distance_tables(k, t)
            halves, cores, rows = widths[t]
            unions = subsets(range(n), k + t)
            for u0 in range(0, len(unions), rows):
                U = unions[u0:u0 + rows]
                block, pairs = (halves, cores, len(U)), (halves // 2, cores, len(U))
                # mode="clip" lets take write out= without a copy; every index is in range
                slots = _view(slot_buf, k, k + t, len(U))  # slots[j, p, u]: C(U[u, p], j + 1)
                binom.take(U.T, axis=1, out=slots, mode="clip")
                ranks, V = _view(rank_buf, *block), _view(V_buf, *block)
                term = V.view(np.int64)
                slots[0].take(P[..., 0], axis=0, out=ranks, mode="clip")
                for j in range(1, k):
                    ranks += slots[j].take(P[..., j], axis=0, out=term, mode="clip")
                vals.take(ranks, out=V, mode="clip")
                col = _view(col_buf, *pairs)
                block_max, block_sum = (_view(b, len(cols), *pairs) for b in (max_buf, sum_buf))
                maxima, sums = [None] * (t + 1), [None] * (t + 1)
                for b, (a, bucket) in enumerate(cols.items()):
                    maxima[a] = m = V.take(bucket[0], axis=0, out=block_max[b], mode="clip")
                    # 0.0 + m, as a sum from 0.0
                    sums[a] = tot = np.add(m, 0.0, out=block_sum[b]) if t > 2 else None
                    for c in bucket[1:]:
                        v = V.take(c, axis=0, out=col, mode="clip")
                        np.maximum(m, v, out=m)
                        if tot is not None:
                            np.add(tot, v, out=tot)
                # bucket t holds S alone and bucket 0 holds T alone
                mu_st, finite = _view(lhs_buf, *pairs), _view(finite_buf, *pairs)
                np.multiply(maxima[t], maxima[0], out=mu_st)
                if not np.isfinite(mu_st, out=finite).all():
                    raise CapacityError("mu(S)mu(T) is past the float64 range on some pair")
                scratch = tuple(_view(buf, *pairs) for buf in verdict_bufs)
                ok, measured = _pair_verdict(mu_st, maxima, beta, 2, scratch)
                top = measured.max(where=np.isfinite(measured, out=finite), initial=0.0)
                beta_max = max(beta_max, float(top))

                def pair(s, c, u):
                    return tuple(U[u, P[s, c]].tolist()), tuple(U[u, P[-1 - s, c]].tolist())

                if not ok.all():
                    for s, c, u in zip(*np.nonzero(~ok)):
                        exch.append((*pair(s, c, u), float(measured[s, c, u])))
                if t > 2:  # the verdict's scratch, read, holds the Hurwitz sides
                    _, lhs, rhs, slack, _, holds = scratch
                    _hurwitz_sides(sums, (lhs, rhs, slack))
                    if not _hurwitz_holds(lhs, rhs, slack, holds).all():
                        for s, c, u in zip(*np.nonzero(~holds)):
                            hurw.append((*pair(s, c, u), float(lhs[s, c, u]), float(rhs[s, c, u])))
    return {
        "pairs": N * (N - 1) // 2,
        "exchange_failures": sorted(exch),
        "hurwitz_failures": sorted(hurw),
        "max_measured_beta": beta_max,
    }

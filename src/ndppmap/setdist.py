"""Unnormalized densities over size-k subsets, exposed as evaluation oracles.

Every set of completions of a core Y, mu(Y u D[i]) over the rows of an index
array D that the caller builds once with subsets(pool, s), has one route:
completions(Y, D), over the sorted sets union_rows(Y, D).  value(S), the table,
the base marginal, the r-neighbourhood, the walk's up-step and the standard
greedy's step all read it.  An r-scan keeps its (Y, D, values) blocks as a
Neighborhood, whose best() labels only the rows at the maximum.
KernelDistribution prices them as principal minors, one batched determinant
per TABLE_BLOCK rows.  Its Schur complement kernel.condition_on, a plain array,
prices its marginals (charpoly.superset_marginal), a greedy step's marginals
(charpoly.step_marginals) and its scan, which conditions once, on S itself,
for every set within two swaps, and calls completions only for cores with
s >= 3 or when S is a singular pin.
"""

from __future__ import annotations

import math
from itertools import chain, combinations

import numpy as np

from . import charpoly
from .errors import ConditioningError, DomainError
from .kernel import Kernel, _normalize_indices, _whole, condition_on

TABLE_BLOCK = 1 << 15  # rows of D per batched determinant


def as_set(S):
    return tuple(sorted(int(i) for i in S))


def subsets(pool, s):
    """The rows of combinations(pool, s), in that order, as an int array of
    shape (C(len(pool), s), s) and of the smallest dtype that holds every
    element of the sequence pool, so that a full table's index array stays
    small."""
    dtype = np.min_scalar_type(max(pool, default=0))
    m = math.comb(len(pool), s)
    return np.fromiter(chain.from_iterable(combinations(pool, s)), dtype, m * s).reshape(m, s)


def subset_blocks(pool, s, rows):
    """The rows of subsets(pool, s) in consecutive blocks of `rows` rows (the
    last may be shorter), each read from one combinations stream when it is
    asked for, so that a caller holds one block at a time, never the whole
    table."""
    dtype = np.min_scalar_type(max(pool, default=0))
    m = math.comb(len(pool), s)
    stream = chain.from_iterable(combinations(pool, s))
    for u0 in range(0, m, rows):
        size = min(rows, m - u0)
        yield np.fromiter(stream, dtype, size * s).reshape(size, s)


def colex_table(n, l):
    """The l x n int64 table of C(p, j + 1) at [j, p], each entry clamped to
    C(n, l): a sorted l-subset p_0 < ... < p_{l-1} of range(n) has colex
    rank sum_j table[j, p_j].  Every term of a rank is at most the rank,
    which is below C(n, l), so the clamp changes no rank and keeps the table
    in int64 wherever C(n, l) is."""
    top = math.comb(n, l)
    table = [[min(math.comb(p, j + 1), top) for p in range(n)] for j in range(l)]
    return np.array(table, np.int64).reshape(l, n)


def union_rows(core, D):
    """The sorted sets core u D[i], one row each: D itself for an empty core."""
    if not core:
        return D
    return np.sort(np.hstack((np.tile(np.array(core, np.intp), (len(D), 1)), D)), axis=1)


class SetDistribution:
    """Evaluation oracle for an unnormalized density mu on size-k subsets of [n].

    A subclass defines value() or completions(), and each reads the other:
    value(S) is the completions of the empty core over the one row S, and
    the base completions() enumerates value(), the reference route.
    tabulate(), marginal(), neighborhood_values() and restrict() read
    completions() over index arrays from subsets(); KernelDistribution
    overrides completions(), tabulate(), marginal(), step_marginals() and
    restrict() with faster routes, and TableDistribution defines value().
    An external field (downup.apply_field) returns one of these two.
    """

    def __init__(self, n, k):
        self.n = _whole("n", n)
        self.k = _whole("k", k)

    def value(self, S) -> float:
        """mu(S) for a set S of distinct elements of [n]."""
        S = _normalize_indices(S, self.n)
        return float(self.completions((), np.array([S], dtype=np.intp))[0])

    def completions(self, core, D) -> np.ndarray:
        """mu(core u D[i]) for every row D[i] of the int array D, in row
        order, for a tuple core whose elements are not in D."""
        rows = union_rows(core, D)
        return np.fromiter((self.value(tuple(row)) for row in rows.tolist()), float, len(rows))

    def tabulate(self) -> np.ndarray:
        """mu of every size-k subset of [n], in combinations(range(n), k) order."""
        return self.completions((), subsets(range(self.n), self.k))

    def marginal(self, Y) -> float:
        """sum of mu(S) over size-k supersets S of Y, added left to right."""
        Y = as_set(Y)
        rest = [i for i in range(self.n) if i not in Y]
        total = 0.0
        for v in self.completions(Y, subsets(rest, self.k - len(Y))).tolist():
            total += v
        return total

    def step_marginals(self, S):
        """(candidates, values, conditioned): every i outside S in increasing
        order, the marginal of S u {i} for each, and whether one conditioning
        on S priced them; here one marginal() call per candidate."""
        S = as_set(S)
        cands = [i for i in range(self.n) if i not in S]
        return cands, [self.marginal(as_set(S + (i,))) for i in cands], False

    def neighborhood_values(self, S, r):
        """mu over every size-k set within r swaps of S, as a Neighborhood: for
        each s <= r, one index array D of the size-s sets outside S and one
        block per core Y = S minus s of its elements, in combinations order;
        here each block is one completions(Y, D) call."""
        S = as_set(S)
        outside = [i for i in range(self.n) if i not in S]
        s_max = min(r, len(S), len(outside))
        return self._blocks(S, [subsets(outside, s) for s in range(s_max + 1)])

    def _blocks(self, S, Ds, priced=()):
        """The Neighborhood of the sorted S over Ds[s], the size-s sets outside
        S: the p-th core that drops s elements takes priced[s][p] where priced
        has a size-s entry, else one completions call."""
        blocks = []
        for s, D in enumerate(Ds):
            for p, drop in enumerate(combinations(S, s)):
                core = tuple(i for i in S if i not in drop)
                vals = priced[s][p] if s < len(priced) else self.completions(core, D)
                blocks.append((core, D, vals))
        return Neighborhood(blocks)

    def restrict(self, P):
        """mu on the size-k subsets of P, its i-th smallest element relabelled i."""
        P = _normalize_indices(P, self.n)
        sets = combinations(range(len(P)), self.k)
        table = dict(zip(sets, self.completions((), subsets(P, self.k)).tolist()))
        return TableDistribution(len(P), self.k, table)


class Neighborhood:
    """The (core, D, values) blocks of one r-scan, in scan order: values[i] is
    mu(core u D[i]).  len() is the number of sets priced; a set's sorted label
    is built only where it is asked for."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.count = sum(len(v) for _, _, v in blocks)

    def __len__(self):
        return self.count

    def items(self):
        """(sorted set, value) for every priced set, in scan order."""
        for core, D, vals in self.blocks:
            for row, v in zip(union_rows(core, D).tolist(), vals.tolist()):
                yield tuple(row), v

    def best(self):
        """(set, value) of the largest value; among exact ties (+0.0 == -0.0),
        the smallest sorted set, labelling only the rows that attain it.  NaN
        never wins, as in exchange.brute_force_map: (None, -inf) when every
        value is NaN."""
        tops = [np.fmax.reduce(vals) for _, _, vals in self.blocks]  # NaN-free
        top = max((t for t in tops if not np.isnan(t)), default=-math.inf)
        return min(
            ((tuple(sorted(core + tuple(D[j].tolist()))), float(vals[j]))
             for core, D, vals in self.blocks
             for j in np.flatnonzero(vals == top)),
            default=(None, -math.inf),
        )


class KernelDistribution(SetDistribution):
    """mu(S) = det(L_S); completions by batched determinants, marginals,
    greedy steps and the scan via Schur complements."""

    def __init__(self, kernel: Kernel, k):
        super().__init__(kernel.n, k)
        self.kernel = kernel
        self._table = None

    def completions(self, core, D):
        """principal_minor of each sorted set core u D[i], one batched
        determinant per TABLE_BLOCK rows; the empty set's minor is 1.  A minor
        past float64 is inf, without a warning: every caller checks for it."""
        rows = union_rows(core, D)
        L = self.kernel.entries
        out = np.empty(len(rows))
        with np.errstate(over="ignore"):
            for b0 in range(0, len(rows), TABLE_BLOCK):
                P = rows[b0 : b0 + TABLE_BLOCK]
                # One expression, so no block of minors outlives its determinant.
                out[b0 : b0 + len(P)] = np.linalg.det(L[P[..., None], P[:, None]])
        return out

    def tabulate(self):
        """kernel_table of the kernel, computed on the first call and kept as a
        read-only array that every later call returns."""
        if self._table is None:
            self._table = kernel_table(self.kernel, self.k)
            self._table.flags.writeable = False
        return self._table

    def marginal(self, Y):
        return charpoly.superset_marginal(self.kernel, Y, self.k)

    def step_marginals(self, S):
        """One conditioning on S prices every candidate (charpoly.step_marginals);
        a singular pin, a value that is not finite or, on the eigenbasis route
        that a cancelling polynomial takes, an ill-conditioned eigenbasis of
        L^S falls back to one marginal per candidate."""
        priced = charpoly.step_marginals(self.kernel, S, self.k)
        if priced is None:
            return super().step_marginals(S)
        return (*priced, True)

    def restrict(self, P):
        """The sub-kernel on P: L_P, or from_lowrank(B_P, C) if factored."""
        P = list(_normalize_indices(P, self.n))
        K = self.kernel
        sub = (Kernel(K.entries[np.ix_(P, P)]) if K.lowrank is None
               else Kernel.from_lowrank(K.lowrank[0][P], K.lowrank[1]))
        return KernelDistribution(sub, self.k)

    def neighborhood_values(self, S, r):
        """The base scan's Neighborhood, its blocks of size s <= 2 priced from
        one conditioning on S.  With R the complement of S, G = L_S^-1,
        X = L_{R,S} G, Y = G L_{S,R} and Z = L^S, Jacobi's complementary-minor
        identity gives, for |A| = |B| = s,

            mu(S - A + B) = det(L_S) det([[G_AA, -Y_AB], [X_BA, Z_BB]]):

        det(L_S) (G_aa Z_bb + Y_ab X_ba) at s = 1, and the 4 x 4 determinant
        by Laplace expansion (_swap_pairs) at s = 2.  Nothing is divided, so a
        singular core is priced like any other.  Each core with s >= 3 takes
        one completions call, as does every core when a value is not finite;
        a singular pin S takes the base route."""
        S = as_set(S)
        try:
            Z, det_S = condition_on(self.kernel, S)
        except ConditioningError:
            return super().neighborhood_values(S, r)
        L = self.kernel.entries
        R = [i for i in range(self.n) if i not in S]
        s_max = min(r, len(S), len(R))
        Ds = [subsets(R, s) for s in range(s_max + 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            G = np.linalg.inv(L[np.ix_(S, S)])
            XT = G.T @ L[np.ix_(R, S)].T  # X^T, so X_ba is XT[a, b]
            Y = G @ L[np.ix_(S, R)]
            priced = [np.full((1, 1), det_S)]
            if s_max >= 1:
                priced.append(det_S * (np.diag(G)[:, None] * np.diag(Z) + Y * XT))
            if s_max >= 2:
                priced.append(det_S * _swap_pairs(G, XT, -Y, Z, np.searchsorted(R, Ds[2])))
        return self._blocks(S, Ds, priced if all(np.isfinite(v).all() for v in priced) else ())


class TableDistribution(SetDistribution):
    """mu backed by an explicit table mapping size-k sets to masses; a set
    missing from the table has mass 0."""

    def __init__(self, n, k, table):
        super().__init__(n, k)
        self.table = {_normalize_indices(S, self.n): float(v) for S, v in table.items()}
        if len(self.table) != len(table) or any(len(S) != self.k for S in self.table):
            raise DomainError(f"table keys must be distinct size-{self.k} sets")

    def value(self, S):
        return self.table.get(_normalize_indices(S, self.n), 0.0)


def _swap_pairs(G, XT, Yn, Z, B):
    """det [[G_AA, Yn_AB], [X_BA, Z_BB]], X the transpose of XT, for every
    pair A = {i < j} of positions in G (rows of the result, in combinations
    order) and every pair B = {u < v} of positions in Z, the rows of the int
    array B (columns, in row order), by Laplace expansion along rows i and j:

        det(G_AA) det(Z_BB) + det(Yn_AB) det(X_BA)
        - top(i, u) bot(j, v) + top(i, v) bot(j, u)
        + top(j, u) bot(i, v) - top(j, v) bot(i, u),

    where top(c, b) is the minor of rows i, j on columns c and b, and bot(c, b)
    that of rows u, v.  top is formed once per (A, b) and bot once per (c, B),
    then gathered; the columns go TABLE_BLOCK // C(|G|, 2) pairs B at a time."""
    A = subsets(range(len(G)), 2)
    i, j = A[:, 0], A[:, 1]
    Gii, Gij, Gji, Gjj = (G[a, b][:, None] for a, b in ((i, i), (i, j), (j, i), (j, j)))
    det_G = Gii * Gjj - Gij * Gji
    top_i = Gii * Yn[j] - Gji * Yn[i]  # top(i, b) for every b
    top_j = Gij * Yn[j] - Gjj * Yn[i]
    out = np.empty((len(A), len(B)))
    step = max(1, TABLE_BLOCK // len(A))
    for b0 in range(0, len(B), step):
        u, v = B[b0 : b0 + step, 0], B[b0 : b0 + step, 1]
        Zuu, Zuv, Zvu, Zvv = Z[u, u], Z[u, v], Z[v, u], Z[v, v]
        Xu, Xv, Yu, Yv = XT[:, u], XT[:, v], Yn[:, u], Yn[:, v]
        bot_u = Xu * Zvu - Xv * Zuu  # bot(c, u) for every c
        bot_v = Xu * Zvv - Xv * Zuv
        out[:, b0 : b0 + step] = (
            det_G * (Zuu * Zvv - Zuv * Zvu)
            + (Yu[i] * Yv[j] - Yv[i] * Yu[j]) * (Xu[i] * Xv[j] - Xu[j] * Xv[i])
            - top_i[:, u] * bot_v[j] + top_i[:, v] * bot_u[j]
            + top_j[:, u] * bot_v[i] - top_j[:, v] * bot_u[i]
        )
    return out


def kernel_table(K: Kernel, k):
    """det(L_S) of every size-k subset S of [n], in combinations(range(n), k)
    order: the completions of the empty core; the empty set's minor is 1."""
    return KernelDistribution(K, k).completions((), subsets(range(K.n), k))

"""Unnormalized densities over size-k subsets, exposed as evaluation oracles.

KernelDistribution prices its marginals (charpoly.superset_marginal) and its
r-neighbourhoods through the same Schur complement, kernel.condition_on.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from . import charpoly
from .errors import ConditioningError, DomainError
from .kernel import Kernel, _normalize_indices, condition_on, principal_minor

TABLE_BLOCK = 1 << 15  # sets per batched determinant of kernel_table


def as_set(S):
    return tuple(sorted(int(i) for i in S))


def neighborhood(S, r, n):
    """Yield every size-k set within r swaps of S (S included), each once."""
    S = as_set(S)
    outside = [i for i in range(n) if i not in S]
    for s in range(0, min(r, len(S), len(outside)) + 1):
        for drop in combinations(S, s):
            kept = tuple(i for i in S if i not in drop)
            for add in combinations(outside, s):
                yield tuple(sorted(kept + add))


class SetDistribution:
    """Evaluation oracle for an unnormalized density mu on size-k subsets of [n].

    Subclasses implement value(); tabulate(), marginal(), neighborhood_values()
    and restrict() default to enumeration and are overridden where a faster
    route exists.
    """

    def __init__(self, n, k):
        self.n = int(n)
        self.k = int(k)

    def value(self, S) -> float:
        raise NotImplementedError

    def tabulate(self) -> np.ndarray:
        """mu of every size-k subset of [n], in combinations(range(n), k) order."""
        return np.fromiter(map(self.value, combinations(range(self.n), self.k)), float)

    def marginal(self, Y) -> float:
        """sum of mu(S) over size-k supersets S of Y."""
        Y = as_set(Y)
        rest = [i for i in range(self.n) if i not in Y]
        total = 0.0
        for extra in combinations(rest, self.k - len(Y)):
            total += self.value(Y + extra)
        return total

    def neighborhood_values(self, S, r):
        """mu over the r-neighborhood of S, keyed by sorted index tuple."""
        return {T: float(self.value(T)) for T in neighborhood(S, r, self.n)}

    def restrict(self, P):
        """mu on the size-k subsets of P, its i-th smallest element relabelled i."""
        P = _normalize_indices(P, self.n)
        sets = combinations(range(len(P)), self.k)
        table = {S: self.value(tuple(P[i] for i in S)) for S in sets}
        return TableDistribution(len(P), self.k, table)


class KernelDistribution(SetDistribution):
    """mu(S) = det(L_S); marginals and neighbourhoods via Schur complements."""

    def __init__(self, kernel: Kernel, k):
        super().__init__(kernel.n, k)
        self.kernel = kernel

    def value(self, S):
        return principal_minor(self.kernel, S)

    def tabulate(self):
        return kernel_table(self.kernel, self.k)

    def marginal(self, Y):
        return charpoly.superset_marginal(self.kernel, Y, self.k)

    def restrict(self, P):
        """The sub-kernel on P, keeping its factors so marginals keep the rank bound."""
        P = list(_normalize_indices(P, self.n))
        K = self.kernel
        lowrank = None if K.lowrank is None else (K.lowrank[0][P], K.lowrank[1])
        return KernelDistribution(Kernel(K.submatrix(P), lowrank=lowrank), self.k)

    def neighborhood_values(self, S, r):
        """mu over the r-neighborhood of S, conditioning each retained core once.

        For a core Y = S \\ U, every completion D of the same size as U costs
        det(L_Y) * det((L^Y)_D) on the Schur complement from condition_on,
        all of them in one batched small determinant; a singular core falls
        back to direct determinants.
        """
        S = as_set(S)
        outside = [i for i in range(self.n) if i not in S]
        out = {S: principal_minor(self.kernel, S)}
        for s in range(1, min(r, len(S), len(outside)) + 1):
            adds = list(combinations(outside, s))
            A = np.array(adds)
            for drop in combinations(S, s):
                core = tuple(i for i in S if i not in drop)
                try:
                    M, det_core = condition_on(self.kernel, core)
                except ConditioningError:
                    vals = [principal_minor(self.kernel, core + add) for add in adds]
                else:
                    # Index i sits at position i - |{c in core : c < i}| of M.
                    P = A - np.searchsorted(core, A)
                    blocks = M.entries[P[:, :, None], P[:, None, :]]
                    vals = (det_core * np.linalg.det(blocks)).tolist()
                for add, v in zip(adds, vals):
                    out[tuple(sorted(core + add))] = v
        return out


class TableDistribution(SetDistribution):
    """mu backed by an explicit table mapping size-k sets to masses; a set
    missing from the table has mass 0."""

    def __init__(self, n, k, table):
        super().__init__(n, k)
        self.table = {_normalize_indices(S, self.n): float(v) for S, v in table.items()}
        if len(self.table) != len(table) or any(len(S) != self.k for S in self.table):
            raise DomainError(f"table keys must be distinct size-{self.k} sets")

    def value(self, S):
        return self.table.get(as_set(S), 0.0)


class UniformDistribution(SetDistribution):
    def value(self, S):
        S = as_set(S)
        return 1.0 if len(S) == self.k and len(set(S)) == self.k else 0.0


def kernel_table(K: Kernel, k):
    """det(L_S) of every size-k subset S of [n], in combinations(range(n), k)
    order, priced by one batched determinant per TABLE_BLOCK sets; the empty
    set's minor is 1."""
    sets = combinations(range(K.n), k)
    out = np.empty(math.comb(K.n, k))
    for b0 in range(0, len(out), TABLE_BLOCK):
        S = np.array(list(islice(sets, TABLE_BLOCK)), dtype=np.intp)  # m x k, also for k = 0
        out[b0 : b0 + len(S)] = np.linalg.det(K.entries[S[:, :, None], S[:, None, :]])
    return out

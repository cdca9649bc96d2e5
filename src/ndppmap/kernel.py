"""Kernel matrices, principal minors, and Schur-complement conditioning.

A kernel is an n x n real matrix L; a factored one is built from its factors
alone, Kernel.from_lowrank(B, C), its entries B C B^T formed once.  The set
function is S -> det(L_S), the principal minor on rows/columns S.  A Kernel is
checked once, where it is built, and keeps read-only copies of the arrays it
is given; a factored kernel keeps its own product, uncopied.
condition_on is the one conditioning step: it returns the Schur complement as
a plain array, and superset marginals and neighbourhood prices are both read
off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .errors import ConditioningError, DomainError

NPSD_TOL = 1e-9
# Largest |L_ij| a Kernel accepts.  condition_on does not re-check its Schur
# complement, whose entries reach about m^2 1e12 max|L| (the zero threshold
# bounds 1/det(L_Y)); this bound keeps them finite at desk-scale m.
MAX_ABS_ENTRY = 1e290


def _normalize_indices(S, n):
    """Sorted tuple of distinct indices, range-checked against [0, n)."""
    idx = tuple(sorted(int(i) for i in S))
    if len(set(idx)) != len(idx):
        raise DomainError(f"duplicate indices in {idx}")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise DomainError(f"index out of range [0, {n}): {idx}")
    return idx


def _whole(name, x):
    """x as an int; DomainError for a bool or a non-integer."""
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise DomainError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _real(name, x):
    """x as a float; DomainError for a bool or a non-real number."""
    if isinstance(x, bool) or not isinstance(x, Real):
        raise DomainError(f"{name} must be a real number, got {x!r}")
    return float(x)


def _frozen(M):
    """A read-only float copy of M, so no later write to M reaches a checked kernel."""
    M = np.array(M, dtype=float)
    M.flags.writeable = False
    return M


def _check_finite(name, M):
    """DomainError naming the first five NaN or infinite entries of M, if any."""
    finite = np.isfinite(M)
    if not finite.all():
        bad = [tuple(ix) for ix in np.argwhere(~finite)[:5].tolist()]
        raise DomainError(f"non-finite {name} entries at {', '.join(map(str, bad))}")


@dataclass(frozen=True)
class Kernel:
    """Kernel matrix, read-only and checked once, here; lowrank is the
    rank-d factorization (B, C) that from_lowrank built it from, else None."""

    entries: np.ndarray
    lowrank: tuple | None = field(default=None, init=False)

    def __post_init__(self):
        self._adopt(_frozen(self.entries))

    def _adopt(self, L):
        """Check the read-only float array L and keep it, uncopied, as the entries."""
        if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape[0] < 1:
            raise DomainError(f"kernel must be square, n >= 1; got shape {L.shape}")
        _check_finite("kernel", L)
        object.__setattr__(self, "entries", L)
        if self.max_abs > MAX_ABS_ENTRY:
            raise DomainError(
                f"kernel entries reach {self.max_abs:.3e}; |L_ij| must be at most {MAX_ABS_ENTRY:.0e}"
            )

    @property
    def n(self):
        return self.entries.shape[0]

    @property
    def rank_d(self):
        return None if self.lowrank is None else self.lowrank[0].shape[1]

    @classmethod
    def from_lowrank(cls, B, C):
        """The kernel L = B C B^T of an n x d factor B and a d x d factor C,
        both finite: its entries are that one product of read-only copies of
        the factors, which it keeps."""
        B, C = _frozen(B), _frozen(C)
        if B.ndim != 2 or C.shape != (B.shape[1], B.shape[1]):
            raise DomainError(f"factors must be n x d and d x d; got {B.shape} and {C.shape}")
        _check_finite("factor B", B)
        _check_finite("factor C", C)
        L = B @ C @ B.T
        L.flags.writeable = False
        K = object.__new__(cls)  # no __post_init__: the fresh product needs no copy
        object.__setattr__(K, "lowrank", (B, C))
        K._adopt(L)
        return K

    @cached_property
    def max_abs(self):
        """max |L_ij|, exact on the finite entries without an |L| array: the
        leading 0.0 makes an all-zero kernel's +0.0, as abs would."""
        return max(0.0, float(self.entries.max()), -float(self.entries.min()))

    def zero_threshold(self, size):
        """Magnitudes below 1e-12 max|L|^size, relative to the kernel's own
        scale, are treated as a zero determinant of order `size`; inf where
        that overflows, so every such pin reads as singular and takes its
        caller's fallback."""
        try:
            return 1e-12 * self.max_abs**size
        except OverflowError:
            return math.inf


def principal_minor(K: Kernel, S):
    """det(L_S); the empty-set minor is 1, and one past float64 is inf,
    without a warning."""
    idx = _normalize_indices(S, K.n)
    if not idx:
        return 1.0
    with np.errstate(over="ignore"):
        return float(np.linalg.det(K.entries[np.ix_(idx, idx)]))


def is_npsd(K: Kernel):
    """True iff the minimum eigenvalue of (L + L^T)/2 is >= -NPSD_TOL * max|L|."""
    sym = 0.5 * (K.entries + K.entries.T)
    lam_min = float(np.linalg.eigvalsh(sym)[0])
    return lam_min >= -NPSD_TOL * K.max_abs


def condition_on(K: Kernel, Y):
    """Schur complement L^Y = L_R - L_{R,Y} L_Y^{-1} L_{Y,R} over R = [n] \\ Y.

    Returns (L^Y as an array over the sorted R, det(L_Y)); (L, 1.0) for Y empty.
    For any D inside R, det(L_{Y u D}) = det(L_Y) * det((L^Y)_D).
    """
    idx = _normalize_indices(Y, K.n)
    if not idx:
        return K.entries, 1.0
    m = len(idx)
    rest = np.ones(K.n, dtype=bool)
    rest[list(idx)] = False
    order = np.concatenate((idx, np.flatnonzero(rest)))
    G = K.entries[np.ix_(order, order)]  # rows and columns in the order (Y, R)
    with np.errstate(over="ignore"):  # an infinite det(L_Y) is returned as is
        detY = float(np.linalg.det(G[:m, :m]))
    if abs(detY) <= K.zero_threshold(m):
        raise ConditioningError(f"singular L_Y for Y={idx}")
    # No NaN/inf re-check: Kernel bounds max|L| by MAX_ABS_ENTRY, so L^Y is finite.
    return G[m:, m:] - G[m:, :m] @ np.linalg.solve(G[:m, :m], G[:m, m:]), detY


def load_kernel(path):
    """Read a kernel file.

    Dense format: first line `n`, then n rows of n floats.
    Low-rank format: first line `n d`, then n rows of B, then d rows of C.
    """
    with open(path) as fh:
        head, *rows = [ln.split() for ln in fh.read().split("\n") if ln.strip()] or [[]]
    dims = [int(x) for x in head]
    if not 1 <= len(dims) <= 2 or min(dims) < 1:
        raise DomainError(f"kernel header in {path} must be `n` or `n d`, n, d >= 1; got {head}")
    n, width = dims[0], dims[-1]  # a row holds n entries of L, or d of B or C
    count = n + width if len(dims) == 2 else n
    if len(rows) != count or any(len(row) != width for row in rows):
        raise DomainError(f"expected {count} rows of {width} entries in {path}")
    M = np.array([[float(x) for x in row] for row in rows])
    return Kernel(M) if len(dims) == 1 else Kernel.from_lowrank(M[:n], M[n:])


def save_kernel(K: Kernel, path):
    """Write `K` in the text format understood by load_kernel."""
    with open(path, "w") as fh:
        fh.write(f"{K.n}\n" if K.lowrank is None else f"{K.n} {K.rank_d}\n")
        for M in K.lowrank or (K.entries,):
            fh.writelines(" ".join(map(repr, row)) + "\n" for row in M.tolist())

"""Kernel matrices, principal minors, and Schur-complement conditioning.

A kernel is an n x n real matrix L, optionally carried together with a
low-rank factorization L = B C B^T.  The induced set function is
S -> det(L_S), the principal minor on rows/columns S.  condition_on is the
one conditioning step: superset marginals and neighbourhood prices are both
read off its Schur complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError

NPSD_TOL = 1e-9
LOWRANK_RTOL = 1e-8


def _normalize_indices(S, n):
    """Sorted tuple of distinct indices, range-checked against [0, n)."""
    idx = tuple(sorted(int(i) for i in S))
    if len(set(idx)) != len(idx):
        raise DomainError(f"duplicate indices in {idx}")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise DomainError(f"index out of range [0, {n}): {idx}")
    return idx


@dataclass(frozen=True)
class Kernel:
    """Dense kernel matrix with an optional rank-d factorization (B, C)."""

    entries: np.ndarray
    lowrank: tuple | None = None

    def __post_init__(self):
        L = np.asarray(self.entries, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape[0] < 1:
            raise DomainError(f"kernel must be square, n >= 1; got shape {L.shape}")
        object.__setattr__(self, "entries", L)
        if self.lowrank is not None:
            B, C = (np.asarray(M, dtype=float) for M in self.lowrank)
            if B.shape[0] != L.shape[0] or C.shape != (B.shape[1], B.shape[1]):
                raise DomainError("low-rank factor shapes inconsistent with kernel")
            err = np.max(np.abs(L - B @ C @ B.T))
            if err > LOWRANK_RTOL * (1.0 + np.max(np.abs(L))):
                raise DomainError(f"B C B^T deviates from entries by {err:.3e}")
            object.__setattr__(self, "lowrank", (B, C))

    @property
    def n(self):
        return self.entries.shape[0]

    @property
    def rank_d(self):
        return None if self.lowrank is None else self.lowrank[0].shape[1]

    @classmethod
    def from_lowrank(cls, B, C):
        B = np.asarray(B, dtype=float)
        C = np.asarray(C, dtype=float)
        return cls(B @ C @ B.T, lowrank=(B, C))

    def max_abs(self):
        return float(np.max(np.abs(self.entries)))

    def zero_threshold(self, size):
        """Magnitudes below this are treated as a zero determinant of order `size`."""
        return 1e-12 * (1.0 + self.max_abs()) ** size

    def submatrix(self, rows, cols=None):
        rows = list(rows)
        cols = rows if cols is None else list(cols)
        return self.entries[np.ix_(rows, cols)]


def principal_minor(K: Kernel, S):
    """det(L_S); the empty-set minor is 1."""
    idx = _normalize_indices(S, K.n)
    if not idx:
        return 1.0
    return float(np.linalg.det(K.submatrix(idx)))


def is_npsd(K: Kernel):
    """True iff the minimum eigenvalue of (L + L^T)/2 is >= -NPSD_TOL * (1 + ||L||_2)."""
    sym = 0.5 * (K.entries + K.entries.T)
    lam_min = float(np.linalg.eigvalsh(sym)[0])
    return lam_min >= -NPSD_TOL * (1.0 + float(np.linalg.norm(K.entries, 2)))


def condition_on(K: Kernel, Y):
    """Schur complement L^Y = L_Yt - L_{Yt,Y} L_Y^{-1} L_{Y,Yt} over Yt = [n] \\ Y.

    Returns (conditioned Kernel over the sorted remaining indices, det(L_Y)).
    For any D inside the remainder, det(L_{Y u D}) = det(L_Y) * det((L^Y)_D).
    """
    idx = _normalize_indices(Y, K.n)
    if not idx:
        return K, 1.0
    rest = [i for i in range(K.n) if i not in idx]
    LY = K.submatrix(idx)
    detY = float(np.linalg.det(LY))
    if abs(detY) <= K.zero_threshold(len(idx)):
        raise ConditioningError(f"singular L_Y for Y={idx}", det=detY)
    cross = K.submatrix(rest, idx) @ np.linalg.solve(LY, K.submatrix(idx, rest))
    return Kernel(K.submatrix(rest) - cross), detY


def load_kernel(path):
    """Read a kernel file.

    Dense format: first line `n`, then n rows of n floats.
    Low-rank format: first line `n d`, then n rows of B, then d rows of C.
    """
    with open(path) as fh:
        tokens = fh.read().split("\n")
    lines = [ln.split() for ln in tokens if ln.strip()]
    if not lines:
        raise DomainError(f"empty kernel file: {path}")
    header = lines[0]
    if len(header) == 1:
        n = int(header[0])
        if len(lines) != n + 1:
            raise DomainError(f"expected {n} matrix rows in {path}")
        L = np.array([[float(x) for x in row] for row in lines[1:]], dtype=float)
        if L.shape != (n, n):
            raise DomainError(f"malformed dense kernel in {path}")
        return Kernel(L)
    if len(header) == 2:
        n, d = int(header[0]), int(header[1])
        if len(lines) != 1 + n + d:
            raise DomainError(f"expected {n}+{d} factor rows in {path}")
        B = np.array([[float(x) for x in row] for row in lines[1 : 1 + n]])
        C = np.array([[float(x) for x in row] for row in lines[1 + n :]])
        if B.shape != (n, d) or C.shape != (d, d):
            raise DomainError(f"malformed low-rank kernel in {path}")
        return Kernel.from_lowrank(B, C)
    raise DomainError(f"unrecognized kernel header in {path}: {header}")


def save_kernel(K: Kernel, path):
    """Write `K` in the text format understood by load_kernel."""
    with open(path, "w") as fh:
        if K.lowrank is not None:
            B, C = K.lowrank
            fh.write(f"{K.n} {B.shape[1]}\n")
            for row in B:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")
            for row in C:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")
        else:
            fh.write(f"{K.n}\n")
            for row in K.entries:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")

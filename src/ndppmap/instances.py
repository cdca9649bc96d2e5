"""Seeded test-instance generators shared by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .kernel import Kernel


def random_npsd(n, seed) -> Kernel:
    """A + S with A = G^T G / n symmetric PSD and S skew-symmetric; nPSD by
    construction since the skew part drops out of L + L^T."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n, n))
    A = (G.T @ G) / n
    M = rng.normal(size=(n, n))
    S = 0.5 * (M - M.T)
    return Kernel(A + S)


def sym_psd(n, seed) -> Kernel:
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n, n))
    return Kernel((G.T @ G) / n)


def skew_block(c, x) -> Kernel:
    """Block-diagonal kernel of 2x2 blocks [[c_i, x_i], [-x_i, c_i]].

    The greedy-failure regime needs c strictly decreasing > 1, x strictly
    increasing, and min x >= 10 * max c.
    """
    c = [float(v) for v in c]
    x = [float(v) for v in x]
    if len(c) != len(x) or not c:
        raise DomainError("c and x must be nonempty lists of equal length")
    if any(ci <= 1.0 for ci in c) or any(c[i] <= c[i + 1] for i in range(len(c) - 1)):
        raise DomainError("c must be strictly decreasing with every c_i > 1")
    if any(x[i] >= x[i + 1] for i in range(len(x) - 1)):
        raise DomainError("x must be strictly increasing")
    if min(x) < 10.0 * max(c):
        raise DomainError("need min x >= 10 * max c")
    n = 2 * len(c)
    L = np.zeros((n, n))
    for i, (ci, xi) in enumerate(zip(c, x)):
        L[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[ci, xi], [-xi, ci]]
    return Kernel(L)


def lowrank_npsd(n, d, seed) -> Kernel:
    """L = B C B^T with C + C^T PSD, so L is nPSD whatever B is."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, d))
    P = rng.normal(size=(d, d))
    M = rng.normal(size=(d, d))
    C = (P.T @ P) / d + 0.5 * (M - M.T)
    return Kernel.from_lowrank(B, C)


def random_partition(n, m, seed):
    """Seeded balanced partition of [0, n) into m parts."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return [tuple(sorted(int(i) for i in perm[j::m])) for j in range(m)]


def random_field(n, seed):
    """Seeded positive external field, log-uniform in [0.2, 5]."""
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=n))

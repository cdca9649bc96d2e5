"""Superset marginals through one Schur-complement conditioning step.

For a kernel L and a pinned set Y, the sum of det(L_S) over all size-k
supersets S of Y is the coefficient of lambda^(n-k) in

    g(lambda) = det(L + lambda * diag(1_{[n] \\ Y})).

Conditioning on Y reads that coefficient off directly: every such S is
Y u D with det(L_S) = det(L_Y) * det((L^Y)_D), so the marginal is
det(L_Y) * e_t(spectrum of L^Y) with t = k - |Y|, where L^Y is the Schur
complement from kernel.condition_on.  A numerically singular pin can still
have nonsingular supersets, so its marginal is summed over its one-element
extensions instead.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ConditioningError, DomainError
from .kernel import Kernel, _normalize_indices, condition_on, principal_minor

SINGULAR_PIN_CAP = 1000


def superset_marginal(K: Kernel, Y, k):
    """sum of det(L_S) over size-k supersets S of Y: det(L_Y) * e_{k-|Y|}(spec L^Y).

    A singular pin Y is priced by t * M(Y) = sum over j outside Y of
    M(Y u {j}), since each superset of Y is reached once per element it adds.
    Raises CapacityError when one marginal needs more than SINGULAR_PIN_CAP
    conditioning steps.
    """
    idx = _normalize_indices(Y, K.n)
    if not len(idx) <= k <= K.n:
        raise DomainError(f"need |Y| <= k <= n, got |Y|={len(idx)}, k={k}, n={K.n}")
    if K.rank_d is not None and k > K.rank_d:
        return 0.0  # every k x k principal minor of a rank-d kernel vanishes
    steps = 0

    def marginal(pin, t):
        nonlocal steps
        if t == 0:  # the pin is the only superset; nothing is left to condition
            return principal_minor(K, pin)
        steps += 1
        if steps > SINGULAR_PIN_CAP:
            raise CapacityError(
                f"marginal of Y={idx} needs over {SINGULAR_PIN_CAP} conditioning steps"
            )
        try:
            M, detY = condition_on(K, pin)
        except ConditioningError:
            rest = [j for j in range(K.n) if j not in pin]
            return sum(marginal(tuple(sorted(pin + (j,))), t - 1) for j in rest) / t
        # e_0..e_t of the eigenvalues: the coefficients of prod (1 + lambda_i x).
        e = np.zeros(t + 1, dtype=complex)
        e[0] = 1.0
        for lam in np.linalg.eigvals(M.entries):
            e[1:] += lam * e[:-1]
        return detY * float(e[t].real)

    return marginal(idx, k - len(idx))

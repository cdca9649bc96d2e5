"""Superset marginals through one Schur-complement conditioning step.

For a kernel L and a pinned set Y, the sum of det(L_S) over all size-k
supersets S of Y is the coefficient of lambda^(n-k) in

    g(lambda) = det(L + lambda * diag(1_{[n] \\ Y})).

Conditioning on Y reads that coefficient off directly: every such S is
Y u D with det(L_S) = det(L_Y) * det((L^Y)_D), so the marginal is
det(L_Y) * e_t(spectrum of L^Y) with t = k - |Y|, where L^Y is the Schur
complement that kernel.condition_on returns as an array.  A numerically
singular pin can still have nonsingular supersets, so its marginal is summed
over its one-element extensions instead.

step_marginals prices the marginal of S u {i} for every i outside S from one
conditioning on S.  With t = k - |S| elements left to add it reads the last
two steps off L^S alone, (L^S)_ii at t = 1 and the 2 x 2 principal minors
through i at t = 2, and takes one eigendecomposition of L^S only at t >= 3.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ConditioningError, DomainError
from .kernel import Kernel, _normalize_indices, condition_on, principal_minor

SINGULAR_PIN_CAP = 1000
EIGENBASIS_COND_LIMIT = 1e8  # t >= 3: 1-norm cond(V) above which L^S = V diag(lam) V^-1 is unused


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
        for lam in np.linalg.eigvals(M):
            e[1:] += lam * e[:-1]
        return detY * float(e[t].real)

    return marginal(idx, k - len(idx))


def step_marginals(K: Kernel, S, k):
    """(candidates, values): the marginal of S u {i} for every i outside S,
    in increasing i, from one conditioning on S; None when S is a singular
    pin, a value overflows to inf or NaN, or, at t >= 3, L^S has an
    eigenbasis with cond(V) above EIGENBASIS_COND_LIMIT.

    With t = k - |S| and M = L^S, each size-k superset of S u {i} is S u D
    for a size-t set D outside S that holds i, with det(L_{S u D}) =
    det(L_S) det(M_D), so the marginal of S u {i} is

        t = 1:  det(L_S) * M_ii,
        t = 2:  det(L_S) * sum over j != i of (M_ii M_jj - M_ij M_ji),

    and at t >= 3, with M = V diag(lam) V^-1, Jacobi's identity for the
    minors of I + x M gives it as

        det(L_S) * sum_j V_ij (V^-1)_ji lam_j e_{t-1}(lam without lam_j).

    Only this last form reads the spectrum, so only it can meet a defective
    or ill-conditioned eigenbasis.
    """
    idx = _normalize_indices(S, K.n)
    if not len(idx) < k <= K.n:
        raise DomainError(f"need |S| < k <= n, got |S|={len(idx)}, k={k}, n={K.n}")
    cands = [i for i in range(K.n) if i not in idx]
    if K.rank_d is not None and k > K.rank_d:
        return cands, [0.0] * len(cands)  # every k x k principal minor vanishes
    t = k - len(idx)
    try:
        M, det_S = condition_on(K, idx)
        vals = _last_steps(M, det_S, t) if t <= 2 else _spectral_step(M, det_S, t)
    except (ConditioningError, np.linalg.LinAlgError):
        return None
    if vals is None or not np.isfinite(vals).all():
        return None
    return cands, vals.tolist()


def _last_steps(M, det_S, t):
    """det(L_S) times M_ii (t = 1), or times the row sums of the 2 x 2
    principal minors M_ii M_jj - M_ij M_ji (t = 2).  The diagonal term of
    each row is d_i d_i - M_ii M_ii, exactly 0 for finite entries, so the
    full row sum is the sum over j != i; overflow is silent, since
    non-finite values give None."""
    d = np.diag(M)
    with np.errstate(over="ignore", invalid="ignore"):
        if t == 1:
            return det_S * d
        return det_S * (np.multiply.outer(d, d) - M * M.T).sum(axis=1)


def _spectral_step(M, det_S, t):
    """det(L_S) times the Jacobi sum over one eigendecomposition of M, or
    None where its eigenbasis has cond(V) above EIGENBASIS_COND_LIMIT."""
    lam, V = np.linalg.eig(M)
    W = np.linalg.inv(V)
    cond = np.linalg.norm(V, 1) * np.linalg.norm(W, 1)
    if not cond <= EIGENBASIS_COND_LIMIT:  # also NaN: M may be defective
        return None
    # Row j of E: e_0..e_{t-1} of lam without lam_j, by the product recurrence
    # less the j-th factor; overflow is silent, since non-finite values give None.
    m = len(lam)
    factors = lam * (1.0 - np.eye(m))
    E = np.zeros((m, t), dtype=complex)
    E[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            E[:, 1:] += factors[:, j, None] * E[:, :-1]
        VW = V * W.T  # VW[i, j] = V_ij (V^-1)_ji
        return det_S * (VW @ (lam * E[:, -1])).real

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
conditioning on S, as the diagonal of one polynomial in L^S for every
t = k - |S|: one loop forms its terms and reads each coefficient e_j of L^S
off its own products, so it reads no spectrum and no eigenvector.  Only
where the polynomial's terms would cancel past POLYNOMIAL_ERROR_LIMIT, at
t >= 3 on a wide spectrum with t near its numerical rank, does the step
take one eigendecomposition of L^S instead.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ConditioningError, DomainError
from .kernel import Kernel, _normalize_indices, _whole, condition_on, principal_minor

SINGULAR_PIN_CAP = 1000
# t >= 3: the polynomial's estimated rounding error, relative to its largest
# value, above which the step is priced from one eigendecomposition of L^S.
POLYNOMIAL_ERROR_LIMIT = 1e-12
EIGENBASIS_COND_LIMIT = 1e8  # 1-norm cond(V) above which L^S = V diag(lam) V^-1 is unused


def _elementary(lam, t):
    """e_0..e_t of lam, complex: the coefficients of prod (1 + lam_i x), by
    the product recurrence e_j^(i) = e_j^(i-1) + lam_i e_{j-1}^(i-1) over
    the first i entries of lam, one column j at a time: e_j^(0..m) is the
    running sum of [0, lam_1 e_{j-1}^(0), ..., lam_m e_{j-1}^(m-1)], whose
    leading 0 is the recurrence's start, so that even signed zeros agree."""
    col = np.ones(len(lam) + 1, dtype=complex)  # e_0^(i), i = 0..m
    terms = np.zeros(len(lam) + 1, dtype=complex)
    e = np.empty(t + 1, dtype=complex)
    e[0] = 1.0
    for j in range(1, t + 1):
        np.multiply(lam, col[:-1], out=terms[1:])
        e[j] = np.add.accumulate(terms, out=col)[-1]
    return e


def superset_marginal(K: Kernel, Y, k):
    """sum of det(L_S) over size-k supersets S of Y: det(L_Y) * e_{k-|Y|}(spec L^Y).

    A singular pin Y is priced by t * M(Y) = sum over j outside Y of
    M(Y u {j}), since each superset of Y is reached once per element it adds.
    Raises CapacityError when one marginal needs more than SINGULAR_PIN_CAP
    conditioning steps.
    """
    idx, k = _normalize_indices(Y, K.n), _whole("k", k)
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
        return detY * float(_elementary(np.linalg.eigvals(M), t)[t].real)

    return marginal(idx, k - len(idx))


def step_marginals(K: Kernel, S, k):
    """(candidates, values): the marginal of S u {i} for every i outside S,
    in increasing i, from one conditioning on S; None when S is a singular
    pin, a value is not finite or, on the eigenbasis route, cond(V) is above
    EIGENBASIS_COND_LIMIT.

    With t = k - |S| and M = L^S, each size-k superset of S u {i} is S u D
    for a size-t set D outside S that holds i, with det(L_{S u D}) =
    det(L_S) det(M_D).  Summed over D, det(M_D) is the coefficient of x^t
    in det(I + xM) - adj(I + xM)_ii = x (M adj(I + xM))_ii, by
    (I + xM) adj(I + xM) = det(I + xM) I.  The same identity gives
    adj(I + xM) = sum_j x^j A_j with A_0 = I and A_j = e_j I - M A_{j-1},
    e_j the elementary symmetric functions of spec(M), so the marginal of
    S u {i} is

        det(L_S) * (M A_{t-1})_ii.

    The loop that forms A_j reads e_j = tr(M A_{j-1}) / j off its own product,
    so no spectrum is read.  Where that polynomial loses accuracy (see
    _polynomial_step), the step is priced from one eigendecomposition
    M = V diag(lam) V^-1 by Jacobi's identity for the minors of I + xM:

        det(L_S) * sum_j V_ij (V^-1)_ji lam_j e_{t-1}(lam without lam_j).
    """
    idx, k = _normalize_indices(S, K.n), _whole("k", k)
    if not len(idx) < k <= K.n:
        raise DomainError(f"need |S| < k <= n, got |S|={len(idx)}, k={k}, n={K.n}")
    cands = [i for i in range(K.n) if i not in idx]
    if K.rank_d is not None and k > K.rank_d:
        return cands, [0.0] * len(cands)  # every k x k principal minor vanishes
    t = k - len(idx)
    try:
        M, det_S = condition_on(K, idx)
        vals = _polynomial_step(M, det_S, t)
        if vals is None:
            vals = _spectral_step(M, det_S, t)
    except (ConditioningError, np.linalg.LinAlgError):
        return None
    if vals is None or not np.isfinite(vals).all():
        return None
    return cands, vals.tolist()


def _polynomial_step(M, det_S, t):
    """det(L_S) * diag(M A_{t-1}), or None at t >= 3 when its estimated
    rounding error is above POLYNOMIAL_ERROR_LIMIT of its largest value.

    One loop forms A_j = e_j I - M A_{j-1}, reading j e_j = tr(M A_{j-1}) off
    its own product (Newton's identities).  An error made in A_j grows by up
    to max |lam| <= rho = ||M^2||_F^(1/2) in each later product (|lam|^2 is an
    eigenvalue modulus of M^2, at most its Frobenius norm), so the estimate
    is eps (rho^t + sum_j rho^(t-j) max |A_j|).  It stays near eps while the
    values are as large as rho^t, and not when t nears the numerical rank of
    a wide spectrum (a low-rank kernel at k near d, or k near n), where the
    polynomial's terms cancel.  Overflow is silent, since non-finite values
    give None."""
    m = len(M)
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.sqrt(np.linalg.norm(M @ M)) if t >= 3 else 0.0
        A, growth = np.eye(m), rho**t
        for j in range(1, t):
            A = -M if j == 1 else -(M @ A)
            A.flat[:: m + 1] -= A.trace() / j
            growth += rho ** (t - j) * np.abs(A).max()
        d = (M * A.T).sum(axis=1)
        limit = POLYNOMIAL_ERROR_LIMIT * np.abs(d).max()
        if t >= 3 and np.isfinite(d).all() and not np.finfo(float).eps * growth <= limit:
            return None
        return det_S * d


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

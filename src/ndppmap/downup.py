"""Exact down-up walks, external fields, and spectral diagnostics.

The k<->l walk drops k-l elements uniformly, then re-completes
proportionally to mu.  At desk scale the transition matrix is materialized
row-stochastically over the support, so reversibility, the spectrum,
conductance and the Cheeger sandwich can all be checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress

import numpy as np

from .errors import CapacityError, DomainError, InfeasibilityError, TrappedStateError
from .setdist import SetDistribution, as_set

CHAIN_STATE_CAP = 20000
CONDUCTANCE_STATE_CAP = 22
CUT_BLOCK = 1 << 15  # cuts per block of the exact conductance sweep
CHEEGER_TOL = 1e-9  # absolute slack of both sides of the Cheeger sandwich


@dataclass
class ChainMatrix:
    states: list  # sorted size-k tuples carrying positive mass
    P: np.ndarray  # row-stochastic transition matrix
    pi: np.ndarray  # stationary density (normalized mu over states)

    @cached_property
    def spectrum(self):
        """Ascending eigenvalues of P, from its reversible symmetrization."""
        s = np.sqrt(self.pi)
        A = (s[:, None] * self.P) / s[None, :]
        return np.linalg.eigvalsh(0.5 * (A + A.T))


class FieldDistribution(SetDistribution):
    """(lambda * mu)(S) = mu(S) * prod_{i in S} lambda_i, with zero and
    infinite entries realized as support restriction."""

    def __init__(self, base: SetDistribution, lam: np.ndarray):
        super().__init__(base.n, base.k)
        self.base = base
        self.lam = lam
        self.forced = frozenset(np.flatnonzero(np.isinf(self.lam)).tolist())
        self.deleted = frozenset(np.flatnonzero(self.lam == 0.0).tolist())

    def value(self, S):
        S = as_set(S)
        sset = set(S)
        if not self.forced <= sset or sset & self.deleted:
            return 0.0
        factor = 1.0
        for i in S:
            if i not in self.forced:
                factor *= self.lam[i]
        return self.base.value(S) * factor


def apply_field(mu: SetDistribution, lam) -> FieldDistribution:
    """Reweight mu by the external field lam (one nonnegative entry per
    element: 0 deletes it, inf forces it); errors out on empty support
    whenever the state space is small enough to enumerate."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0) or np.any(np.isnan(lam)):
        raise DomainError("field entries must be nonnegative")
    if len(lam) != mu.n:
        raise DomainError(f"field has {len(lam)} entries, ground set has {mu.n}")
    out = FieldDistribution(mu, lam)
    if math.comb(mu.n, mu.k) <= CHAIN_STATE_CAP and not (out.tabulate() > 0.0).any():
        raise InfeasibilityError("field leaves no size-k subset with positive mass")
    return out


def build_downup(mu: SetDistribution, n, k, l) -> ChainMatrix:
    """Explicit transition matrix of the k<->l down-up walk on supp(mu).

    The matrix is the composition D_{k->l} U_{l->k} acting on k-sets, which is
    exactly the two-step drop/re-complete algorithm.
    """
    if (n, k) != (mu.n, mu.k):
        raise DomainError(f"(n, k) = ({n}, {k}) but mu is over ({mu.n}, {mu.k})")
    if not 0 <= l <= k <= n:
        raise DomainError(f"need 0 <= l <= k <= n, got n={n}, k={k}, l={l}")
    if math.comb(n, k) > CHAIN_STATE_CAP:
        raise CapacityError(f"C({n},{k}) exceeds chain cap {CHAIN_STATE_CAP}")
    vals = mu.tabulate()
    support = vals > 0.0
    states = list(compress(combinations(range(n), k), support))
    if not states:
        raise InfeasibilityError("mu has empty support on size-k subsets")
    m = len(states)
    w = vals[support]
    pi = w / w.sum()
    if k == l:
        return ChainMatrix(states, np.eye(m), pi)
    by_core = {}
    for si, S in enumerate(states):
        for core in combinations(S, l):
            by_core.setdefault(core, []).append(si)
    P = np.zeros((m, m))
    inv_choose = 1.0 / math.comb(k, l)
    for core, idxs in by_core.items():
        weights = w[idxs]
        up = weights / weights.sum()
        for si in idxs:
            P[si, idxs] += inv_choose * up
    return ChainMatrix(states, P, pi)


def spectral_gap(C: ChainMatrix) -> float:
    """1 - lambda_2 of the transition matrix (via the reversible symmetrization)."""
    if len(C.states) < 2:
        return 1.0
    return float(1.0 - C.spectrum[-2])


@dataclass
class ConductanceResult:
    exact: bool
    value: float | None  # exact bottleneck ratio when exact
    lower: float
    upper: float


def _cut_tables(pi, rowflow, F):
    """Every sub-cut x of one half of the states (bit j of x is state j):
    its 0/1 membership rows, its pi mass, and its row flow minus its
    internal flow x^T F x."""
    s = len(pi)
    B = ((np.arange(1 << s)[:, None] >> np.arange(s)) & 1).astype(float)
    return B, B @ pi, B @ rowflow - ((B @ F) * B).sum(axis=1)


def conductance(C: ChainMatrix) -> ConductanceResult:
    """Exact min-cut bottleneck ratio when the state count is at most
    CONDUCTANCE_STATE_CAP, so the 2^m cuts can be enumerated; otherwise an
    interval inverted from the Cheeger sandwich.

    The exact path splits the states into a low half (the first floor(m/2))
    and a high half, and tabulates each half's sub-cuts once.  A cut is a
    pair (h, l) of sub-cuts: its mass is the sum of theirs, and its outflow
    is the sum of theirs minus the cross flow x_l^T (F_lh + F_hl^T) x_h, an
    entry of one small matrix product.  F need not be symmetric.  The
    2^ceil(m/2) x 2^floor(m/2) grid of cuts is swept in blocks of high-half
    rows of about CUT_BLOCK cuts each."""
    m = len(C.states)
    if m > CONDUCTANCE_STATE_CAP:
        gap = spectral_gap(C)
        return ConductanceResult(False, None, gap / 2.0, math.sqrt(max(2.0 * gap, 0.0)))
    F = C.pi[:, None] * C.P  # ergodic flow
    rowflow = F.sum(axis=1)
    lo = m // 2
    B_l, p_l, out_l = _cut_tables(C.pi[:lo], rowflow[:lo], F[:lo, :lo])
    B_h, p_h, out_h = _cut_tables(C.pi[lo:], rowflow[lo:], F[lo:, lo:])
    cross = (B_l @ (F[:lo, lo:] + F[lo:, :lo].T)).T  # (m - lo) x 2^lo
    rows = max(1, CUT_BLOCK >> lo)
    best = math.inf
    for h0 in range(0, len(B_h), rows):
        blk = slice(h0, h0 + rows)
        pi_S = p_h[blk, None] + p_l
        Q = out_h[blk, None] + out_l - B_h[blk] @ cross
        keep = pi_S <= 0.5 + 1e-12
        if h0 == 0:
            keep[0, 0] = False  # the empty cut
        phi = np.divide(Q, pi_S, out=np.full_like(Q, math.inf), where=keep)
        best = min(best, float(phi.min()))
    if not math.isfinite(best):
        best = 0.0
    best = max(best, 0.0)
    return ConductanceResult(True, best, best, best)


def cheeger_ok(gap, cond: ConductanceResult):
    """Phi^2 / 2 <= 1 - lambda_2 <= 2 Phi, checked only when Phi is exact."""
    if not cond.exact:
        return True
    phi = cond.value
    return phi * phi / 2.0 <= gap + CHEEGER_TOL and gap <= 2.0 * phi + CHEEGER_TOL


def sample_walk(mu: SetDistribution, S0, l, steps, seed):
    """Seeded trajectory of the k<->l down-up walk started at the size-k set S0.

    Each up-step enumerates the C(n-l, k-l) supersets of the retained core
    once, caches their normalized cumulative distribution, and samples
    proportionally to mu by searching it for one uniform draw.  That is the
    arithmetic of `Generator.choice(len(cands), p=probs)`, so trajectories
    are reproducible bit-for-bit per seed and equal to choice-based ones.
    """
    S0 = as_set(S0)
    k = mu.k
    if len(S0) != k:
        raise DomainError(f"walk needs a size-{k} start, got {S0}")
    if not 0 <= l <= k:
        raise DomainError(f"need 0 <= l <= k, got l={l}, k={k}")
    if mu.value(S0) <= 0.0:
        raise DomainError("walk must start in the support of mu")
    rng = np.random.default_rng(seed)
    traj = [S0]
    if l == k:
        return [S0] * (steps + 1)
    up_cache = {}
    cur = S0
    for _ in range(steps):
        keep_idx = rng.choice(k, size=l, replace=False)
        core = tuple(sorted(cur[i] for i in keep_idx))
        if core not in up_cache:
            rest = [i for i in range(mu.n) if i not in core]
            cands = [tuple(sorted(core + extra)) for extra in combinations(rest, k - l)]
            wts = np.array([max(mu.value(S), 0.0) for S in cands])
            total = wts.sum()
            if total > 0.0:
                cdf = (wts / total).cumsum()
                cdf /= cdf[-1]
            else:
                cdf = None
            up_cache[core] = (cands, cdf)
        cands, cdf = up_cache[core]
        if cdf is None:
            raise TrappedStateError(f"no positive-mass superset of {core}", state=core)
        cur = cands[cdf.searchsorted(rng.random(), side="right")]
        traj.append(cur)
    return traj


def tv_distance(p, q) -> float:
    """Half L1 distance between two density sequences over the same
    enumerated support."""
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    if pv.shape != qv.shape:
        raise DomainError("mismatched supports")
    return 0.5 * float(np.abs(pv - qv).sum())


def empirical_density(traj, states):
    """Visit frequencies of `traj` over the enumerated `states`."""
    index = {S: i for i, S in enumerate(states)}
    counts = np.zeros(len(states))
    for S in traj:
        counts[index[S]] += 1.0
    return counts / counts.sum()


def chain_checks(C: ChainMatrix, n=None, k=None, l=None):
    """Row sums, reversibility, spectrum, stationarity, gap, Cheeger sandwich."""
    P, pi = C.P, C.pi
    row_err = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
    F = pi[:, None] * P
    rev_err = float(np.max(np.abs(F - F.T)))
    ev = C.spectrum
    gap = spectral_gap(C)
    cond = conductance(C)
    stat_err = float(np.max(np.abs(pi @ P - pi)))
    report = {
        "n": n,
        "k": k,
        "l": l,
        "num_states": len(C.states),
        "row_sum_err": row_err,
        "reversibility_err": rev_err,
        "min_eigenvalue": float(ev[0]),
        "stationarity_err": stat_err,
        "gap": gap,
        "cheeger_ok": cheeger_ok(gap, cond),
    }
    if cond.exact:
        report["conductance"] = cond.value
    else:
        report["conductance_bounds"] = [cond.lower, cond.upper]
    report["ok"] = bool(
        row_err <= 1e-12
        and rev_err <= 1e-10
        and ev[0] >= -1e-9
        and stat_err <= 1e-10
        and report["cheeger_ok"]
    )
    return report

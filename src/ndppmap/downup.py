"""Exact down-up walks, external fields, and spectral diagnostics.

The k<->l walk drops k-l elements uniformly, then re-completes
proportionally to mu.  At desk scale the transition matrix is materialized
row-stochastically over the support, by flat scatters of the l-set cores'
blocks in core order, so reversibility, the spectrum, conductance and the
Cheeger sandwich can all be checked exactly; the array checks run in two
m x m buffers.  The spectrum is solved on the smaller side: over the l-set
cores when they number at most half the states, since D U and the up-down
walk U D share their nonzero spectrum.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress

import numpy as np

from .errors import CapacityError, DomainError, InfeasibilityError, TrappedStateError
from .setdist import SetDistribution, as_set, subsets, union_rows

CHAIN_STATE_CAP = 20000
CONDUCTANCE_STATE_CAP = 22
CUT_BLOCK = 1 << 15  # cuts per block of the exact conductance sweep
SCATTER_BLOCK = 1 << 16  # entries of P per flat np.add.at in build_downup
WALK_BLOCK = 4096  # sampler steps per array of uniform draws
CHEEGER_TOL = 1e-9  # absolute slack of both sides of the Cheeger sandwich


@dataclass
class ChainMatrix:
    """The k<->l down-up chain on its m states, with an optional factor.

    For a chain from `build_downup` with 2 * cores <= m (cores: the l-sets
    under some state), `factor` is the m x cores matrix A with
    A[S, c] = sqrt(w_S / (C(k, l) W_c)) when c is a subset of S and 0
    otherwise, where w is mu over the states and W_c sums w over the
    supersets of c.  The symmetrization of P is then exactly A A^T, so its
    spectrum is that of the cores x cores Gram matrix A^T A plus m - cores
    zeros.  Otherwise, and for any hand-built chain, `factor` is None.
    """

    states: list  # sorted size-k tuples carrying positive mass
    P: np.ndarray  # row-stochastic transition matrix
    pi: np.ndarray  # stationary density (normalized mu over states)
    factor: np.ndarray | None = None  # A, with symmetrized(P) = A A^T

    def symmetrized(self, B=None, out=None):
        """The reversible symmetrization of P: (B + B^T) / 2 with
        B = D^{1/2} P D^{-1/2} and D = diag(pi).  B is formed in place in
        the given m x m buffer and the result written to `out` (each newly
        allocated when None), so it takes two m x m arrays."""
        s = np.sqrt(self.pi)
        B = np.multiply(s[:, None], self.P, out=B)
        np.divide(B, s[None, :], out=B)
        out = np.add(B, B.T, out=out)
        return np.multiply(0.5, out, out=out)

    @cached_property
    def spectrum(self):
        """Ascending eigenvalues of P: with a factor A, those of the small
        Gram matrix A^T A joined with m - cores zeros; without one, those of
        the m x m symmetrization.  Either way, one eigenproblem."""
        if self.factor is None:
            return np.linalg.eigvalsh(self.symmetrized())
        A = self.factor
        zeros = np.zeros(A.shape[0] - A.shape[1])
        return np.sort(np.concatenate((zeros, np.linalg.eigvalsh(A.T @ A))))


class FieldDistribution(SetDistribution):
    """(lambda * mu)(S) = mu(S) * prod_{i in S} lambda_i, with zero and
    infinite entries realized as support restriction (mass exactly +0.0);
    completions() are the base's times each set's field product."""

    def __init__(self, base: SetDistribution, lam: np.ndarray):
        super().__init__(base.n, base.k)
        self.base = base
        self.lam = lam

    def _field(self, sets):
        """Each row's field product, in row order with a forced entry counted as
        1.0, and whether the row lies in the support, for sorted rows of sets."""
        forced = np.isinf(self.lam)
        lam = np.where(forced, 1.0, self.lam)
        factor = np.ones(len(sets))
        for c in range(sets.shape[1]):
            factor *= lam[sets[:, c]]
        inside = (forced[sets].sum(axis=1) == forced.sum()) & (self.lam[sets] != 0.0).all(axis=1)
        return factor, inside

    def completions(self, core, D):
        factor, inside = self._field(union_rows(core, D))
        return np.where(inside, self.base.completions(core, D) * factor, 0.0)


def apply_field(mu: SetDistribution, lam) -> FieldDistribution:
    """Reweight mu by the external field lam (one nonnegative entry per
    element: 0 deletes it, inf forces it); errors out on empty support
    whenever the state space is small enough to enumerate."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise DomainError(f"field must be one-dimensional, got shape {lam.shape}")
    if np.any(lam < 0) or np.any(np.isnan(lam)):
        raise DomainError("field entries must be nonnegative")
    if len(lam) != mu.n:
        raise DomainError(f"field has {len(lam)} entries, ground set has {mu.n}")
    out = FieldDistribution(mu, lam)
    if math.comb(mu.n, mu.k) <= CHAIN_STATE_CAP and not (out.tabulate() > 0.0).any():
        raise InfeasibilityError("field leaves no size-k subset with positive mass")
    return out


def _add_core_blocks(P, w, rows, lens, scale):
    """P[i, j] += scale * (w[j] / W_c) for each core c and each pair (i, j)
    of its supersets, where the supersets of the cores, in order, are
    consecutive slices of `rows` of the lengths `lens`, and W_c sums w over
    them.  Each run of cores with equally many supersets is a 2-D block, cut
    into about SCATTER_BLOCK entries, and each block one `np.add.at` on the
    flat view of P, at flat indices i * m + j."""
    m = len(P)
    flat = P.reshape(-1)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    edges = [0, *(np.flatnonzero(lens[1:] != lens[:-1]) + 1).tolist(), len(lens)]
    for c0, c1 in zip(edges, edges[1:]):
        size = int(lens[c0])
        per = max(1, SCATTER_BLOCK // (size * size))
        for b0 in range(c0, c1, per):
            b1 = min(b0 + per, c1)
            R = rows[offsets[b0]:offsets[b1]].reshape(b1 - b0, size)
            weights = w[R]
            V = scale * (weights / weights.sum(axis=1, keepdims=True))
            ij = (R * m)[:, :, None] + R[:, None, :]  # core, row i, column j
            np.add.at(flat, ij.ravel(), np.repeat(V, size, axis=0).ravel())


def build_downup(mu: SetDistribution, n, k, l) -> ChainMatrix:
    """Explicit transition matrix of the k<->l down-up walk on supp(mu).

    The matrix is the composition D_{k->l} U_{l->k} acting on k-sets, which is
    exactly the two-step drop/re-complete algorithm, read one l-set core at a
    time: each superset of the core in the support moves, with weight
    1/C(k, l), to the core's normalized distribution over its supersets.
    The cores' blocks are added in place by flat `np.add.at` scatters
    (`_add_core_blocks`), in the order the cores were grouped.  The row sums
    of a 2-D block of cores with equally many supersets are each core's
    normalizer bit for bit, so every entry of P receives the same addends in
    the same order as from one block add per core.

    When 2 * cores <= m, the chain also carries the factor A of its
    symmetrization (see `ChainMatrix`), written by one scatter over the
    grouped (state, core) pairs with each W_c from one `np.bincount`.  The
    rule is structural: then the Gram product A^T A and the check A A^T in
    `chain_checks` cost at most 3/4 m^3 flops together, less than the m x m
    eigensolve they replace.  P and pi do not depend on the factor.
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
    total = w.sum()
    if not math.isfinite(total):
        raise CapacityError(f"mu sums to {total} over the support, past the float64 range")
    pi = w / total
    by_core = {}
    for si, S in enumerate(states):
        for core in combinations(S, l):
            by_core.setdefault(core, []).append(si)
    cores = len(by_core)
    lens = np.fromiter(map(len, by_core.values()), dtype=np.intp, count=cores)
    rows = np.fromiter(chain.from_iterable(by_core.values()), dtype=np.intp)
    inv_choose = 1.0 / math.comb(k, l)
    P = np.zeros((m, m))
    _add_core_blocks(P, w, rows, lens, inv_choose)
    if 2 * cores > m:
        return ChainMatrix(states, P, pi)
    cols = np.repeat(np.arange(cores), lens)
    W = np.bincount(cols, weights=w[rows], minlength=cores)
    A = np.zeros((m, cores))
    A[rows, cols] = np.sqrt(inv_choose * w[rows] / W[cols])
    return ChainMatrix(states, P, pi, A)


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
    entry of one small matrix product.  F need not be symmetric.

    Each half's sub-cuts are sorted by mass, so the cuts with
    pi(S) <= 1/2 + 1e-12 form a staircase on the grid: since a float sum is
    monotone in each term, a high-half row reaches a prefix of the low-half
    columns, no longer than that of a lighter row.  The rows
    are swept in blocks of about CUT_BLOCK cuts, each block over the columns
    its lightest row reaches, and the sweep stops at the first row that
    reaches none.  Every cut is priced by the same expression as on the full
    grid, so the minimum is over the same cuts with the same values."""
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
    by_l = np.argsort(p_l, kind="stable")
    by_h = np.argsort(p_h, kind="stable")
    p_l, out_l, cross = p_l[by_l], out_l[by_l], cross[:, by_l]
    p_h, out_h, B_h = p_h[by_h], out_h[by_h], B_h[by_h]
    empty_h, empty_l = int(np.argmin(by_h)), int(np.argmin(by_l))  # where sub-cut 0 went
    rows = max(1, CUT_BLOCK >> lo)
    best = math.inf
    for h0 in range(0, len(B_h), rows):
        reach = int(np.count_nonzero(p_h[h0] + p_l <= 0.5 + 1e-12))
        if reach == 0:
            break
        blk = slice(h0, h0 + rows)
        pi_S = p_h[blk, None] + p_l[:reach]
        Q = out_h[blk, None] + out_l[:reach] - B_h[blk] @ cross[:, :reach]
        keep = pi_S <= 0.5 + 1e-12
        if h0 <= empty_h < h0 + rows and empty_l < reach:
            keep[empty_h - h0, empty_l] = False  # the empty cut
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


def _up_step(mu: SetDistribution, core, s):
    """The up-step from a core, as (cdf, labels, core, D): D holds the C(n-l, s)
    size-s index sets outside the core, priced once by one `mu.completions`
    call; cdf is their normalized cumulative distribution, and labels[j], the
    sorted set core u D[j], is filled in when row j is first drawn."""
    D = subsets([i for i in range(mu.n) if i not in core], s)
    wts = np.maximum(mu.completions(core, D), 0.0)
    total = wts.sum()
    if not total > 0.0:
        raise TrappedStateError(f"no positive-mass superset of {core}", state=core)
    if total == math.inf:
        raise CapacityError(f"mu sums to inf over the supersets of {core}")
    cdf = (wts / total).cumsum()
    return (cdf / cdf[-1]).tolist(), [None] * len(D), core, D


def sample_walk(mu: SetDistribution, S0, l, steps, seed):
    """Seeded trajectory of the k<->l down-up walk started at the size-k set S0.

    Step t reads k+1 consecutive uniforms u of the seed's stream: it keeps the
    l positions of the current set with the smallest u[:k] (a uniform drop)
    and re-completes at u[k], taking the first superset of the retained core
    whose cumulative mass exceeds u[k].  The uniforms are drawn WALK_BLOCK
    steps at a time; `Generator.random` fills row-major, so the trajectory
    depends on the seed only, never on the block size.

    Each block's kept positions become one vector of pattern numbers, the
    colex rank of the sorted positions.  A core's up-step (`_up_step`) is
    priced once, and the move from a state under a pattern is cached, so a
    seen (state, pattern) costs one dict lookup and one `bisect_right`; a
    candidate's sorted label is built only when it is first drawn.
    """
    S0 = as_set(S0)
    k = mu.k
    if len(S0) != k:
        raise DomainError(f"walk needs a size-{k} start, got {S0}")
    if not 0 <= l <= k:
        raise DomainError(f"need 0 <= l <= k, got l={l}, k={k}")
    if steps < 0:
        raise DomainError(f"steps must be nonnegative, got {steps}")
    if not mu.value(S0) > 0.0:
        raise DomainError("walk must start in the support of mu")
    rng = np.random.default_rng(seed)
    # Positions p_0 < ... < p_{l-1} have colex rank sum_j C(p_j, j + 1).
    rank = np.array([math.comb(p, j + 1) for p in range(k) for j in range(l)], np.intp)
    rank = rank.reshape(k, l)  # k x l even at k = 0
    patterns = sorted(combinations(range(k), l), key=lambda p: p[::-1])  # by colex rank
    ups, moves = {}, {}  # core -> up-step; (state, pattern rank) -> up-step
    traj = [S0]
    cur = S0
    for t0 in range(0, steps, WALK_BLOCK):
        U = rng.random((min(WALK_BLOCK, steps - t0), k + 1))
        keeps = np.sort(U[:, :k].argsort(axis=1, kind="stable")[:, :l], axis=1)
        pats = rank[keeps, np.arange(l)].sum(axis=1).tolist()
        for pat, u in zip(pats, U[:, k].tolist()):
            move = moves.get((cur, pat))
            if move is None:
                core = tuple(cur[i] for i in patterns[pat])  # sorted, since cur is
                move = ups.get(core)
                if move is None:
                    move = ups[core] = _up_step(mu, core, k - l)
                moves[cur, pat] = move
            cdf, labels, core, D = move
            j = bisect_right(cdf, u)
            cur = labels[j]
            if cur is None:
                cur = labels[j] = tuple(sorted(core + tuple(D[j].tolist())))
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
    """Visit frequencies of `traj` over the enumerated, distinct `states`."""
    visits = Counter(traj)
    counts = np.array([visits[S] for S in states], dtype=float)
    if counts.sum() != len(traj):
        raise DomainError("trajectory visits a state outside the enumerated states")
    return counts / len(traj)


def _array_errors(C: ChainMatrix):
    """(row_err, rev_err, factor_err) of `chain_checks`, in two m x m
    buffers: X holds the flow F = pi P, then B for the symmetrization, then
    A A^T; Y holds F - F^T and its abs, then the symmetrization minus A A^T."""
    P, pi = C.P, C.pi
    row_err = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
    X = np.multiply(pi[:, None], P)
    Y = np.subtract(X, X.T)
    rev_err = float(np.max(np.abs(Y, out=Y)))
    if C.factor is None:
        return row_err, rev_err, 0.0
    E = C.symmetrized(X, out=Y)
    E -= np.matmul(C.factor, C.factor.T, out=X)
    return row_err, rev_err, float(np.linalg.norm(E))


def chain_checks(C: ChainMatrix, n=None, k=None, l=None):
    """Row sums, reversibility, spectrum, stationarity, gap, Cheeger sandwich.

    `eig_dim` is the size of the one eigenproblem solved: cores when the
    chain has a factor A, m otherwise.  `factor_err` is the Frobenius norm
    of symmetrized(P) - A A^T (0.0 without a factor), and `ok` requires it
    to be at most 1e-10.  By Weyl's inequality every eigenvalue reported
    from A is then within 1e-10 of the matching eigenvalue of the
    symmetrized P, so the spectral checks describe P itself."""
    row_err, rev_err, factor_err = _array_errors(C)
    ev = C.spectrum
    gap = spectral_gap(C)
    cond = conductance(C)
    stat_err = float(np.max(np.abs(C.pi @ C.P - C.pi)))
    report = {
        "n": n,
        "k": k,
        "l": l,
        "num_states": len(C.states),
        "row_sum_err": row_err,
        "reversibility_err": rev_err,
        "min_eigenvalue": float(ev[0]),
        "eig_dim": len(C.states) if C.factor is None else C.factor.shape[1],
        "factor_err": factor_err,
        "stationarity_err": stat_err,
        "gap": gap,
        "cheeger_ok": len(C.states) < 2 or cheeger_ok(gap, cond),  # one state has no cut
    }
    if cond.exact:
        report["conductance"] = cond.value
    else:
        report["conductance_bounds"] = [cond.lower, cond.upper]
    report["ok"] = bool(
        row_err <= 1e-12
        and rev_err <= 1e-10
        and factor_err <= 1e-10
        and ev[0] >= -1e-9
        and stat_err <= 1e-10
        and report["cheeger_ok"]
    )
    return report

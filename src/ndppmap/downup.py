"""Exact down-up walks, external fields, and spectral diagnostics.

The k<->l walk drops k-l elements uniformly, then re-completes
proportionally to mu.  A chain from `build_downup`, a `DownUpChain` and the
only chain type here, is held as its operators, P = D U: D averages a state
over its l-set cores and U sends a core to its normalized distribution over
its supersets in the support, so both live on the (state, core) incidence,
C(k, l) entries per state.  Row sums and stationarity are read off the
operators, and the spectrum off one eigenproblem on the smaller Gram matrix
of the factor A with sym(P) = A A^T.  No m x m P is ever built: the exact
conductance, which enumerates the cuts of at most CONDUCTANCE_STATE_CAP
states, reads the ergodic flow diag(pi) P = diag(sqrt(pi)) A A^T
diag(sqrt(pi)) off the factor.
A field over a kernel with no forced element is a kernel (apply_field), so
its scans, greedy steps, walks and chains take the kernel's routes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress

import numpy as np

from .errors import CapacityError, DomainError, InfeasibilityError, TrappedStateError
from .kernel import Kernel, _whole
from .setdist import (
    KernelDistribution, SetDistribution, TableDistribution, as_set, colex_table, subsets,
)

CHAIN_STATE_CAP = 20000
CONDUCTANCE_STATE_CAP = 22
# Cuts per block of the exact conductance sweep.  The minimum can move in its
# last bits with the block size: BLAS may round a block's cross-flow product
# differently for another shape.
CUT_BLOCK = 1 << 15
SCATTER_BLOCK = 1 << 16  # entries of an m x m array per flat np.add.at over core blocks
WALK_BLOCK = 4096  # sampler steps per array of uniform draws
CHEEGER_TOL = 1e-9  # absolute slack of both sides of the Cheeger sandwich


class DownUpChain:
    """The k<->l down-up chain P = D U on its m states, held as its operators.

    Both live on the (state, core) incidence: `core_ids` is m x C(k, l), row
    S the ids of the l-set cores under S in `combinations` order, the cores
    numbered in the order they first appear.  With the state masses w,
    pi = w / sum(w), and the core sums W_c of w over the supersets of c,
    D[S, c] = `scale` = 1/C(k, l), U[c, S] = w_S / W_c (`up`) and the factor
    A[S, c] = sqrt(w_S / (C(k, l) W_c)) (`factor`), each m x C(k, l) in the
    layout of `core_ids`.  So pi_S (D U)[S, T] is symmetric in (S, T): the
    chain is reversible by construction, sym(P) = A A^T identically, and no
    m x m P is built.
    """

    def __init__(self, states, w, core_ids):
        per = core_ids.shape[1]
        self.states, self.pi = states, w / w.sum()
        self.core_ids, self.scale = core_ids, 1.0 / per
        self.W = np.bincount(core_ids.ravel(), weights=np.repeat(w, per))
        W = self.W[core_ids]
        self.up = w[:, None] / W
        self.factor = np.sqrt(self.scale * w[:, None] / W)

    @property
    def eig_dim(self):
        """The size of `gram()`, the one eigenproblem behind the spectrum."""
        return min(len(self.W), len(self.states))

    @cached_property
    def spectrum(self):
        """Ascending eigenvalues of P: those of `gram()`, from one
        eigensolve, joined with m - eig_dim zeros."""
        ev = np.linalg.eigvalsh(self.gram())
        return np.sort(np.concatenate((np.zeros(len(self.states) - len(ev)), ev)))

    def gram(self):
        """The smaller of A^T A (cores x cores) and A A^T (m x m), which
        share their nonzero spectrum: that of P.  A^T A adds each state's
        products of its own C(k, l) factor entries, one `np.add.at` per
        position of the left entry, so the scatter holds m C(k, l) terms at
        a time."""
        cores = len(self.W)
        if cores > len(self.states):
            return self.state_gram()
        R, V = self.core_ids, self.factor
        G = np.zeros((cores, cores))
        for j in range(R.shape[1]):
            _add_products(G, R[:, j, None], V[:, j, None], R, V)
        return G

    def state_gram(self):
        """A A^T, added core by core: the products of each core's factor
        entries, over the blocks of `_core_blocks` of the incidence grouped
        by core, the states under each core ascending (`rows`)."""
        m, per = self.core_ids.shape
        ids = self.core_ids.ravel()
        order = np.argsort(ids, kind="stable")
        rows, values = order // per, self.factor.ravel()[order]
        G = np.zeros((m, m))
        for block, shape in _core_blocks(np.bincount(ids)):
            R, V = rows[block].reshape(shape), values[block].reshape(shape)
            _add_products(G, R, V, R, V)
        return G

    def flow(self):
        """F = diag(pi) P = diag(s) A A^T diag(s) with s = sqrt(pi), since
        sym(P) = D^{1/2} P D^{-1/2} for a reversible P: one `state_gram`."""
        s = np.sqrt(self.pi)
        return s[:, None] * self.state_gram() * s

    def row_sums(self):
        """P 1 = D (U 1): one `np.bincount` over the incidence, one gather."""
        U1 = np.bincount(self.core_ids.ravel(), weights=self.up.ravel())
        return self.scale * U1[self.core_ids].sum(axis=1)

    def pi_P(self):
        """pi P = (pi D) U: one `np.bincount` over the incidence, one gather."""
        per = self.core_ids.shape[1]
        piD = self.scale * np.bincount(self.core_ids.ravel(), weights=np.repeat(self.pi, per))
        return (piD[self.core_ids] * self.up).sum(axis=1)


def apply_field(mu: SetDistribution, lam) -> SetDistribution:
    """mu(S) prod_{i in S} lam_i for the field lam (0 deletes an element, inf
    forces it): for a kernel and no inf entry, the kernel Lambda^{1/2} L
    Lambda^{1/2}, from_lowrank(Lambda^{1/2} B, C) if factored; else a
    TableDistribution of mu's table times each set's product, inf read as 1.0,
    the sets off the support left out (+0.0), and CapacityError past
    CHAIN_STATE_CAP sets.  InfeasibilityError when fewer than k entries are
    positive or more than k are inf, and on empty support within
    CHAIN_STATE_CAP sets."""
    n, k, lam = mu.n, mu.k, np.asarray(lam, dtype=float)
    if lam.shape != (n,):
        raise DomainError(f"field must have shape ({n},), one entry per element; got {lam.shape}")
    if np.any(lam < 0) or np.any(np.isnan(lam)):
        raise DomainError("field entries must be nonnegative")
    forced, small = np.isinf(lam), math.comb(n, k) <= CHAIN_STATE_CAP
    empty = InfeasibilityError(f"field leaves no size-{k} subset with positive mass")
    if np.count_nonzero(lam) < k or np.count_nonzero(forced) > k:
        raise empty
    if isinstance(mu, KernelDistribution) and not forced.any():
        K, s = mu.kernel, np.sqrt(lam)
        K = (Kernel(s[:, None] * K.entries * s) if K.lowrank is None
             else Kernel.from_lowrank(K.lowrank[0] * s[:, None], K.lowrank[1]))
        out = KernelDistribution(K, k)
        table = out.tabulate() if small else None
    elif not small:
        raise CapacityError(f"C({n},{k}) exceeds the field table cap {CHAIN_STATE_CAP}")
    else:
        sets, factor, lam1 = subsets(range(n), k), 1.0, np.where(forced, 1.0, lam)
        for c in range(k):
            factor = factor * lam1[sets[:, c]]
        inside = (forced[sets].sum(axis=1) == forced.sum()) & (lam[sets] != 0.0).all(axis=1)
        table = np.where(inside, mu.tabulate() * factor, 0.0)
        kept = compress(zip(combinations(range(n), k), table.tolist()), inside)
        out = TableDistribution(n, k, dict(kept))
    if small and not (table > 0.0).any():
        raise empty
    return out


def _core_blocks(lens):
    """The incidence grouped by core, in 2-D blocks: each run of cores with
    equally many supersets, cut into about SCATTER_BLOCK entries of an m x m
    array.  Yields each block's slice of the incidence and its shape, cores
    by supersets."""
    offsets = np.concatenate(([0], np.cumsum(lens)))
    edges = [0, *(np.flatnonzero(lens[1:] != lens[:-1]) + 1).tolist(), len(lens)]
    for c0, c1 in zip(edges, edges[1:]):
        size = int(lens[c0])
        per = max(1, SCATTER_BLOCK // (size * size))
        for b0 in range(c0, c1, per):
            b1 = min(b0 + per, c1)
            yield slice(offsets[b0], offsets[b1]), (b1 - b0, size)


def _add_products(out, R1, V1, R2, V2):
    """out[R1[g, i], R2[g, j]] += V1[g, i] * V2[g, j] for each row g of the
    2-D index and value arrays and each pair (i, j), by one `np.add.at` on
    the flat view of out, in the order (g, i, j)."""
    ij = (R1 * out.shape[1])[:, :, None] + R2[:, None, :]
    np.add.at(out.reshape(-1), ij.ravel(), (V1[:, :, None] * V2[:, None, :]).ravel())


def build_downup(mu: SetDistribution, n, k, l) -> DownUpChain:
    """The k<->l down-up walk on supp(mu), held as its operators.

    The walk is the composition D_{k->l} U_{l->k} acting on k-sets, which is
    exactly the two-step drop/re-complete algorithm, read one l-set core at a
    time: each superset of the core in the support moves, with weight
    1/C(k, l), to the core's normalized distribution over its supersets.
    The chain (`DownUpChain`) keeps the (state, core) incidence as one row of
    core ids per state, the cores numbered in the order they first appear
    under the sorted states, and builds no m x m array.
    """
    n, k, l = _whole("n", n), _whole("k", k), _whole("l", l)
    if (n, k) != (mu.n, mu.k):
        raise DomainError(f"(n, k) = ({n}, {k}) but mu is over ({mu.n}, {mu.k})")
    if not 0 <= l <= k <= n:
        raise DomainError(f"need 0 <= l <= k <= n, got n={n}, k={k}, l={l}")
    if math.comb(n, k) > CHAIN_STATE_CAP:
        raise CapacityError(f"C({n},{k}) exceeds chain cap {CHAIN_STATE_CAP}")
    vals = mu.tabulate()
    support = vals > 0.0
    S = subsets(range(n), k)[support]
    if not len(S):
        raise InfeasibilityError("mu has empty support on size-k subsets")
    w = vals[support]
    total = w.sum()
    if not math.isfinite(total):
        raise CapacityError(f"mu sums to {total} over the support, past the float64 range")
    # A core's key is its colex rank, below C(n, l) <= C(n, k) C(k, l), so
    # int64 holds it for any incidence that fits in memory.  One np.unique
    # numbers the keys; the ids are then reordered by first appearance.
    cores = S[:, subsets(range(k), l)]  # m x C(k, l) x l
    keys = colex_table(n, l)[np.arange(l), cores].sum(axis=2)
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    rank = np.empty(len(first), np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return DownUpChain(list(map(tuple, S.tolist())), w, rank[inverse].reshape(keys.shape))


def spectral_gap(C: DownUpChain) -> float:
    """1 - lambda_2 of the transition matrix, from `C.spectrum`."""
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


def conductance(C: DownUpChain) -> ConductanceResult:
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
    grid, so the minimum is over the same cuts with the same values.  A
    block's pi_S, Q and keep are views of three flat buffers allocated once
    per call, filled in place by `out=` ufuncs, and its minimum is taken over
    the kept cuts only (`where=keep`), so a block allocates only its
    cross-flow product.

    F is `C.flow()`, read off the factor, so no m x m P is built even
    here."""
    m = len(C.states)
    if m > CONDUCTANCE_STATE_CAP:
        gap = spectral_gap(C)
        return ConductanceResult(False, None, gap / 2.0, math.sqrt(max(2.0 * gap, 0.0)))
    F = C.flow()
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
    size = min(rows, len(B_h)) * len(p_l)
    bufs = np.empty(size), np.empty(size), np.empty(size, bool)  # pi_S, Q and keep
    best = math.inf
    for h0 in range(0, len(B_h), rows):
        reach = int(np.count_nonzero(p_h[h0] + p_l <= 0.5 + 1e-12))
        if reach == 0:
            break
        blk = slice(h0, h0 + rows)
        height = min(rows, len(B_h) - h0)
        pi_S, Q, keep = (b[: height * reach].reshape(height, reach) for b in bufs)
        np.add(p_h[blk, None], p_l[:reach], out=pi_S)
        np.add(out_h[blk, None], out_l[:reach], out=Q)
        Q -= B_h[blk] @ cross[:, :reach]
        np.less_equal(pi_S, 0.5 + 1e-12, out=keep)
        if h0 <= empty_h < h0 + rows and empty_l < reach:
            keep[empty_h - h0, empty_l] = False  # the empty cut
        np.divide(Q, pi_S, out=Q, where=keep)
        best = min(best, float(Q.min(where=keep, initial=math.inf)))
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
    """The up-step from a core, as (cdf, nxt, core, D): D holds the C(n-l, s)
    size-s index sets outside the core, priced once by one `mu.completions`
    call; cdf is their normalized cumulative distribution, and nxt[j], the
    walk's id of the sorted set core u D[j], is -1 until row j is first
    drawn."""
    D = subsets([i for i in range(mu.n) if i not in core], s)
    wts = np.maximum(mu.completions(core, D), 0.0)
    total = wts.sum()
    if not total > 0.0:
        raise TrappedStateError(f"no positive-mass superset of {core}", state=core)
    if total == math.inf:
        raise CapacityError(f"mu sums to inf over the supersets of {core}")
    cdf = (wts / total).cumsum()
    return (cdf / cdf[-1]).tolist(), [-1] * len(D), core, D


def sample_walk(mu: SetDistribution, S0, l, steps, seed):
    """Seeded trajectory of the k<->l down-up walk started at the size-k set S0.

    Step t reads k+1 consecutive uniforms u of the seed's stream: it keeps the
    l positions of the current set with the smallest u[:k] (a uniform drop)
    and re-completes at u[k], taking the first superset of the retained core
    whose cumulative mass exceeds u[k].  The uniforms are drawn WALK_BLOCK
    steps at a time; `Generator.random` fills row-major, so the trajectory
    depends on the seed only, never on the block size.

    The walk steps on int ids, given to the states as they are first drawn:
    `labels` maps an id to its sorted tuple and `index` a tuple to its id.
    Each block's kept positions become one vector of pattern numbers, the
    colex rank of the sorted positions.  A core's up-step (`_up_step`) is
    priced once, and the move from a state under a pattern is cached in one
    flat list at id * C(k, l) + pattern, so a step seen before is one list
    index, one `bisect_right` and one list index into the up-step's next
    ids; a candidate's sorted label is built only when it is first drawn.
    """
    S0 = as_set(S0)
    k = mu.k
    if len(S0) != k:
        raise DomainError(f"walk needs a size-{k} start, got {S0}")
    l, steps = _whole("l", l), _whole("steps", steps)
    if not 0 <= l <= k:
        raise DomainError(f"need 0 <= l <= k, got l={l}, k={k}")
    if steps < 0:
        raise DomainError(f"steps must be nonnegative, got {steps}")
    if not mu.value(S0) > 0.0:
        raise DomainError("walk must start in the support of mu")
    rng = np.random.default_rng(seed)
    rank = colex_table(k, l)  # the colex rank of positions p_0 < ... < p_{l-1}
    patterns = sorted(combinations(range(k), l), key=lambda p: p[::-1])  # by colex rank
    per = len(patterns)
    labels, index = [S0], {S0: 0}  # id -> state, state -> id
    ups = {}  # core -> up-step
    moves = [None] * per  # id * per + pattern rank -> up-step
    ids = [0]
    cur = 0
    for t0 in range(0, steps, WALK_BLOCK):
        U = rng.random((min(WALK_BLOCK, steps - t0), k + 1))
        keeps = np.sort(U[:, :k].argsort(axis=1, kind="stable")[:, :l], axis=1)
        pats = rank[np.arange(l), keeps].sum(axis=1).tolist()
        for pat, u in zip(pats, U[:, k].tolist()):
            slot = cur * per + pat
            move = moves[slot]
            if move is None:
                S = labels[cur]
                core = tuple(S[i] for i in patterns[pat])  # sorted, since S is
                move = ups.get(core)
                if move is None:
                    move = ups[core] = _up_step(mu, core, k - l)
                moves[slot] = move
            cdf, nxt, core, D = move
            j = bisect_right(cdf, u)
            cur = nxt[j]
            if cur < 0:
                S = tuple(sorted(core + tuple(D[j].tolist())))
                cur = index.get(S)
                if cur is None:
                    cur = index[S] = len(labels)
                    labels.append(S)
                    moves += [None] * per
                nxt[j] = cur
            ids.append(cur)
    return [labels[i] for i in ids]


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
    if len(set(states)) != len(states):
        raise DomainError("the enumerated states repeat")
    visits = Counter(traj)
    counts = np.array([visits[S] for S in states], dtype=float)
    if counts.sum() != len(traj):
        raise DomainError("trajectory visits a state outside the enumerated states")
    return counts / len(traj)


def chain_checks(C: DownUpChain, n=None, k=None, l=None):
    """Row sums, spectrum, stationarity, gap, Cheeger sandwich.

    Row sums and stationarity come from `C.row_sums()` and `C.pi_P()`, read
    off the operators.  `eig_dim` is the size of the one eigenproblem solved
    (`C.gram()`).  The chain is reversible by construction, pi_S (D U)[S, T]
    being symmetric, and its spectrum is read off A with sym(D U) = A A^T, so
    no reversibility is checked and the report's keys do not depend on the
    chain's size."""
    row_err = float(np.max(np.abs(C.row_sums() - 1.0)))
    stat_err = float(np.max(np.abs(C.pi_P() - C.pi)))
    ev = C.spectrum
    gap = spectral_gap(C)
    cond = conductance(C)
    report = {
        "n": n,
        "k": k,
        "l": l,
        "num_states": len(C.states),
        "row_sum_err": row_err,
        "min_eigenvalue": float(ev[0]),
        "eig_dim": C.eig_dim,
        "stationarity_err": stat_err,
        "gap": gap,
        "cheeger_ok": len(C.states) < 2 or cheeger_ok(gap, cond),  # one state has no cut
    }
    if cond.exact:
        report["conductance"] = cond.value
    else:
        report["conductance_bounds"] = [cond.lower, cond.upper]
    report["ok"] = bool(
        row_err <= 1e-12 and ev[0] >= -1e-9 and stat_err <= 1e-10 and report["cheeger_ok"]
    )
    return report

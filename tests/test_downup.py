import math
import tracemalloc
from itertools import chain, combinations, compress

import numpy as np
import pytest

from ndppmap import (
    CapacityError,
    DomainError,
    InfeasibilityError,
    Kernel,
    KernelDistribution,
    SearchConfig,
    SetDistribution,
    TableDistribution,
    TrappedStateError,
    apply_field,
    build_downup,
    conductance,
    induced_greedy,
    local_search,
    sample_walk,
    spectral_gap,
    tv_distance,
)
from ndppmap import downup
from ndppmap.downup import chain_checks, cheeger_ok, empirical_density
from ndppmap.instances import lowrank_npsd, random_field, random_npsd
from chains import DenseChain, symmetrized
from test_setdist import CountingKernel


def uniform(n, k):
    """mu = 1 on every size-k subset of [n]."""
    return TableDistribution(n, k, {S: 1.0 for S in combinations(range(n), k)})


def brute_conductance(C):
    """min Q(S, S^c) / pi(S) over the nonempty cuts with pi(S) <= 1/2, each
    size's cuts enumerated with itertools and each cut's flow summed by
    definition over its crossing pairs (0 when no cut qualifies)."""
    m = len(C.states)
    F = C.flow()
    best = math.inf
    for s in range(1, m):
        idx = np.fromiter(chain.from_iterable(combinations(range(m), s)), dtype=np.intp)
        idx = idx.reshape(-1, s)
        x = np.zeros((len(idx), m))
        x[np.arange(len(idx))[:, None], idx] = 1.0
        pi_S = x @ C.pi
        Q = ((x @ F) * (1.0 - x)).sum(axis=1)
        keep = pi_S <= 0.5 + 1e-12
        if np.any(keep):
            best = min(best, float((Q[keep] / pi_S[keep]).min()))
    return max(best, 0.0) if math.isfinite(best) else 0.0


def full_grid_conductance(C):
    """The exact conductance as one sweep over the whole 2^ceil(m/2) x
    2^floor(m/2) grid of split-half cuts, in high-half row blocks of about
    downup.CUT_BLOCK cuts, each cut that is not kept priced as inf."""
    m = len(C.states)
    F = C.flow()
    rowflow = F.sum(axis=1)
    lo = m // 2

    def cut_tables(pi, flow, G):
        B = ((np.arange(1 << len(pi))[:, None] >> np.arange(len(pi))) & 1).astype(float)
        return B, B @ pi, B @ flow - ((B @ G) * B).sum(axis=1)

    B_l, p_l, out_l = cut_tables(C.pi[:lo], rowflow[:lo], F[:lo, :lo])
    B_h, p_h, out_h = cut_tables(C.pi[lo:], rowflow[lo:], F[lo:, lo:])
    cross = (B_l @ (F[:lo, lo:] + F[lo:, :lo].T)).T
    rows = max(1, downup.CUT_BLOCK >> lo)
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
    return max(best, 0.0)


def random_chain(m, seed):
    """Row-stochastic P with an unrelated density pi, so F = diag(pi) P is
    not symmetric."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(size=(m, m))
    pi = rng.uniform(0.5, 2.0, size=m)
    return DenseChain([(i,) for i in range(m)], P / P.sum(axis=1, keepdims=True), pi / pi.sum())


CUT_CHAINS = {
    "m1": lambda: build_downup(TableDistribution(3, 2, {(0, 1): 1.0}), 3, 2, 1),
    "m2": lambda: random_chain(2, 1),
    "m3": lambda: build_downup(uniform(3, 2), 3, 2, 1),
    "m7": lambda: random_chain(7, 2),
    "m15": lambda: build_downup(KernelDistribution(random_npsd(6, 13), 2), 6, 2, 1),
    "m20": lambda: build_downup(KernelDistribution(random_npsd(6, 4242), 3), 6, 3, 1),
    "field_deleted": lambda: build_downup(
        apply_field(KernelDistribution(random_npsd(6, 8), 3), [0.0, *random_field(5, seed=3)]),
        6, 3, 2,
    ),
    "disconnected": lambda: build_downup(
        TableDistribution(4, 2, {(0, 1): 1.0, (2, 3): 1.0}), 4, 2, 1
    ),
}


# The chains random_npsd(n, s) at (k, l), for n = 5-7, s = 0-9 and every
# l < k with at most 22 states, whose conductance is not the same at
# CUT_BLOCK = 1, the production block and 1 << 30; as (n, s, k, l).
BLOCK_SENSITIVE = [
    (5, 8, 3, 2), (6, 1, 3, 1), (6, 2, 2, 1), (6, 2, 4, 3), (6, 4, 2, 1), (6, 7, 2, 0),
    (6, 7, 3, 2), (6, 8, 3, 2), (6, 8, 4, 3), (7, 3, 5, 1), (7, 3, 5, 2), (7, 3, 6, 5),
    (7, 4, 5, 0), (7, 7, 2, 1), (7, 8, 2, 1), (7, 9, 5, 3),
]
CUT_ULPS = 2  # the widest spread of the three over BLOCK_SENSITIVE, in ulps


def near_half_chain():
    """A reversible chain of two weakly joined 4-state clusters: the first
    holds 1/2 + 5e-13 of the mass, inside the 1e-12 slack, and is the
    bottleneck cut."""
    W = np.ones((8, 8))
    W[:4, 4:] = W[4:, :4] = 1e-3
    W[:4, :4] *= 1 + 2e-12
    d = W.sum(axis=1)
    return DenseChain([(i,) for i in range(8)], W / d[:, None], d / d.sum())


# The benchmark's seed-11 walk kernels: random_npsd(6, s) at k = 3.
WALK_SEEDS = [int(s) for s in np.random.default_rng([11, 4]).integers(2**31, size=10)]

FULL_GRID_CHAINS = {
    **CUT_CHAINS,
    **{
        f"walk{i}_l{l}": (lambda s=s, l=l: build_downup(
            KernelDistribution(random_npsd(6, s), 3), 6, 3, l))
        for i, s in enumerate(WALK_SEEDS)
        for l in (1, 2)
    },
    # 20 states of mass 1/20: the 10-state cuts sit at pi(S) = 1/2, the threshold
    "equal_mass": lambda: build_downup(uniform(6, 3), 6, 3, 1),
    "near_half": near_half_chain,
}


def reference_walk(mu, S0, l, steps, seed):
    """Reference down-up walk, one step at a time: step t draws k+1 uniforms u,
    keeps the l positions with the smallest u[:k], and re-completes at u[k]
    on the cumulative distribution of the core's candidates, each priced
    once with mu.value."""
    rng = np.random.default_rng(seed)
    k = len(S0)
    cur, traj, cache = S0, [S0], {}
    for _ in range(steps):
        u = rng.random(k + 1)
        core = tuple(sorted(cur[i] for i in np.argsort(u[:k], kind="stable")[:l]))
        if core not in cache:
            rest = [i for i in range(mu.n) if i not in core]
            cands = [tuple(sorted(core + extra)) for extra in combinations(rest, k - l)]
            wts = np.array([max(mu.value(S), 0.0) for S in cands])
            cdf = (wts / wts.sum()).cumsum()
            cdf /= cdf[-1]
            cache[core] = (cands, cdf)
        cands, cdf = cache[core]
        cur = cands[cdf.searchsorted(u[k], side="right")]
        traj.append(cur)
    return traj


def restricted_table():
    """A (7, 3) table with about half the sets at zero mass."""
    rng = np.random.default_rng(3)
    sets = list(combinations(range(7), 3))
    mass = rng.uniform(0.5, 2.0, size=len(sets)) * (rng.random(len(sets)) < 0.5)
    return TableDistribution(7, 3, dict(zip(sets, mass)))


def kernel_or_field(field):
    """mu of a kernel at k = 3, or mu under a field that deletes element 2."""
    mu = KernelDistribution(random_npsd(6, 2), 3)
    if not field:
        return mu
    lam = random_field(6, 4)
    lam[2] = 0.0
    return apply_field(mu, lam)


class ZeroCompletions(SetDistribution):
    """Positive on every set, but every completion is priced 0."""

    def value(self, S):
        return 1.0

    def completions(self, core, D):
        return np.zeros(len(D))


class TestApplyField:
    def test_all_ones_identity(self):
        mu = KernelDistribution(random_npsd(5, 1), 2)
        nu = apply_field(mu, np.ones(5))
        for S in combinations(range(5), 2):
            assert nu.value(S) == pytest.approx(mu.value(S))

    def test_zero_entry_deletes(self):
        mu = uniform(4, 2)
        nu = apply_field(mu, [0.0, 1.0, 1.0, 1.0])
        assert nu.value((0, 1)) == 0.0
        assert nu.value((1, 2)) == 1.0

    def test_infinite_entry_forces(self):
        mu = uniform(4, 2)
        nu = apply_field(mu, [math.inf, 1.0, 1.0, 1.0])
        assert nu.value((1, 2)) == 0.0
        assert nu.value((0, 2)) == 1.0

    def test_ratios_are_products(self):
        mu = KernelDistribution(random_npsd(6, 4), 3)
        lam = random_field(6, seed=2)
        nu = apply_field(mu, lam)
        for S in combinations(range(6), 3):
            expect = mu.value(S) * np.prod([lam[i] for i in S])
            assert nu.value(S) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize(
        "head",
        [[math.inf], [math.inf, math.inf], [0.0], [0.0, 0.0], [0.0, math.inf], []],
        ids=["forced", "two-forced", "deleted", "two-deleted", "mixed", "plain"],
    )
    def test_table_equals_enumerated_values(self, head):
        mu = KernelDistribution(random_npsd(8, 6), 3)
        nu = apply_field(mu, np.r_[head, random_field(8 - len(head), seed=7)])
        want = [nu.value(S) for S in combinations(range(8), 3)]
        assert np.array_equal(nu.tabulate(), want)
        assert np.array_equal(SetDistribution.tabulate(nu), want)

    def test_empty_support_rejected(self):
        mu = uniform(4, 2)
        with pytest.raises(InfeasibilityError):
            apply_field(mu, [0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "lam", [[0.0] * 21 + [1.0] * 9, [math.inf] * 11 + [1.0] * 19], ids=["deleted", "forced"]
    )
    def test_empty_field_rejected_past_the_cap(self, lam):
        # C(30, 10) sets: past CHAIN_STATE_CAP, so no table tells that the
        # support is empty; 9 positive or 11 forced entries leave no 10-set
        mu = KernelDistribution(random_npsd(30, 1), 10)
        with pytest.raises(InfeasibilityError, match="leaves no size-10 subset"):
            apply_field(mu, lam)

    def test_forced_field_past_the_cap_is_capacity(self):
        mu = KernelDistribution(random_npsd(30, 1), 10)
        with pytest.raises(CapacityError):
            apply_field(mu, [math.inf] + [1.0] * 29)

    def test_greedy_on_a_field_conditions_every_step(self):
        nu = apply_field(KernelDistribution(random_npsd(40, 1), 6), random_field(40, 2))
        assert isinstance(nu, KernelDistribution)
        g = induced_greedy(nu)
        assert (g.conditioned_steps, g.per_candidate_steps) == (6, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_and_search_match_the_definition(self, seed):
        mu = KernelDistribution(random_npsd(10, seed), 4)
        lam = random_field(10, seed=seed + 20)
        lam[3] = 0.0
        nu = apply_field(mu, lam)
        table = {
            S: mu.value(S) * math.prod(lam[list(S)]) for S in combinations(range(10), 4)
        }
        ref = TableDistribution(10, 4, table)
        g, g_ref = induced_greedy(nu), induced_greedy(ref)
        assert [i for i, _ in g.picks] == [i for i, _ in g_ref.picks]
        cfg = SearchConfig(r=2)
        assert local_search(nu, g.final_set, cfg)[0] == local_search(ref, g_ref.final_set, cfg)[0]

    def test_negative_field_rejected(self):
        mu = uniform(4, 2)
        for bad in (-1.0, math.nan):
            with pytest.raises(DomainError):
                apply_field(mu, [bad, 1.0, 1.0, 1.0])

    def test_out_of_range_set_rejected(self):
        nu = apply_field(uniform(4, 2), [1.0, 1.0, 1.0, 0.0])
        for bad in ((-1, 2), (2, 4)):
            with pytest.raises(DomainError):
                nu.value(bad)

    def test_field_must_be_one_dimensional(self):
        mu = uniform(4, 2)
        for bad in (1.0, np.ones((4, 1)), np.ones((4, 2))):
            with pytest.raises(DomainError):
                apply_field(mu, bad)


class TestBuildDownup:
    def test_uniform_three_states(self):
        C = build_downup(uniform(3, 2), 3, 2, 1)
        # each off-diagonal neighbor reached with prob 1/2 * 1/2, self-loop 1/2
        expect = np.full((3, 3), 0.25)
        np.fill_diagonal(expect, 0.5)
        assert np.allclose(C.pi, 1.0 / 3.0)
        assert np.allclose(C.flow(), expect / 3.0)

    def test_entries_match_definition_on_restricted_support(self):
        # each core's superset distribution is over the support only
        mu = restricted_table()
        support = [S for S in combinations(range(7), 3) if mu.value(S) > 0.0]
        for l in (1, 2):
            C = build_downup(mu, 7, 3, l)
            assert C.states == support
            expect = np.zeros((len(support), len(support)))
            for a, S in enumerate(support):
                for b, S2 in enumerate(support):
                    for c in combinations(sorted(set(S) & set(S2)), l):
                        up = sum(mu.value(T) for T in support if set(c) <= set(T))
                        expect[a, b] += mu.value(S2) / up
            expect *= C.pi[:, None] / math.comb(3, l)  # the flow diag(pi) P
            assert np.allclose(C.flow(), expect, rtol=1e-12, atol=0)

    def test_k_equals_l_identity(self):
        C = build_downup(uniform(4, 2), 4, 2, 2)
        assert np.array_equal(C.state_gram(), np.eye(6))  # sym(P) = P

    @pytest.mark.parametrize("field", [False, True], ids=["kernel", "field"])
    def test_k_equals_l_identity_with_unit_factor(self, field):
        # every state is its own core: the factor, the up-step and the
        # spectrum are exactly 1, and A A^T is exactly the identity
        C = build_downup(kernel_or_field(field), 6, 3, 3)
        m = len(C.states)
        assert m == (10 if field else 20)
        assert C.state_gram().tobytes() == np.eye(m).tobytes()
        assert C.core_ids.tolist() == [[i] for i in range(m)]
        for ones in (C.factor.ravel(), C.up.ravel(), C.spectrum):
            assert ones.tobytes() == np.ones(m).tobytes()

    def test_stationarity_seeded(self):
        mu = KernelDistribution(random_npsd(6, 8), 3)
        C, P = with_reference(mu, 1)
        assert np.max(np.abs(C.pi @ P - C.pi)) <= 1e-10

    def test_chain_validity_checks(self):
        mu = KernelDistribution(random_npsd(7, 3), 3)
        for l in (1, 2):
            rep = chain_checks(build_downup(mu, 7, 3, l), 7, 3, l)
            assert rep["ok"], rep
            assert rep["gap"] > 0.0

    def test_one_state_chain_passes(self):
        # a single-set support has no cut, so the Cheeger sandwich holds vacuously
        mu = KernelDistribution(Kernel(np.diag([1.0, 2.0, 0.0, 0.0])), 2)
        rep = chain_checks(build_downup(mu, 4, 2, 1), 4, 2, 1)
        assert rep["num_states"] == 1 and rep["gap"] == 1.0 and rep["conductance"] == 0.0
        assert rep["cheeger_ok"] and rep["ok"], rep

    def test_mu_past_float64_is_capacity(self):
        # was a NaN pi and a LinAlgError in chain_checks
        mu = KernelDistribution(Kernel(np.diag([1e200, 1e200, 1.0, 2.0])), 2)
        with pytest.raises(CapacityError, match="past the float64"):
            build_downup(mu, 4, 2, 1)

    def test_n_k_must_match_mu(self):
        mu = uniform(5, 2)
        with pytest.raises(DomainError):
            build_downup(mu, 6, 2, 1)
        with pytest.raises(DomainError):
            build_downup(mu, 5, 3, 1)

    @pytest.mark.parametrize(
        "n, k", [(5.0, 2), (5, 2.0), (True, 2), (5, "2")],
        ids=["float-n", "float-k", "bool-n", "str-k"],
    )
    def test_non_integer_n_k_rejected(self, n, k):
        # 5.0 == 5 passed the match with mu, then math.comb raised TypeError
        with pytest.raises(DomainError, match="must be an integer"):
            build_downup(uniform(5, 2), n, k, 1)

    def test_field_commutation(self):
        mu = KernelDistribution(random_npsd(6, 11), 2)
        lam = random_field(6, seed=5)
        nu = apply_field(mu, lam)
        C = build_downup(nu, 6, 2, 1)
        expect = np.array([nu.value(S) for S in C.states])
        assert np.allclose(C.pi, expect / expect.sum(), atol=1e-12)


def first_appearance_ids(states, l):
    """The m x C(k, l) core ids of the states, numbered by a dict in the
    order the cores first appear: the reference numbering."""
    ids = {}
    pairs = (ids.setdefault(core, len(ids)) for S in states for core in combinations(S, l))
    per = math.comb(len(states[0]), l)
    return np.fromiter(pairs, dtype=np.intp, count=len(states) * per).reshape(-1, per)


class TestCoreNumbering:
    @pytest.mark.parametrize(
        "mu",
        [KernelDistribution(random_npsd(9, 4), 4), KernelDistribution(lowrank_npsd(10, 3, 2), 3),
         restricted_table(), KernelDistribution(random_npsd(68, 1), 67)],
        ids=["dense-9-4", "lowrank-10-3", "table-with-holes", "dense-68-67"],
    )
    def test_ids_by_first_appearance(self, mu):
        k = mu.k
        for l in sorted({0, 1, k - 1, k}):
            C = build_downup(mu, mu.n, k, l)
            want = first_appearance_ids(C.states, l)
            assert C.core_ids.dtype == want.dtype and np.array_equal(C.core_ids, want)
        C = build_downup(mu, mu.n, k, 0)
        assert C.core_ids.shape == (len(C.states), 1) and not C.core_ids.any()  # one empty core


def per_core_reference(mu, l):
    """P and the m x cores factor of the k<->l chain, P added one block per
    core by a 2-D `np.add.at`, the factor by one scatter."""
    n, k = mu.n, mu.k
    vals = mu.tabulate()
    support = vals > 0.0
    states = list(compress(combinations(range(n), k), support))
    m = len(states)
    w = vals[support]
    by_core = {}
    for si, S in enumerate(states):
        for core in combinations(S, l):
            by_core.setdefault(core, []).append(si)
    inv_choose = 1.0 / math.comb(k, l)
    if k == l:
        P = np.eye(m)
    else:
        P = np.zeros((m, m))
        for core, idxs in by_core.items():
            weights = w[idxs]
            np.add.at(P, np.ix_(idxs, idxs), inv_choose * (weights / weights.sum()))
    cores = len(by_core)
    rows = np.fromiter(chain.from_iterable(by_core.values()), dtype=np.intp)
    cols = np.repeat(np.arange(cores), list(map(len, by_core.values())))
    W = np.bincount(cols, weights=w[rows], minlength=cores)
    A = np.zeros((m, cores))
    A[rows, cols] = np.sqrt(inv_choose * w[rows] / W[cols])
    return P, A


def dense_factor(C):
    """The m x cores factor A of a chain of `build_downup`, scattered from
    its incidence."""
    A = np.zeros((len(C.states), len(C.W)))
    A[np.arange(len(C.states))[:, None], C.core_ids] = C.factor
    return A


def with_reference(mu, l):
    """The k<->l chain of mu and its P from `per_core_reference`."""
    return build_downup(mu, mu.n, mu.k, l), per_core_reference(mu, l)[0]


def dense_errors(C, P):
    """max|F - F^T| of the flow F = diag(pi) P of a dense P for the chain C,
    and ||sym(P) - A A^T||_F for the dense factor A of C."""
    F = C.pi[:, None] * P
    A = dense_factor(C)
    return float(np.max(np.abs(F - F.T))), float(np.linalg.norm(symmetrized(P, C.pi) - A @ A.T))


def holed_kernel():
    """A dense 7-block, rank-one 2- and 3-blocks (powers of two, so their
    2 x 2 minors are exactly 0) and a zero row: the support has holes, and
    at k = 3, l = 2 the cores have 7, 8, 9 or 10 supersets."""
    L = np.zeros((13, 13))
    L[:7, :7] = random_npsd(7, 3).entries
    L[7:9, 7:9] = np.outer([1.0, 2.0], [1.0, 2.0])
    L[9:12, 9:12] = np.outer([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
    return Kernel(L)


class TestFlatAssembly:
    @pytest.mark.parametrize(
        "K, k",
        [(random_npsd(12, 1), 4), (random_npsd(12, 2), 4), (random_npsd(10, 1), 5),
         (holed_kernel(), 3), (holed_kernel(), 4)],
        ids=["dense-12-4-s1", "dense-12-4-s2", "dense-10-5", "holed-13-3", "holed-13-4"],
    )
    def test_matches_per_core_blocks_bit_for_bit(self, K, k):
        # the factor bit for bit; the flow read off it, entry by entry, to
        # 1e-14 relative (1.6e-15 measured), with the same zeros
        mu = KernelDistribution(K, k)
        for l in range(k + 1):
            C = build_downup(mu, K.n, k, l)
            P, A = per_core_reference(mu, l)
            assert dense_factor(C).tobytes() == A.tobytes()
            assert np.allclose(C.flow(), C.pi[:, None] * P, rtol=1e-14, atol=0)

    def test_holed_kernel_has_uneven_cores(self):
        mu = KernelDistribution(holed_kernel(), 3)
        states = [S for S in combinations(range(13), 3) if mu.value(S) > 0.0]
        assert 0 < len(states) < math.comb(12, 3)  # holes besides the zero row's
        counts = {}
        for S in states:
            for core in combinations(S, 2):
                counts[core] = counts.get(core, 0) + 1
        assert set(counts.values()) == {7, 8, 9, 10}

    def test_small_blocks_change_nothing(self, monkeypatch):
        mu = KernelDistribution(holed_kernel(), 4)
        want = [build_downup(mu, 13, 4, l).flow().tobytes() for l in range(4)]
        monkeypatch.setattr(downup, "SCATTER_BLOCK", 1)  # one core per np.add.at
        assert [build_downup(mu, 13, 4, l).flow().tobytes() for l in range(4)] == want


class TestPeakMemory:
    def test_build_and_checks_peaks(self):
        # in units of one m x m float64 array: the build holds the incidence,
        # the checks the 220 x 220 core Gram matrix (0.2) and its scatter
        mu = KernelDistribution(random_npsd(12, 1), 4)
        mu.tabulate()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            C = build_downup(mu, 12, 4, 3)
            build_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            chain_checks(C, 12, 4, 3)
            checks_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        unit = 8 * len(C.states) ** 2
        assert not hasattr(C, "P")
        assert build_peak <= 0.25 * unit
        assert checks_peak <= 0.25 * unit


class TestSpectralGap:
    def test_identity_chain(self):
        C = build_downup(uniform(4, 2), 4, 2, 2)
        assert spectral_gap(C) == pytest.approx(0.0, abs=1e-12)

    def test_two_state_closed_form(self):
        p, q = 0.3, 0.2
        P = np.array([[1 - p, p], [q, 1 - q]])
        pi = np.array([q, p]) / (p + q)
        C = DenseChain([(0,), (1,)], P, pi)
        assert spectral_gap(C) == pytest.approx(p + q)

    def test_matches_independent_eigensolver(self):
        C, P = with_reference(uniform(4, 2), 1)
        ev = np.sort(np.real(np.linalg.eigvals(P)))
        assert spectral_gap(C) == pytest.approx(1.0 - ev[-2], abs=1e-9)

    def test_one_eigenproblem_per_chain(self, monkeypatch):
        # 35 states take conductance's Cheeger path, which reads the gap too
        C = build_downup(uniform(7, 3), 7, 3, 2)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: calls.append(1) or eigvalsh(A))
        rep = chain_checks(C, 7, 3, 2)
        assert not conductance(C).exact and "conductance_bounds" in rep
        assert spectral_gap(C) == rep["gap"]
        assert len(calls) == 1


CORE_SIDE_CHAINS = {
    "npsd12_l3": lambda: with_reference(KernelDistribution(random_npsd(12, 1), 4), 3),
    "npsd12_l2": lambda: with_reference(KernelDistribution(random_npsd(12, 1), 4), 2),
    "l0": lambda: with_reference(KernelDistribution(random_npsd(7, 2), 3), 0),
    "field_zeros": lambda: with_reference(
        apply_field(KernelDistribution(random_npsd(8, 5), 3), [0.0, 0.0, *random_field(6, seed=1)]),
        1,
    ),
    "restricted_table": lambda: with_reference(restricted_table(), 1),
    "lowrank": lambda: with_reference(KernelDistribution(lowrank_npsd(10, 4, 2), 3), 1),
    # 56 states under 70 cores: the state side
    "npsd8_l4": lambda: with_reference(KernelDistribution(random_npsd(8, 3), 5), 4),
}


def state_side_spectrum(P, pi):
    """The m x m eigensolve of the symmetrized P, written out."""
    return np.linalg.eigvalsh(symmetrized(P, pi))


# Two of the benchmark's seed-11 verify kernels at (12, 4), and the README's (7, 3).
VERIFY_SEEDS = [int(s) for s in np.random.default_rng([11, 3]).integers(2**31, size=2)]
DENSE_CHECK_CHAINS = {
    **{
        f"verify{i}_l{l}": (lambda s=s, l=l: with_reference(
            KernelDistribution(random_npsd(12, s), 4), l))
        for i, s in enumerate(VERIFY_SEEDS)
        for l in (2, 3)
    },
    **{
        f"readme_l{l}": (lambda l=l: with_reference(KernelDistribution(random_npsd(7, 1), 3), l))
        for l in (1, 2)
    },
}


class TestCoreSide:
    @pytest.mark.parametrize("name", sorted(CORE_SIDE_CHAINS))
    def test_matches_state_side(self, name):
        C, P = CORE_SIDE_CHAINS[name]()
        assert C.eig_dim == min(len(C.W), len(C.states))
        assert np.allclose(C.spectrum, state_side_spectrum(P, C.pi), rtol=0, atol=1e-12)
        rep = chain_checks(C)
        assert rep["ok"] and dense_errors(C, P)[1] <= 1e-10, rep

    @pytest.mark.parametrize("l, dim", [(1, 7), (2, 21)])
    def test_side_selection(self, l, dim, monkeypatch):
        # 35 states: 7 cores at l = 1, 21 at l = 2, both the core side
        C = build_downup(uniform(7, 3), 7, 3, l)
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: shapes.append(A.shape) or eigvalsh(A))
        rep = chain_checks(C)
        assert shapes == [(dim, dim)]
        assert rep["eig_dim"] == dim

    def test_state_side_when_cores_outnumber_states(self, monkeypatch):
        # 5 states under 10 cores: one 5 x 5 eigenproblem on A A^T
        C, P = with_reference(uniform(5, 4), 2)
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: shapes.append(A.shape) or eigvalsh(A))
        rep = chain_checks(C)
        assert shapes == [(5, 5)] and rep["eig_dim"] == 5
        assert np.allclose(C.spectrum, state_side_spectrum(P, C.pi), rtol=0, atol=1e-12)

    def test_factor_check_bites(self):
        C, P = with_reference(KernelDistribution(random_npsd(6, 3), 3), 1)
        i, j = 0, int(np.argmax(P[0, 1:])) + 1
        # move flow eps between F_ii and F_ij and likewise in row j: P stays
        # reversible, but is no longer A A^T
        eps = 1e-3 * C.pi[i] * P[i, j]
        P[i, i] += eps / C.pi[i]
        P[i, j] -= eps / C.pi[i]
        P[j, j] += eps / C.pi[j]
        P[j, i] -= eps / C.pi[j]
        rev_err, factor_err = dense_errors(C, P)
        assert rev_err <= 1e-10 and factor_err > 1e-10

    def test_perturbed_up_step_is_caught(self):
        # one entry of U moved by 1e-6: the row sums of the states under its
        # core and pi P move with it, and the report fails
        C = build_downup(KernelDistribution(random_npsd(6, 3), 3), 6, 3, 1)
        rep = chain_checks(C)
        assert rep["ok"] and rep["row_sum_err"] <= 1e-12 and rep["stationarity_err"] <= 1e-10
        C.up[0, 0] += 1e-6
        rep = chain_checks(C)
        assert rep["row_sum_err"] > 1e-7 and rep["stationarity_err"] > 1e-10
        assert not rep["ok"], rep


class TestDenseChecks:
    """The checks on a dense P that `chain_checks` does not run, on the
    benchmark's verify chains against the P of `per_core_reference`."""

    @pytest.mark.parametrize("name", sorted(DENSE_CHECK_CHAINS))
    def test_dense_checks_hold(self, name):
        C, P = DENSE_CHECK_CHAINS[name]()
        assert len(C.states) > downup.CONDUCTANCE_STATE_CAP
        rep = chain_checks(C)
        assert not hasattr(C, "P")
        assert "reversibility_err" not in rep and "factor_err" not in rep
        rev_err, factor_err = dense_errors(C, P)
        assert rev_err <= 1e-10 and factor_err <= 1e-10
        assert np.max(np.abs(C.row_sums() - P.sum(axis=1))) <= 1e-15
        assert np.max(np.abs(C.pi_P() - C.pi @ P)) <= 1e-15
        assert rep["ok"], rep


class TestConductance:
    def test_two_state_symmetric(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        C = DenseChain([(0,), (1,)], P, np.array([0.5, 0.5]))
        res = conductance(C)
        assert res.exact and res.value == pytest.approx(0.5)

    def test_cheeger_sandwich(self):
        mu = KernelDistribution(random_npsd(6, 13), 2)
        C = build_downup(mu, 6, 2, 1)
        res = conductance(C)
        gap = spectral_gap(C)
        assert res.exact
        assert cheeger_ok(gap, res)
        assert res.value**2 / 2 <= gap + 1e-9 <= 2 * res.value + 1e-9

    def test_disconnected_support(self):
        mu = TableDistribution(4, 2, {(0, 1): 1.0, (2, 3): 1.0})
        C = build_downup(mu, 4, 2, 1)
        res = conductance(C)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert spectral_gap(C) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", list(CUT_CHAINS))
    def test_matches_brute_force(self, name):
        C = CUT_CHAINS[name]()
        res = conductance(C)
        want = brute_conductance(C)
        assert res.exact
        if want == 0.0:
            assert res.value == pytest.approx(0.0, abs=1e-15)
        else:
            assert res.value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", list(FULL_GRID_CHAINS))
    def test_matches_full_grid(self, name):
        # the staircase prices the same cuts as the full grid, bit for bit
        C = FULL_GRID_CHAINS[name]()
        res = conductance(C)
        assert res.exact and res.value == full_grid_conductance(C)

    def test_row_blocks_match_one_block(self, monkeypatch):
        production = downup.CUT_BLOCK
        C = CUT_CHAINS["m20"]()
        monkeypatch.setattr(downup, "CUT_BLOCK", 1 << 30)
        whole = conductance(C).value
        monkeypatch.setattr(downup, "CUT_BLOCK", 1)
        assert conductance(C).value == whole
        # where the block size moves the minimum, it moves it in the last bits
        for n, s, k, l in BLOCK_SENSITIVE:
            C = build_downup(KernelDistribution(random_npsd(n, s), k), n, k, l)
            values = []
            for block in (1, production, 1 << 30):
                monkeypatch.setattr(downup, "CUT_BLOCK", block)
                values.append(conductance(C).value)
            assert max(values) - min(values) <= CUT_ULPS * np.spacing(max(values)), values

    def test_capacity_returns_flagged_bounds(self, monkeypatch):
        mu = KernelDistribution(random_npsd(6, 13), 2)
        C = build_downup(mu, 6, 2, 1)
        monkeypatch.setattr(downup, "CONDUCTANCE_STATE_CAP", 5)
        res = conductance(C)
        gap = spectral_gap(C)
        assert not res.exact and res.value is None
        assert res.lower == pytest.approx(gap / 2)
        assert res.upper == pytest.approx(math.sqrt(2 * gap))


class TestSampleWalk:
    def test_k_equals_l_constant(self):
        mu = uniform(5, 2)
        traj = sample_walk(mu, (1, 3), 2, 50, seed=0)
        assert traj == [(1, 3)] * 51

    @pytest.mark.parametrize("field", [False, True], ids=["kernel", "field"])
    def test_k_equals_l_constant_on_kernels(self, field):
        traj = sample_walk(kernel_or_field(field), (0, 3, 5), 3, 50, seed=0)
        assert traj == [(0, 3, 5)] * 51

    def test_reproducible_per_seed(self):
        mu = KernelDistribution(random_npsd(6, 17), 3)
        a = sample_walk(mu, (0, 1, 2), 1, 200, seed=42)
        b = sample_walk(mu, (0, 1, 2), 1, 200, seed=42)
        c = sample_walk(mu, (0, 1, 2), 1, 200, seed=43)
        assert a == b
        assert a != c

    def test_uniform_frequencies(self):
        mu = uniform(5, 2)
        traj = sample_walk(mu, (0, 1), 1, 20000, seed=7)
        states = list(combinations(range(5), 2))
        emp = empirical_density(traj, states)
        assert tv_distance(emp, np.full(len(states), 0.1)) < 0.05

    @pytest.mark.parametrize("seed", [17, 5])
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_stream_matches_reference_walk(self, seed, l, monkeypatch):
        mu = KernelDistribution(random_npsd(6, seed), 3)
        steps = 2 * downup.WALK_BLOCK + 3
        ref = reference_walk(mu, (0, 1, 2), l, steps, seed)
        assert sample_walk(mu, (0, 1, 2), l, steps, seed) == ref
        monkeypatch.setattr(downup, "WALK_BLOCK", 7)
        assert sample_walk(mu, (0, 1, 2), l, steps, seed) == ref

    @pytest.mark.parametrize("seed", [17, 5])
    @pytest.mark.parametrize("l", [0, 2, 3, 5])
    def test_stream_matches_reference_walk_at_k5(self, seed, l, monkeypatch):
        # at k = 5 the colex and lex orders of the kept-position patterns differ
        mu = KernelDistribution(random_npsd(7, seed), 5)
        steps = 2 * downup.WALK_BLOCK + 3
        ref = reference_walk(mu, (0, 1, 2, 3, 4), l, steps, seed)
        assert sample_walk(mu, (0, 1, 2, 3, 4), l, steps, seed) == ref
        monkeypatch.setattr(downup, "WALK_BLOCK", 7)
        assert sample_walk(mu, (0, 1, 2, 3, 4), l, steps, seed) == ref

    def test_field_stream_matches_reference_walk(self, monkeypatch):
        # a deleted and a forced element: the walk prices through the field's completions
        base = KernelDistribution(random_npsd(7, 3), 4)
        nu = apply_field(base, [0.0, math.inf, *random_field(5, seed=6)])
        steps = 2 * downup.WALK_BLOCK + 3
        ref = reference_walk(nu, (1, 2, 3, 4), 2, steps, 6)
        assert len(set(ref)) > 1
        assert sample_walk(nu, (1, 2, 3, 4), 2, steps, 6) == ref
        monkeypatch.setattr(downup, "WALK_BLOCK", 7)
        assert sample_walk(nu, (1, 2, 3, 4), 2, steps, 6) == ref

    def test_states_found_after_the_first_block(self, monkeypatch):
        # the five sets holding element 5 are rare: at seed 36 the walk meets
        # three of them first at steps 5421-5425, past the first WALK_BLOCK
        table = {S: (2e-4 if 5 in S else 1.0) for S in combinations(range(6), 2)}
        mu = TableDistribution(6, 2, table)
        steps = 2 * downup.WALK_BLOCK + 3
        ref = reference_walk(mu, (0, 1), 1, steps, 36)
        first = {}
        for t, S in enumerate(ref):
            first.setdefault(S, t)
        assert max(first.values()) > downup.WALK_BLOCK
        assert sample_walk(mu, (0, 1), 1, steps, 36) == ref
        monkeypatch.setattr(downup, "WALK_BLOCK", 7)
        assert sample_walk(mu, (0, 1), 1, steps, 36) == ref

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_one_completions_call_per_core(self, l):
        mu = CountingKernel(random_npsd(7, 4), 3)
        S0, steps, seed = (0, 2, 5), 3000, 9
        traj = sample_walk(mu, S0, l, steps, seed)
        rng = np.random.default_rng(seed)
        cores = {}  # the retained cores in order of first appearance
        for S in traj[:-1]:
            u = rng.random(4)
            cores.setdefault(tuple(sorted(S[i] for i in np.argsort(u[:3], kind="stable")[:l])))
        # the first call is mu.value(S0), the check that S0 is in the support
        assert mu.cores[0] == () and mu.arrays[0].tolist() == [list(S0)]
        assert mu.cores[1:] == list(cores)

    @pytest.mark.parametrize(
        "l", [1.5, 1.0, True, np.float64(1.0), "1"], ids=["1.5", "1.0", "True", "f64", "str"]
    )
    def test_non_integer_l_rejected(self, l):
        with pytest.raises(DomainError, match="l must be an integer"):
            sample_walk(uniform(5, 2), (0, 1), l, 3, seed=0)
        with pytest.raises(DomainError, match="l must be an integer"):
            build_downup(uniform(5, 2), 5, 2, l)

    @pytest.mark.parametrize(
        "steps", [3.0, 2.5, True, False, np.float64(3.0)], ids=["3.0", "2.5", "True", "False", "f64"]
    )
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(DomainError, match="steps must be an integer"):
            sample_walk(uniform(5, 2), (0, 1), 1, steps, seed=0)

    def test_numpy_integers_accepted(self):
        mu = uniform(5, 2)
        assert sample_walk(mu, (0, 1), np.int64(1), np.int32(40), 3) == sample_walk(
            mu, (0, 1), 1, 40, 3
        )
        C = build_downup(mu, np.int64(5), np.int32(2), np.int8(1))
        assert C.states == build_downup(mu, 5, 2, 1).states

    @pytest.mark.parametrize("l", [1, 2])
    def test_negative_steps_rejected(self, l):
        with pytest.raises(DomainError, match="steps must be nonnegative"):
            sample_walk(uniform(5, 2), (0, 1), l, -1, seed=0)

    def test_trapped_core_raises(self):
        u = np.random.default_rng(0).random(4)
        core = tuple(sorted((0, 2, 4)[i] for i in np.argsort(u[:3], kind="stable")[:2]))
        with pytest.raises(TrappedStateError) as exc:
            sample_walk(ZeroCompletions(5, 3), (0, 2, 4), 2, 10, seed=0)
        assert exc.value.state == core

    def test_zero_start_rejected(self):
        mu = TableDistribution(4, 2, {(0, 1): 1.0})
        with pytest.raises(DomainError):
            sample_walk(mu, (2, 3), 1, 10, seed=0)

    def test_nan_start_rejected(self):
        table = {S: 1.0 for S in combinations(range(5), 2)}
        table[(0, 1)] = math.nan
        with pytest.raises(DomainError, match="support"):
            sample_walk(TableDistribution(5, 2, table), (0, 1), 1, 10, seed=0)

    def test_mu_past_float64_is_capacity(self):
        # mu({0, 1}) = 1e400 overflows to inf; the up-step from {0} or {1}
        # sums to inf, which was an IndexError
        mu = KernelDistribution(Kernel(np.diag([1e200, 1e200, 1.0, 2.0])), 2)
        with pytest.raises(CapacityError, match="sums to inf"):
            sample_walk(mu, (2, 3), 1, 50, 0)

    def test_wrong_size_start_rejected(self):
        mu = KernelDistribution(random_npsd(6, 17), 3)
        with pytest.raises(DomainError):
            sample_walk(mu, (0, 1), 1, 10, seed=0)


class TestEmpiricalDensity:
    def test_visit_frequencies_in_states_order(self):
        traj = [(1, 2), (0, 1), (1, 2), (1, 2)]
        emp = empirical_density(traj, [(0, 1), (0, 2), (1, 2)])
        assert emp.tolist() == [0.25, 0.0, 0.75]

    def test_state_outside_states_rejected(self):
        with pytest.raises(DomainError, match="outside the enumerated states"):
            empirical_density([(0, 1), (2, 3)], [(0, 1), (1, 2)])

    def test_repeated_states_rejected(self):
        with pytest.raises(DomainError, match="states repeat"):
            empirical_density([(0, 1)], [(0, 1), (0, 1)])


class TestTvDistance:
    def test_equal(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_direct_formula(self):
        assert tv_distance([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.25)

    def test_mismatched_lengths(self):
        with pytest.raises(DomainError):
            tv_distance([1.0], [0.5, 0.5])

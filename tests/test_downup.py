import math
from itertools import chain, combinations

import numpy as np
import pytest

from ndppmap import (
    ChainMatrix,
    DomainError,
    InfeasibilityError,
    KernelDistribution,
    TableDistribution,
    UniformDistribution,
    apply_field,
    build_downup,
    conductance,
    sample_walk,
    spectral_gap,
    tv_distance,
)
from ndppmap import downup
from ndppmap.downup import chain_checks, cheeger_ok, empirical_density
from ndppmap.instances import random_field, random_npsd


def brute_conductance(C):
    """min Q(S, S^c) / pi(S) over the nonempty cuts with pi(S) <= 1/2, each
    size's cuts enumerated with itertools and each cut's flow summed by
    definition over its crossing pairs (0 when no cut qualifies)."""
    m = len(C.states)
    F = C.pi[:, None] * C.P
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


def random_chain(m, seed):
    """Row-stochastic P with an unrelated density pi, so F = diag(pi) P is
    not symmetric."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(size=(m, m))
    pi = rng.uniform(0.5, 2.0, size=m)
    return ChainMatrix([(i,) for i in range(m)], P / P.sum(axis=1, keepdims=True), pi / pi.sum())


CUT_CHAINS = {
    "m1": lambda: build_downup(TableDistribution(3, 2, {(0, 1): 1.0}), 3, 2, 1),
    "m2": lambda: random_chain(2, 1),
    "m3": lambda: build_downup(UniformDistribution(3, 2), 3, 2, 1),
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


def choice_walk(mu, S0, l, steps, seed):
    """Reference down-up walk that draws each up-step with Generator.choice."""
    rng = np.random.default_rng(seed)
    k = len(S0)
    cur, traj, cache = S0, [S0], {}
    for _ in range(steps):
        keep_idx = rng.choice(k, size=l, replace=False)
        core = tuple(sorted(cur[i] for i in keep_idx))
        if core not in cache:
            rest = [i for i in range(mu.n) if i not in core]
            cands = [tuple(sorted(core + extra)) for extra in combinations(rest, k - l)]
            wts = np.array([max(mu.value(S), 0.0) for S in cands])
            cache[core] = (cands, wts / wts.sum())
        cands, probs = cache[core]
        cur = cands[rng.choice(len(cands), p=probs)]
        traj.append(cur)
    return traj


class TestApplyField:
    def test_all_ones_identity(self):
        mu = KernelDistribution(random_npsd(5, 1), 2)
        nu = apply_field(mu, np.ones(5))
        for S in combinations(range(5), 2):
            assert nu.value(S) == pytest.approx(mu.value(S))

    def test_zero_entry_deletes(self):
        mu = UniformDistribution(4, 2)
        nu = apply_field(mu, [0.0, 1.0, 1.0, 1.0])
        assert nu.value((0, 1)) == 0.0
        assert nu.value((1, 2)) == 1.0

    def test_infinite_entry_forces(self):
        mu = UniformDistribution(4, 2)
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

    def test_empty_support_rejected(self):
        mu = UniformDistribution(4, 2)
        with pytest.raises(InfeasibilityError):
            apply_field(mu, [0.0, 0.0, 0.0, 0.0])

    def test_negative_field_rejected(self):
        mu = UniformDistribution(4, 2)
        for bad in (-1.0, math.nan):
            with pytest.raises(DomainError):
                apply_field(mu, [bad, 1.0, 1.0, 1.0])


class TestBuildDownup:
    def test_uniform_three_states(self):
        C = build_downup(UniformDistribution(3, 2), 3, 2, 1)
        # each off-diagonal neighbor reached with prob 1/2 * 1/2, self-loop 1/2
        expect = np.full((3, 3), 0.25)
        np.fill_diagonal(expect, 0.5)
        assert np.allclose(C.P, expect)
        assert np.allclose(C.pi, 1.0 / 3.0)

    def test_k_equals_l_identity(self):
        C = build_downup(UniformDistribution(4, 2), 4, 2, 2)
        assert np.array_equal(C.P, np.eye(6))

    def test_stationarity_seeded(self):
        mu = KernelDistribution(random_npsd(6, 8), 3)
        C = build_downup(mu, 6, 3, 1)
        assert np.max(np.abs(C.pi @ C.P - C.pi)) <= 1e-10

    def test_chain_validity_checks(self):
        mu = KernelDistribution(random_npsd(7, 3), 3)
        for l in (1, 2):
            rep = chain_checks(build_downup(mu, 7, 3, l), 7, 3, l)
            assert rep["ok"], rep
            assert rep["gap"] > 0.0

    def test_n_k_must_match_mu(self):
        mu = UniformDistribution(5, 2)
        with pytest.raises(DomainError):
            build_downup(mu, 6, 2, 1)
        with pytest.raises(DomainError):
            build_downup(mu, 5, 3, 1)

    def test_field_commutation(self):
        mu = KernelDistribution(random_npsd(6, 11), 2)
        lam = random_field(6, seed=5)
        nu = apply_field(mu, lam)
        C = build_downup(nu, 6, 2, 1)
        expect = np.array([nu.value(S) for S in C.states])
        assert np.allclose(C.pi, expect / expect.sum(), atol=1e-12)


class TestSpectralGap:
    def test_identity_chain(self):
        C = build_downup(UniformDistribution(4, 2), 4, 2, 2)
        assert spectral_gap(C) == pytest.approx(0.0, abs=1e-12)

    def test_two_state_closed_form(self):
        p, q = 0.3, 0.2
        P = np.array([[1 - p, p], [q, 1 - q]])
        pi = np.array([q, p]) / (p + q)
        C = ChainMatrix([(0,), (1,)], P, pi)
        assert spectral_gap(C) == pytest.approx(p + q)

    def test_matches_independent_eigensolver(self):
        C = build_downup(UniformDistribution(4, 2), 4, 2, 1)
        ev = np.sort(np.real(np.linalg.eigvals(C.P)))
        assert spectral_gap(C) == pytest.approx(1.0 - ev[-2], abs=1e-9)

    def test_one_eigenproblem_per_chain(self, monkeypatch):
        # 35 states take conductance's Cheeger path, which reads the gap too
        C = build_downup(UniformDistribution(7, 3), 7, 3, 2)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: calls.append(1) or eigvalsh(A))
        rep = chain_checks(C, 7, 3, 2)
        assert not conductance(C).exact and "conductance_bounds" in rep
        assert spectral_gap(C) == rep["gap"]
        assert len(calls) == 1


class TestConductance:
    def test_two_state_symmetric(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        C = ChainMatrix([(0,), (1,)], P, np.array([0.5, 0.5]))
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

    def test_row_blocks_match_one_block(self, monkeypatch):
        C = CUT_CHAINS["m20"]()
        monkeypatch.setattr(downup, "CUT_BLOCK", 1 << 30)
        whole = conductance(C).value
        monkeypatch.setattr(downup, "CUT_BLOCK", 1)
        assert conductance(C).value == whole

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
        mu = UniformDistribution(5, 2)
        traj = sample_walk(mu, (1, 3), 2, 50, seed=0)
        assert traj == [(1, 3)] * 51

    def test_reproducible_per_seed(self):
        mu = KernelDistribution(random_npsd(6, 17), 3)
        a = sample_walk(mu, (0, 1, 2), 1, 200, seed=42)
        b = sample_walk(mu, (0, 1, 2), 1, 200, seed=42)
        c = sample_walk(mu, (0, 1, 2), 1, 200, seed=43)
        assert a == b
        assert a != c

    def test_uniform_frequencies(self):
        mu = UniformDistribution(5, 2)
        traj = sample_walk(mu, (0, 1), 1, 20000, seed=7)
        states = list(combinations(range(5), 2))
        emp = empirical_density(traj, states)
        assert tv_distance(emp, np.full(len(states), 0.1)) < 0.05

    @pytest.mark.parametrize("seed", [17, 5])
    @pytest.mark.parametrize("l", [1, 2])
    def test_stream_matches_choice_walk(self, seed, l):
        mu = KernelDistribution(random_npsd(6, seed), 3)
        assert sample_walk(mu, (0, 1, 2), l, 2000, seed) == choice_walk(mu, (0, 1, 2), l, 2000, seed)

    def test_zero_start_rejected(self):
        mu = TableDistribution(4, 2, {(0, 1): 1.0})
        with pytest.raises(DomainError):
            sample_walk(mu, (2, 3), 1, 10, seed=0)

    def test_wrong_size_start_rejected(self):
        mu = KernelDistribution(random_npsd(6, 17), 3)
        with pytest.raises(DomainError):
            sample_walk(mu, (0, 1), 1, 10, seed=0)


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

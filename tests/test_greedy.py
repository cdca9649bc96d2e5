from math import comb

import numpy as np
import pytest

from ndppmap import (
    DomainError,
    InfeasibilityError,
    Kernel,
    KernelDistribution,
    SetDistribution,
    TableDistribution,
    brute_force_map,
    charpoly,
    induced_greedy,
    principal_minor,
    standard_greedy,
)
from ndppmap.instances import lowrank_npsd, random_npsd, skew_block


class PerCandidate(KernelDistribution):
    """A kernel distribution priced by the base class: one marginal per candidate."""

    step_marginals = SetDistribution.step_marginals


def relabelled_skew_block(seed):
    c = [5.0, 4.0, 3.0, 2.0, 1.5]
    x = [60.0, 61.0, 62.0, 63.0, 130.0]
    perm = np.random.default_rng(seed).permutation(10)
    return Kernel(skew_block(c, x).entries[np.ix_(perm, perm)])


STEP_KERNELS = {
    "dense": (lambda: random_npsd(24, 5), 6),
    "lowrank-k-le-d": (lambda: lowrank_npsd(24, 12, 5), 6),
    "lowrank-k-eq-d": (lambda: lowrank_npsd(16, 3, 5), 3),
    "lowrank-k-gt-d": (lambda: lowrank_npsd(16, 3, 5), 4),
    # Steps with t near the numerical rank of L^S, where the polynomial in
    # L^S cancels (with no guard it lost up to 0.8 and 2e-6 of the largest
    # marginal), so the step is priced from the eigenbasis.
    "dense-k-near-n": (lambda: random_npsd(24, 1), 18),
    "lowrank-k-eq-d-wide": (lambda: lowrank_npsd(40, 10, 5), 10),
    "skew-block": (lambda: skew_block([4, 3, 2], [100, 200, 300]), 4),
    "relabelled-skew-block": (lambda: relabelled_skew_block(3), 4),
}


def assert_same_greedy(K, k, fast, ref):
    """The same pick indices, final set and final value, with each pick's
    value within 1e-12 of the largest |marginal| of its step."""
    assert [i for i, _ in fast.picks] == [i for i, _ in ref.picks]
    assert (fast.final_set, fast.final_value) == (ref.final_set, ref.final_value)
    per_candidate, S = PerCandidate(K, k), ()
    for (i, got), (_, want) in zip(fast.picks, ref.picks):
        _, vals, _ = per_candidate.step_marginals(S)
        assert abs(got - want) <= 1e-12 * max(abs(v) for v in vals)
        S = tuple(sorted(S + (i,)))


class TestStepMarginals:
    @pytest.mark.parametrize("name", STEP_KERNELS)
    def test_matches_per_candidate_marginals(self, name):
        make, k = STEP_KERNELS[name]
        K = make()
        mu = KernelDistribution(K, k)
        S = ()
        for _ in range(k):
            cands, vals, _ = mu.step_marginals(S)
            ref_cands, want, _ = PerCandidate(K, k).step_marginals(S)
            assert cands == ref_cands
            scale = max(abs(v) for v in want)
            assert np.abs(np.subtract(vals, want)).max() <= 1e-12 * scale
            best = max(want)
            if best <= 0.0:
                assert K.rank_d is not None and k > K.rank_d
                return
            S = tuple(sorted(S + (cands[want.index(best)],)))

    @pytest.mark.parametrize("name", [n for n in STEP_KERNELS if n != "lowrank-k-gt-d"])
    def test_same_greedy_as_per_candidate(self, name):
        make, k = STEP_KERNELS[name]
        K = make()
        fast, ref = induced_greedy(KernelDistribution(K, k)), induced_greedy(PerCandidate(K, k))
        assert_same_greedy(K, k, fast, ref)
        assert ref.per_candidate_steps == k and ref.conditioned_steps == 0

    def test_one_step_marginals_call_per_step(self, monkeypatch):
        mu = KernelDistribution(random_npsd(12, 4), 5)
        calls, marginals = [], []
        original = mu.step_marginals
        monkeypatch.setattr(mu, "step_marginals", lambda S: calls.append(S) or original(S))
        superset = charpoly.superset_marginal
        monkeypatch.setattr(
            charpoly, "superset_marginal", lambda *a: marginals.append(a) or superset(*a)
        )
        spectra, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: spectra.append(len(M)) or eigvals(M))
        for name in ("eig", "inv"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name: pytest.fail(name))
        trace = induced_greedy(mu)
        assert len(calls) == 5
        assert marginals == []  # a conditioned step prices no candidate on its own
        assert spectra == []  # every step reads its coefficients off its own products
        assert trace.conditioned_steps == 5 and trace.per_candidate_steps == 0

    def test_dense_n400_greedy_reads_no_spectrum(self, monkeypatch):
        # Every step of this greedy is accepted by the polynomial's guard, so
        # none takes a spectrum; the picks are pinned.
        mu = KernelDistribution(random_npsd(400, 1), 8)
        for name in ("eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name: pytest.fail(name))
        trace = induced_greedy(mu)
        assert [i for i, _ in trace.picks] == [298, 166, 246, 110, 129, 153, 63, 389]
        assert trace.final_set == (63, 110, 129, 153, 166, 246, 298, 389)
        assert trace.conditioned_steps == 8

    def test_singular_pin_falls_back(self):
        # A skew-symmetric kernel has a zero diagonal, so L_S of the first
        # pick is singular and every later odd-size pin is too.
        M = np.random.default_rng(9).normal(size=(10, 10))
        K = Kernel(M - M.T)
        fast, ref = induced_greedy(KernelDistribution(K, 4)), induced_greedy(PerCandidate(K, 4))
        assert_same_greedy(K, 4, fast, ref)
        assert fast.per_candidate_steps >= 1
        assert fast.conditioned_steps + fast.per_candidate_steps == 4

    def test_defective_kernel_is_conditioned(self):
        # I plus a strictly upper triangle of ones: every L^S is again unit
        # upper triangular, one Jordan block with no eigenbasis, and every
        # principal minor is 1. The step reads no eigenvector, so all three
        # steps are conditioned, and each marginal counts its supersets:
        # C(n - |S| - 1, t - 1) = 10, 4 and 1, exactly.
        K = Kernel(np.eye(6) + np.triu(np.ones((6, 6)), 1))
        mu = KernelDistribution(K, 3)
        fast, ref = induced_greedy(mu), induced_greedy(PerCandidate(K, 3))
        assert fast.picks == ref.picks and fast.final_set == (0, 1, 2)
        assert fast.per_candidate_steps == 0 and fast.conditioned_steps == 3
        for S, want in (((), 10.0), ((0,), 4.0), ((0, 1), 1.0)):
            cands, vals, conditioned = mu.step_marginals(S)
            assert conditioned and vals == [want] * len(cands)


class TestInducedGreedy:
    def test_identity_picks_prefix(self):
        K = Kernel(np.eye(5))
        for k in (1, 2, 3):
            trace = induced_greedy(KernelDistribution(K, k))
            assert trace.final_set == tuple(range(k))
            assert trace.final_value == pytest.approx(1.0)

    def test_crude_bound_seeded(self):
        K = random_npsd(8, seed=31)
        mu = KernelDistribution(K, 3)
        trace = induced_greedy(mu)
        _, opt = brute_force_map(mu, 8, 3)
        assert comb(8, 3) * trace.final_value >= opt * (1 - 1e-9)

    def test_skew_block_sees_the_heavy_pair(self):
        # the marginal oracle weights each item by all pairs through it, so
        # the heaviest complementary pair wins immediately
        K = skew_block([4, 3, 2], [100, 200, 300])
        mu = KernelDistribution(K, 2)
        trace = induced_greedy(mu)
        assert trace.final_set == (4, 5)

    def test_zero_distribution_infeasible(self):
        K = Kernel(np.zeros((4, 4)))
        with pytest.raises(InfeasibilityError):
            induced_greedy(KernelDistribution(K, 2))

    def test_nan_marginal_never_wins(self):
        # (0, 1) is NaN, so the marginals of 0 and 1 are NaN and come first;
        # the true maximum is (2, 3).
        mu = TableDistribution(4, 2, {(0, 1): np.nan, (0, 2): 1.0, (2, 3): 5.0})
        trace = induced_greedy(mu)
        assert trace.picks == [(2, 6.0), (3, 5.0)]
        assert (trace.final_set, trace.final_value) == brute_force_map(mu, 4, 2)

    def test_all_nan_marginals_infeasible(self):
        with pytest.raises(InfeasibilityError):
            induced_greedy(TableDistribution(3, 2, {(0, 1): np.nan, (1, 2): np.nan}))

    def test_trace_value_recomputed(self):
        K = random_npsd(6, seed=3)
        mu = KernelDistribution(K, 3)
        trace = induced_greedy(mu)
        assert trace.final_value == pytest.approx(mu.value(trace.final_set), rel=1e-8)
        assert len(trace.picks) == 3

    def test_per_step_marginal_identity(self):
        # mu(S_j) = 1/(k-j) * sum over i outside of mu(S_j + i), by counting
        K = random_npsd(8, seed=12)
        mu = KernelDistribution(K, 3)
        trace = induced_greedy(mu)
        S = ()
        for j, (pick, _) in enumerate(trace.picks):
            if j < 2:  # identity only meaningful while |S| < k
                lhs = mu.marginal(S)
                rhs = sum(
                    mu.marginal(tuple(sorted(S + (i,)))) for i in range(8) if i not in S
                ) / (3 - len(S))
                assert lhs == pytest.approx(rhs, rel=1e-7)
            S = tuple(sorted(S + (pick,)))


class TestStandardGreedy:
    @pytest.mark.parametrize(
        "greedy, mu",
        [
            (standard_greedy, KernelDistribution(lowrank_npsd(4, 3, 10), 6)),
            (induced_greedy, KernelDistribution(lowrank_npsd(4, 3, 10), 6)),
            (standard_greedy, TableDistribution(4, 6, {})),
        ],
        ids=["standard-kernel", "induced-kernel", "standard-table"],
    )
    def test_k_above_n_is_a_domain_error(self, greedy, mu):
        # k > n is a legal, empty mu, but no greedy can pick k elements
        with pytest.raises(DomainError, match="k <= n"):
            greedy(mu)

    @pytest.mark.parametrize(
        "K", [random_npsd(16, 2), skew_block([5, 4, 3, 2], [100, 200, 300, 400])],
        ids=["dense", "skew-block"],
    )
    def test_batched_step_equals_principal_minors(self, K):
        trace = standard_greedy(KernelDistribution(K, 4))
        S = ()
        for pick, val in trace.picks:
            vals = {i: principal_minor(K, S + (i,)) for i in range(K.n) if i not in S}
            best = max(vals.values())
            assert (pick, val) == (min(i for i, v in vals.items() if v == best), best)
            S = tuple(sorted(S + (pick,)))

    def test_table_follows_argmax_rule(self):
        # A table has mass only on size-k sets, so the first step ties at 0
        # and takes the smallest index; the last step takes the argmax.
        mu = TableDistribution(5, 2, {(0, 3): 2.0, (0, 4): 7.0, (1, 2): 9.0})
        trace = standard_greedy(mu)
        assert trace.picks == [(0, 0.0), (4, 7.0)]
        assert (trace.final_set, trace.final_value) == ((0, 4), 7.0)

    def test_nan_set_never_wins(self):
        # The first step ties at 0 and takes 0; then (0, 1) is NaN, ahead of
        # the largest value left, (0, 2).
        mu = TableDistribution(4, 2, {(0, 1): np.nan, (0, 2): 1.0, (2, 3): 5.0})
        assert standard_greedy(mu).picks == [(0, 0.0), (2, 1.0)]

    def test_diagonal(self):
        trace = standard_greedy(KernelDistribution(Kernel(np.diag([5.0, 4.0, 3.0])), 2))
        assert trace.final_set == (0, 1)
        assert trace.final_value == pytest.approx(20.0)

    def test_skew_block_failure(self):
        # picks the first blocks while the optimum is the last two blocks
        K = skew_block([5, 4, 3, 2], [100, 200, 300, 400])
        trace = standard_greedy(KernelDistribution(K, 4))
        assert trace.final_set == (0, 1, 2, 3)
        mu = KernelDistribution(K, 4)
        opt_set, opt = brute_force_map(mu, 8, 4)
        assert opt_set == (4, 5, 6, 7)
        assert opt > trace.final_value

    def test_skew_symmetric_zero_determinant(self):
        # L_00 is the only nonzero diagonal entry and item 0 has no couplings,
        # so after grabbing it every pair extension ties at det 0 and greedy
        # falls back to the arbitrary smallest index, ending on a zero set
        L = np.zeros((4, 4))
        L[0, 0] = 1.0
        L[2, 3], L[3, 2] = 5.0, -5.0
        trace = standard_greedy(KernelDistribution(Kernel(L), 2))
        assert trace.final_set == (0, 1)
        assert trace.final_value == pytest.approx(0.0)
        opt_set, opt = brute_force_map(KernelDistribution(Kernel(L), 2), 4, 2)
        assert opt_set == (2, 3)
        assert opt == pytest.approx(25.0)  # the skew pair has det x^2

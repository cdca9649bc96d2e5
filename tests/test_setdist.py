"""SetDistribution.completions, the one route that prices mu(core u D) over
the size-s D of a pool, and the callers that read it."""

import math
from itertools import combinations

import numpy as np
import pytest

from ndppmap import (
    ConditioningError,
    Kernel,
    KernelDistribution,
    SetDistribution,
    TableDistribution,
    condition_on,
    kernel_table,
    principal_minor,
    sample_walk,
)
from ndppmap import setdist
from ndppmap.instances import lowrank_npsd, random_npsd, sym_psd


def skew_kernel(n, seed):
    """L_ii = 0, so every one-element core is singular."""
    M = np.random.default_rng(seed).normal(size=(n, n))
    return Kernel(M - M.T)


class CountingKernel(KernelDistribution):
    """Records the core of every completions call and counts value calls."""

    def __init__(self, kernel, k):
        super().__init__(kernel, k)
        self.cores, self.values = [], 0

    def completions(self, core, pool, s):
        self.cores.append(core)
        return super().completions(core, pool, s)

    def value(self, S):
        self.values += 1
        return super().value(S)


class TestCompletions:
    @pytest.mark.parametrize(
        "K",
        [random_npsd(9, 3), lowrank_npsd(9, 6, 4), sym_psd(9, 5)],
        ids=["dense", "lowrank", "sym_psd"],
    )
    def test_kernel_route_matches_enumeration(self, K):
        mu = KernelDistribution(K, 5)
        for core in [(), (4,), (0, 7), (1, 3, 8)]:
            pool = [i for i in range(9) if i not in core]
            for s in range(4):
                got = mu.completions(core, pool, s)
                want = SetDistribution.completions(mu, core, pool, s)
                assert got.shape == want.shape == (math.comb(len(pool), s),)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_singular_core_falls_back(self):
        K = skew_kernel(7, 19)
        with pytest.raises(ConditioningError):
            condition_on(K, (2,))
        mu = KernelDistribution(K, 3)
        pool = [0, 1, 3, 4, 5, 6]
        want = [principal_minor(K, (2,) + D) for D in combinations(pool, 2)]
        assert mu.completions((2,), pool, 2).tolist() == want

    @pytest.mark.parametrize("n, k", [(7, 3), (6, 0), (5, 5), (4, 6)])
    def test_empty_core_is_the_table(self, n, k):
        K = lowrank_npsd(n, 3, n + k)
        mu = KernelDistribution(K, k)
        sets = list(combinations(range(n), k))
        enumerated = np.fromiter(map(mu.value, sets), float)
        assert np.array_equal(SetDistribution.completions(mu, (), range(n), k), enumerated)
        # the kernel route is one batched determinant over the sets
        S = np.array(sets, dtype=np.intp).reshape(len(sets), k)
        batched = np.linalg.det(K.entries[S[:, :, None], S[:, None, :]])
        assert np.array_equal(mu.completions((), range(n), k), batched)
        assert np.array_equal(kernel_table(K, k), batched)

    @pytest.mark.parametrize(
        "mu",
        [
            KernelDistribution(random_npsd(6, 2), 3),
            TableDistribution(6, 3, {(0, 2, 4): 2.5, (0, 1, 2): 1.0}),
        ],
        ids=["kernel", "table"],
    )
    def test_edge_sizes(self, mu):
        core, pool = (0, 2, 4), [1, 3, 5]
        assert mu.completions(core, pool, 0).tolist() == [mu.value(core)]
        empty = mu.completions(core, pool, 4)
        assert empty.dtype == float and empty.shape == (0,)

    def test_base_marginal_sums_left_to_right(self):
        mu = KernelDistribution(random_npsd(8, 1), 4)
        table = TableDistribution(8, 4, dict(zip(combinations(range(8), 4), mu.tabulate())))
        for Y in [(), (2,), (1, 5), (0, 3, 6)]:
            want = 0.0
            for extra in combinations([i for i in range(8) if i not in Y], 4 - len(Y)):
                want += table.value(Y + extra)
            assert table.marginal(Y) == want
            assert want == pytest.approx(mu.marginal(Y), rel=1e-9)

    def test_blocks_do_not_change_values(self, monkeypatch):
        mu = KernelDistribution(random_npsd(11, 8), 5)
        core, pool = (1, 6), [0, 2, 3, 4, 5, 7, 8, 9, 10]
        whole = mu.completions(core, pool, 3)
        monkeypatch.setattr(setdist, "TABLE_BLOCK", 7)
        assert len(whole) > 7
        assert np.array_equal(mu.completions(core, pool, 3), whole)


class TestCallCounts:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_scan_calls_once_per_core(self, r):
        mu = CountingKernel(random_npsd(9, 4), 4)
        S = (1, 3, 4, 8)
        vals = mu.neighborhood_values(S, r)
        assert len(mu.cores) == len(set(mu.cores)) == sum(math.comb(4, s) for s in range(r + 1))
        assert mu.values == 1  # S itself, the core's one size-0 completion
        assert len(vals) == sum(math.comb(4, s) * math.comb(5, s) for s in range(r + 1))

    @pytest.mark.parametrize("l", [1, 2])
    def test_walk_calls_once_per_core(self, l):
        mu = CountingKernel(random_npsd(7, 3), 3)
        traj = sample_walk(mu, (0, 1, 2), l, 500, seed=9)
        assert len(mu.cores) == len(set(mu.cores)) > 1
        assert all(len(core) == l for core in mu.cores)
        assert mu.values == 1  # the start's support check, none per candidate
        assert len(set(traj)) > 1

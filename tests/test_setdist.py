"""SetDistribution.completions, the one route that prices mu(core u D[i])
over the rows of an index array D, setdist.subsets, the one enumeration that
builds D, and the callers that read them."""

import importlib
import math
import tracemalloc
import warnings
from itertools import combinations
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ndppmap import (
    ConditioningError,
    DomainError,
    Kernel,
    KernelDistribution,
    SetDistribution,
    SearchConfig,
    TableDistribution,
    apply_field,
    condition_on,
    kernel_table,
    local_search,
    principal_minor,
    sample_walk,
)
from ndppmap import setdist
from ndppmap.instances import lowrank_npsd, random_field, random_npsd, sym_psd
from ndppmap.setdist import colex_table, subsets
from test_localsearch import neighborhood


def skew_kernel(n, seed):
    """L_ii = 0, so every one-element core is singular."""
    M = np.random.default_rng(seed).normal(size=(n, n))
    return Kernel(M - M.T)


class CountingKernel(KernelDistribution):
    """Records the core and the index array of every completions call and
    counts value calls."""

    def __init__(self, kernel, k):
        super().__init__(kernel, k)
        self.cores, self.arrays, self.values = [], [], 0

    def completions(self, core, D):
        self.cores.append(core)
        self.arrays.append(D)
        return super().completions(core, D)

    def value(self, S):
        self.values += 1
        return super().value(S)


def signed_table(n, k, seed):
    """Masses of both signs, so a deleted element times a negative base
    value would give -0.0."""
    rng = np.random.default_rng(seed)
    return TableDistribution(n, k, {S: rng.normal() for S in combinations(range(n), k)})


def scan_values(nb):
    return np.concatenate([vals for _, _, vals in nb.blocks])


class TestSubsets:
    @pytest.mark.parametrize(
        "pool, s",
        [(range(6), 0), (range(6), 3), (range(6), 6), (range(6), 7), ([3, 7, 255], 2),
         ([], 0), (range(300), 2)],
    )
    def test_rows_are_combinations(self, pool, s):
        D = subsets(pool, s)
        assert D.shape == (math.comb(len(pool), s), s)
        assert D.tolist() == [list(c) for c in combinations(pool, s)]
        assert np.issubdtype(D.dtype, np.integer)
        assert np.iinfo(D.dtype).max >= max(pool, default=0)


class TestColexTable:
    @pytest.mark.parametrize("n, l", [(0, 0), (6, 0), (6, 1), (6, 3), (6, 6), (9, 4)])
    def test_ranks_count_sets_in_colex_order(self, n, l):
        table = colex_table(n, l)
        assert table.shape == (l, n) and table.dtype == np.int64
        colex = sorted(combinations(range(n), l), key=lambda c: c[::-1])
        ranks = [int(table[np.arange(l), list(c)].sum()) for c in colex]
        assert ranks == list(range(len(colex)))

    def test_entries_clamped_to_the_set_count(self):
        # C(67, 33) is past int64, but no rank of a 66-subset of range(68) reads it
        table = colex_table(68, 66)
        assert table.max() == table[32, 67] == math.comb(68, 66)
        assert table[65, 67] == table[0, 67] == 67


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
                D = subsets(pool, s)
                got = mu.completions(core, D)
                want = SetDistribution.completions(mu, core, D)
                assert got.shape == want.shape == (math.comb(len(pool), s),)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "K",
        [random_npsd(12, 3), lowrank_npsd(12, 4, 5), skew_kernel(12, 7),
         Kernel(random_npsd(12, 1).entries * 1e-4)],
        ids=["dense", "lowrank", "skew", "rescaled"],
    )
    def test_completions_are_principal_minors(self, K):
        # Bit for bit, for every core: singular ones (the skew kernel's odd
        # cores, the low-rank kernel's cores past its rank) and the tiny
        # minors of a rescaled kernel included, with no value call.
        mu = CountingKernel(K, 6)
        for core in [(), (5,), (2, 9), (0, 4, 11), (1, 3, 6, 10)]:
            pool = [i for i in range(12) if i not in core]
            for s in range(4):
                want = [principal_minor(K, sorted(core + D)) for D in combinations(pool, s)]
                assert mu.completions(core, subsets(pool, s)).tolist() == want
        assert mu.values == 0

    def test_minor_past_float64_is_inf_without_warning(self):
        # det of {0, 1} is 1e400; this project's pytest settings turn
        # RuntimeWarning into an error
        table = kernel_table(Kernel(np.diag([1e200, 1e200, 1.0, 2.0])), 2)
        assert table[0] == math.inf and np.isfinite(table[1:]).all()

    def test_singular_core_priced_like_any_other(self):
        K = skew_kernel(7, 19)
        with pytest.raises(ConditioningError):
            condition_on(K, (2,))
        mu = KernelDistribution(K, 3)
        pool = [0, 1, 3, 4, 5, 6]
        want = [principal_minor(K, (2,) + D) for D in combinations(pool, 2)]
        assert mu.completions((2,), subsets(pool, 2)).tolist() == want

    @pytest.mark.parametrize("n, k", [(7, 3), (6, 0), (5, 5), (4, 6)])
    def test_empty_core_is_the_table(self, n, k):
        K = lowrank_npsd(n, 3, n + k)
        mu = KernelDistribution(K, k)
        sets = list(combinations(range(n), k))
        enumerated = np.fromiter(map(mu.value, sets), float)
        D = subsets(range(n), k)
        assert np.array_equal(SetDistribution.completions(mu, (), D), enumerated)
        # the kernel route is one batched determinant over the sets
        S = np.array(sets, dtype=np.intp).reshape(len(sets), k)
        batched = np.linalg.det(K.entries[S[:, :, None], S[:, None, :]])
        assert np.array_equal(mu.completions((), D), batched)
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
        assert mu.completions(core, subsets(pool, 0)).tolist() == [mu.value(core)]
        empty = mu.completions(core, subsets(pool, 4))
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
        core, D = (1, 6), subsets([0, 2, 3, 4, 5, 7, 8, 9, 10], 3)
        whole = mu.completions(core, D)
        monkeypatch.setattr(setdist, "TABLE_BLOCK", 7)
        assert len(whole) > 7
        assert np.array_equal(mu.completions(core, D), whole)

    def test_table_once_per_instance(self, monkeypatch):
        calls = []
        table = setdist.kernel_table
        monkeypatch.setattr(setdist, "kernel_table", lambda K, k: calls.append(k) or table(K, k))
        K = random_npsd(7, 2)
        mu = KernelDistribution(K, 3)
        first = mu.tabulate()
        assert mu.tabulate() is first and calls == [3]
        assert np.array_equal(first, table(K, 3))
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 1.0

    def test_table_memory(self):
        # The index array of all C(24, 8) sets is one byte an entry, and no
        # block of minors outlives its determinant.
        K = random_npsd(24, 0)
        tracemalloc.start()
        try:
            kernel_table(K, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 42 * 2**20


def old_rule(d):
    """The dict scan's argmax: the largest value, the smallest set on ties."""
    best = min(d, key=lambda T: (-d[T], T))
    return best, d[best]


class TestNeighborhoodResult:
    """neighborhood_values returns the scan's (core, D, values) blocks; best()
    must pick what the dict scan picked, with the picked set's own value."""

    def test_tie_across_cores_takes_smaller_set(self):
        # Scan order for S = (0, 1), r = 1: (0, 1), then the core (1,) with
        # (1, 2), (1, 3), (1, 4), then the core (0,) with (0, 2), ...
        table = {S: 1.0 for S in combinations(range(5), 2)}
        table[(1, 4)] = table[(0, 2)] = 5.0
        nb = TableDistribution(5, 2, table).neighborhood_values((0, 1), 1)
        order = [T for T, _ in nb.items()]
        assert order.index((1, 4)) < order.index((0, 2))
        assert nb.best() == ((0, 2), 5.0) == old_rule(dict(nb.items()))

    def test_signed_zero_tie(self):
        table = {S: -1.0 for S in combinations(range(5), 2)}
        table[(1, 2)], table[(0, 3)] = 0.0, -0.0
        nb = TableDistribution(5, 2, table).neighborhood_values((0, 1), 1)
        best = nb.best()
        assert best == ((0, 3), 0.0) and np.signbit(best[1])
        assert repr(best) == repr(old_rule(dict(nb.items())))

    def test_nan_never_wins(self):
        # Scan order as above.  A NaN next to the maximum in a later core must
        # not hide that block's maximum; a NaN at S itself, the first set
        # priced, must not win or leave no row at the maximum.
        table = {S: 1.0 for S in combinations(range(5), 2)}
        table[(0, 2)], table[(0, 3)] = math.nan, 5.0
        nb = TableDistribution(5, 2, table).neighborhood_values((0, 1), 1)
        assert nb.best() == ((0, 3), 5.0) == old_rule(dict(nb.items()))
        table[(0, 1)] = math.nan
        nb = TableDistribution(5, 2, table).neighborhood_values((0, 1), 1)
        assert nb.best() == ((0, 3), 5.0)
        table = {S: math.nan for S in combinations(range(5), 2)}
        nb = TableDistribution(5, 2, table).neighborhood_values((0, 1), 1)
        assert nb.best() == (None, -math.inf)

    def test_skew_kernel_exact_zeros(self):
        mu = KernelDistribution(skew_kernel(7, 19), 3)
        with pytest.raises(ConditioningError):
            condition_on(mu.kernel, (0,))
        for r in (1, 2, 3):
            nb = mu.neighborhood_values((0, 2, 5), r)
            d = dict(nb.items())
            # Odd skew minors are rounding noise; the singleton cores (s = 2)
            # enumerate, and many of those minors come out exactly 0.0.
            assert r == 1 or sum(v == 0.0 for v in d.values()) > 5
            assert repr(nb.best()) == repr(old_rule(d))

    @pytest.mark.parametrize(
        "K, k, S",
        [(random_npsd(9, 1), 4, (1, 3, 4, 8)), (lowrank_npsd(9, 3, 2), 3, (0, 4, 7)),
         (sym_psd(8, 3), 5, (0, 1, 2, 3, 6)), (random_npsd(6, 4), 4, (0, 2, 3, 5))],
        ids=["dense", "lowrank", "sym_psd", "r-exceeds-outside"],
    )
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_dict_scan(self, K, k, S, r):
        nb = KernelDistribution(K, k).neighborhood_values(S, r)
        pairs = list(nb.items())
        d = dict(pairs)
        assert len(nb) == len(pairs) == len(d) == sum(
            math.comb(k, s) * math.comb(K.n - k, s) for s in range(r + 1)
        )
        assert sorted(d) == sorted(neighborhood(S, r, K.n))
        assert repr(nb.best()) == repr(old_rule(d))


class TestCallCounts:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_scan_calls_once_per_core(self, r, monkeypatch):
        # One conditioning on S prices every set within two swaps, S's own
        # value included; only the cores with s = 3 call completions, once
        # each, and a completions call conditions on nothing.
        conditioned = []
        cond = setdist.condition_on
        monkeypatch.setattr(setdist, "condition_on", lambda K, Y: conditioned.append(Y) or cond(K, Y))
        mu = CountingKernel(random_npsd(9, 4), 4)
        S = (1, 3, 4, 8)
        vals = mu.neighborhood_values(S, r)
        cores = [tuple(i for i in S if i not in drop) for drop in combinations(S, 3)]
        assert mu.cores == (cores if r == 3 else [])
        assert conditioned == [S]
        # one index array for s = 3, shared by its cores
        assert len({id(D) for D in mu.arrays}) == (r == 3)
        assert all(D.shape == (math.comb(5, 3), 3) for D in mu.arrays)
        assert mu.values == 0
        assert len(vals) == sum(math.comb(4, s) * math.comb(5, s) for s in range(r + 1))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_singular_pin_scan_calls_once_per_core(self, r):
        # An odd skew-symmetric L_S is singular, so the scan takes the base
        # route: one completions call per core, one index array per size.
        mu = CountingKernel(skew_kernel(7, 19), 3)
        S = (0, 2, 5)
        vals = mu.neighborhood_values(S, r)
        assert mu.cores == [
            tuple(i for i in S if i not in drop) for s in range(r + 1) for drop in combinations(S, s)
        ]
        assert len({id(D) for D in mu.arrays}) == r + 1
        assert len(vals) == sum(math.comb(3, s) * math.comb(4, s) for s in range(r + 1))
        want = SetDistribution.neighborhood_values(mu, S, r)
        assert np.array_equal(scan_values(vals), scan_values(want))

    @pytest.mark.parametrize("l", [1, 2])
    def test_walk_calls_once_per_core(self, l):
        mu = CountingKernel(random_npsd(7, 3), 3)
        traj = sample_walk(mu, (0, 1, 2), l, 500, seed=9)
        # the start's support check: one value call, one completions row
        assert mu.values == 1 and mu.cores[0] == () and mu.arrays[0].tolist() == [[0, 1, 2]]
        # then one call per core, none per candidate
        assert len(mu.cores[1:]) == len(set(mu.cores[1:])) > 1
        assert all(len(core) == l for core in mu.cores[1:])
        assert len(set(traj)) > 1


class TestIntegerSizes:
    """n and k are integers: a float, a bool or a string is refused rather
    than truncated, and a numpy integer is kept as an int."""

    @pytest.mark.parametrize("k", [2.5, True, "2", None])
    def test_kernel_k_must_be_an_integer(self, k):
        with pytest.raises(DomainError, match="k must be an integer"):
            KernelDistribution(random_npsd(6, 1), k)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_table_n_must_be_an_integer(self, n):
        with pytest.raises(DomainError, match="n must be an integer"):
            TableDistribution(n, 1, {(0,): 1.0})

    def test_numpy_integers_accepted(self):
        mu = TableDistribution(np.int64(3), np.int32(1), {(0,): 1.0})
        assert (mu.n, mu.k) == (3, 1) and type(mu.n) is int and type(mu.k) is int
        assert KernelDistribution(random_npsd(6, 1), np.int64(2)).k == 2


class TestValue:
    """value(S) is the completions of the empty core over the one row S."""

    @pytest.mark.parametrize("K", [random_npsd(7, 2), lowrank_npsd(7, 3, 1), sym_psd(7, 4)])
    def test_kernel_value_is_principal_minor_bit_for_bit(self, K):
        mu = KernelDistribution(K, 3)
        for s in range(K.n + 1):
            for S in combinations(range(K.n), s):
                assert repr(mu.value(S)) == repr(principal_minor(K, S)), S
        assert repr(mu.value([4, 0, 2])) == repr(principal_minor(K, (0, 2, 4)))

    @pytest.mark.parametrize("base", [KernelDistribution(random_npsd(7, 5), 3), signed_table(7, 3, 2)])
    def test_field_value_is_the_parent_formula(self, base):
        lam = random_field(7, seed=1)
        lam[1], lam[4] = 0.0, math.inf
        nu = apply_field(base, lam)
        for S in combinations(range(7), 3):
            want = base.value(S) * field_product(lam, S) if 4 in S and 1 not in S else 0.0
            assert repr(nu.value(S)) == repr(float(want)), S

    @pytest.mark.parametrize(
        "mu",
        [KernelDistribution(random_npsd(4, 0), 2), TableDistribution(4, 2, {(1, 2): 3.0}),
         apply_field(TableDistribution(4, 2, {(1, 2): 3.0}), np.ones(4))],
    )
    @pytest.mark.parametrize("bad", [(1, 9), (-1, 2), (2, 2)])
    def test_bad_index_sets_rejected(self, mu, bad):
        with pytest.raises(DomainError):
            mu.value(bad)

    def test_table_local_search_names_the_bad_start(self):
        mu = TableDistribution(4, 2, {(1, 2): 3.0})
        with pytest.raises(DomainError, match="out of range"):
            local_search(mu, (1, 9), SearchConfig(r=1))


def field_product(lam, S):
    """prod_{i in S} lam_i, left to right from 1.0, a forced entry counted as 1.0."""
    out = 1.0
    for i in S:
        out *= 1.0 if math.isinf(lam[i]) else float(lam[i])
    return out


def field_definition(base, lam):
    """(lam * mu)(S) = mu(S) prod_{i in S} lam_i [F subset of S], F the forced
    elements, over every size-k set in combinations order, from base.value."""
    forced = set(np.flatnonzero(np.isinf(lam)).tolist())
    return np.array([
        base.value(S) * field_product(lam, S) if forced <= set(S) else 0.0
        for S in combinations(range(base.n), base.k)
    ])


FIELD_BASES = {
    "dense": lambda n, k, seed: KernelDistribution(random_npsd(n, seed), k),
    "lowrank": lambda n, k, seed: KernelDistribution(lowrank_npsd(n, k + 2, seed), k),
    "table": lambda n, k, seed: TableDistribution(
        n, k, dict(zip(combinations(range(n), k), kernel_table(random_npsd(n, seed), k).tolist()))
    ),
}
FIELD_HEADS = {"deleted": [0.0, 0.0], "forced": [math.inf], "mixed": [0.0, math.inf]}


class TestFieldCompletions:
    """apply_field against its definition mu(S) prod_{i in S} lam_i, with
    [F subset of S] for the forced elements F: a kernel under a field with
    no forced entry is the rescaled kernel, anything else a table, and a set
    that holds a deleted element or misses a forced one is exactly +0.0."""

    @staticmethod
    def field(base, seed):
        lam = random_field(base.n, seed=seed)
        lam[1], lam[4] = 0.0, math.inf  # element 1 deleted, element 4 forced
        return apply_field(base, lam), lam

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, k", [(8, 4), (10, 5)])
    @pytest.mark.parametrize("head", FIELD_HEADS.values(), ids=FIELD_HEADS.keys())
    @pytest.mark.parametrize("base", FIELD_BASES.values(), ids=FIELD_BASES.keys())
    def test_table_is_the_definition(self, base, head, n, k, seed):
        base = base(n, k, seed)
        lam = np.r_[head, random_field(n - len(head), seed=seed + 10)]
        nu = apply_field(base, lam)
        rescaled = isinstance(base, KernelDistribution) and not np.isinf(lam).any()
        assert type(nu) is (KernelDistribution if rescaled else TableDistribution)
        assert (nu.n, nu.k) == (n, k)
        if rescaled:
            assert nu.kernel.rank_d == base.kernel.rank_d
        got, want = nu.tabulate(), field_definition(base, lam)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        off = want == 0.0
        assert off.any() and got[off].tolist() == [0.0] * off.sum()
        assert not np.signbit(got[off]).any()

    @pytest.mark.parametrize(
        "base",
        [KernelDistribution(random_npsd(8, 5), 4), signed_table(8, 4, 6)],
        ids=["kernel", "table"],
    )
    def test_matches_enumeration(self, base):
        nu, _ = self.field(base, 3)
        for core in [(), (4,), (1,), (0, 6), (2, 4, 7)]:
            pool = [i for i in range(8) if i not in core]
            for s in range(5 - len(core)):
                D = subsets(pool, s)
                got = nu.completions(core, D)
                want = SetDistribution.completions(nu, core, D)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(
                    np.abs(want), initial=1.0
                )
                assert not np.signbit(got[want == 0.0]).any()

    def test_off_support_is_positive_zero(self):
        nu, _ = self.field(signed_table(7, 3, 2), 4)
        D = subsets(range(7), 3)
        off = [1 in S or 4 not in S for S in combinations(range(7), 3)]
        got = nu.completions((), D)
        assert got[off].tolist() == [0.0] * sum(off)
        assert not np.signbit(got[off]).any()
        assert (got[np.logical_not(off)] != 0.0).all()
        assert not any(np.signbit(nu.value(S)) for S in combinations(range(7), 3) if 1 in S)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_table_is_base_table_times_product(self, seed):
        base = KernelDistribution(random_npsd(9, seed), 4)
        nu, lam = self.field(base, seed)
        assert np.array_equal(nu.tabulate(), field_definition(base, lam))

    def test_scan_takes_the_jacobi_route(self, monkeypatch):
        base = KernelDistribution(random_npsd(9, 7), 4)
        lam = random_field(9, seed=8)
        lam[1] = 0.0
        nu = apply_field(base, lam)
        want = dict(zip(combinations(range(9), 4), field_definition(base, lam).tolist()))
        cores = []
        completions = KernelDistribution.completions
        monkeypatch.setattr(
            KernelDistribution, "completions",
            lambda self, core, D: cores.append(core) or completions(self, core, D),
        )
        nb = nu.neighborhood_values((0, 2, 5, 7), 2)
        assert cores == []  # every set within two swaps priced from one conditioning
        assert len(nb) == 1 + 4 * 5 + 6 * 10
        top = max(abs(v) for v in want.values())
        assert all(abs(v - want[S]) <= 1e-12 * top for S, v in nb.items())


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, read for its relabelled skew-block builder."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("workloads")


class TestJacobiScan:
    """KernelDistribution.neighborhood_values prices every set with s <= 2
    from one conditioning on S; the base route, one completions call per
    core, is the reference."""

    @staticmethod
    def assert_matches_base(mu, S, r):
        got = mu.neighborhood_values(S, r)
        # no completions call below s = 3
        assert all(len(core) == len(S) - 3 for core in mu.cores)
        want = SetDistribution.neighborhood_values(mu, S, r)
        assert [(c, D.tolist()) for c, D, _ in got.blocks] == [
            (c, D.tolist()) for c, D, _ in want.blocks
        ]
        g, w = scan_values(got), scan_values(want)
        scale = np.max(np.abs(g))
        assert np.max(np.abs(g - w)) <= 1e-12 * scale
        # the same argmax set, its value equal up to rounding
        assert got.best()[0] == want.best()[0]
        assert abs(got.best()[1] - want.best()[1]) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["dense", "relabelled-skew-block", "lowrank", "sym_psd"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_per_core_route(self, kind, r, workloads):
        K, k = {
            "dense": (random_npsd(12, 8), 5),
            "relabelled-skew-block": (workloads.relabelled_skew_block(12, 8), 4),
            "lowrank": (lowrank_npsd(12, 6, 8), 4),
            "sym_psd": (sym_psd(12, 8), 5),
        }[kind]
        rng = np.random.default_rng(r)
        for _ in range(4):
            S = tuple(sorted(rng.choice(K.n, k, replace=False).tolist()))
            self.assert_matches_base(CountingKernel(K, k), S, r)

    def test_pair_swaps_match_mpmath(self):
        K, S = random_npsd(14, 5), (0, 2, 3, 7, 9, 12)
        nb = KernelDistribution(K, len(S)).neighborhood_values(S, 2)
        scale = np.max(np.abs(scan_values(nb)))
        pairs = [(core, D, vals) for core, D, vals in nb.blocks if len(core) == len(S) - 2]
        rng = np.random.default_rng(0)
        with mpmath.workdps(40):
            for _ in range(40):
                core, D, vals = pairs[rng.integers(len(pairs))]
                j = int(rng.integers(len(D)))
                T = sorted(core + tuple(D[j].tolist()))
                exact = mpmath.det(mpmath.matrix([[K.entries[a, b] for b in T] for a in T]))
                assert abs(vals[j] - float(exact)) <= 1e-14 * scale

    def test_skew_even_k_prices_singular_cores(self):
        # det(L_S) > 0 at k = 4, while every core of size 3 is an odd skew
        # minor, singular, and priced by the closed form like any other.
        K, S = skew_kernel(9, 3), (0, 3, 5, 8)
        for drop in S:
            with pytest.raises(ConditioningError):
                condition_on(K, tuple(i for i in S if i != drop))
        self.assert_matches_base(CountingKernel(K, 4), S, 2)

    def test_non_finite_value_falls_back(self, monkeypatch):
        mu = CountingKernel(random_npsd(9, 4), 4)
        S = (1, 3, 4, 8)
        monkeypatch.setattr(setdist, "_swap_pairs", lambda G, XT, Yn, Z, B: np.full((6, 10), np.nan))
        got = mu.neighborhood_values(S, 2)
        assert len(mu.cores) == 1 + 4 + 6
        want = SetDistribution.neighborhood_values(mu, S, 2)
        assert np.array_equal(scan_values(got), scan_values(want))

    def test_overflow_falls_back_without_warnings_of_its_own(self):
        # mu({0, 2}) = 2 m^2 overflows, though det(L_S) = m^2 is finite and
        # above the zero threshold; the closed forms' overflow is silent, and
        # the scan warns exactly as the base route does.
        m = 1.2e154
        L = np.eye(4)
        L[0, 0] = L[1, 1] = L[2, 2] = L[0, 2] = m
        L[2, 0] = -m
        mu = KernelDistribution(Kernel(L), 2)
        seen = []
        for scan in (mu.neighborhood_values, lambda S, r: SetDistribution.neighborhood_values(mu, S, r)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                nb = scan((0, 1), 2)
            seen.append(([(w.filename, w.lineno, str(w.message)) for w in caught], list(nb.items())))
        assert seen[0] == seen[1]
        assert seen[0][1][3] == ((0, 2), math.inf)

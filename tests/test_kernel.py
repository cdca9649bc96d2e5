import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndppmap import (
    ConditioningError,
    DomainError,
    Kernel,
    KernelDistribution,
    apply_field,
    condition_on,
    is_npsd,
    load_kernel,
    principal_minor,
    save_kernel,
)
from ndppmap.instances import lowrank_npsd, random_npsd, skew_block
from ndppmap.kernel import MAX_ABS_ENTRY


def cofactor_det(M):
    """Independent determinant oracle by first-row cofactor expansion."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return M[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1) ** j * M[0, j] * cofactor_det(minor)
    return total


class TestPrincipalMinor:
    def test_identity(self):
        assert principal_minor(Kernel(np.eye(3)), [0, 1]) == pytest.approx(1.0)

    def test_empty_set_is_one(self):
        assert principal_minor(Kernel(np.eye(3)), []) == 1.0

    def test_skew_block_pair(self):
        K = Kernel(np.array([[2.0, 10.0], [-10.0, 2.0]]))
        assert principal_minor(K, [0, 1]) == pytest.approx(2**2 + 10**2)

    def test_matches_cofactor_expansion(self):
        K = random_npsd(4, seed=11)
        S = [0, 2, 3]
        expected = cofactor_det(K.entries[np.ix_(S, S)])
        assert principal_minor(K, S) == pytest.approx(expected, rel=1e-10)

    def test_past_float64_is_inf_without_warning(self):
        assert principal_minor(Kernel(np.diag([1e200, 1e200, 1.0])), [0, 1]) == math.inf

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            principal_minor(Kernel(np.eye(3)), [0, 3])
        with pytest.raises(DomainError):
            principal_minor(Kernel(np.eye(3)), [1, 1])


class TestIsNpsd:
    def test_skew_symmetric(self):
        assert is_npsd(Kernel(np.array([[0.0, 1.0], [-1.0, 0.0]])))

    def test_identity(self):
        assert is_npsd(Kernel(np.eye(4)))

    def test_upper_triangular_counterexample(self):
        # symmetric part [[0,1],[1,0]] has eigenvalue -1
        assert not is_npsd(Kernel(np.array([[0.0, 2.0], [0.0, 0.0]])))

    def test_generated_instances_are_npsd(self):
        for seed in range(5):
            assert is_npsd(random_npsd(6, seed))
            assert is_npsd(lowrank_npsd(7, 3, seed))

    def test_tolerance_is_relative_to_the_largest_entry(self):
        # sym(L) has eigenvalues 4, 0, 0 and -c: the tolerance is 1e-9 max|L|,
        # about 1e-9 here, not 1e-9 ||L||_2 = 4e-9
        v = np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2.0)
        assert is_npsd(Kernel(np.ones((4, 4)) - 0.5e-9 * np.outer(v, v)))
        assert not is_npsd(Kernel(np.ones((4, 4)) - 2e-9 * np.outer(v, v)))

    def test_large_lowrank_instance_is_npsd(self):
        # lambda_min(sym L) / max|L| is about -1e-14 here, a rounding error
        assert is_npsd(lowrank_npsd(1000, 20, 1))


class TestConditionOn:
    def test_empty_conditioning(self):
        K = random_npsd(4, seed=0)
        M, det = condition_on(K, [])
        assert det == 1.0
        assert np.array_equal(M, K.entries)

    def test_diagonal(self):
        K = Kernel(np.diag([2.0, 3.0, 5.0]))
        M, det = condition_on(K, [0])
        assert det == pytest.approx(2.0)
        assert np.allclose(M, np.diag([3.0, 5.0]))

    def test_det_past_float64_is_inf_without_warning(self):
        # det(L_Y) = 2e308 overflows, while the zero threshold 1e-12 * 1e308 does not
        K = Kernel(np.array([[1e154, 1e154, 0.0], [-1e154, 1e154, 0.0], [0.0, 0.0, 3.0]]))
        M, det = condition_on(K, [0, 1])
        assert det == math.inf and M.tolist() == [[3.0]]

    def test_schur_identity(self):
        K = random_npsd(5, seed=3)
        M, detY = condition_on(K, [1, 3])
        # remaining indices sorted: 0, 2, 4; D = {0} maps to position 0
        lhs = detY * M[0, 0]
        assert lhs == pytest.approx(principal_minor(K, [0, 1, 3]), rel=1e-9)

    def test_schur_consistency_exhaustive(self):
        from itertools import combinations

        K = random_npsd(8, seed=5)
        L = K.entries
        sorted_Ys = [Y for ky in range(1, 4) for Y in combinations(range(8), ky)]
        unsorted_Ys = [(5, 1), (7, 0), (6, 2, 4), (7, 3, 0)]
        for Y in sorted_Ys + unsorted_Ys:
            Ys = sorted(Y)
            rest = [i for i in range(8) if i not in Y]
            M, detY = condition_on(K, Y)
            # The four-block formula L_RR - L_RY solve(L_Y, L_YR), block by block.
            LY, LYR, LRY = L[np.ix_(Ys, Ys)], L[np.ix_(Ys, rest)], L[np.ix_(rest, Ys)]
            assert np.array_equal(M, L[np.ix_(rest, rest)] - LRY @ np.linalg.solve(LY, LYR))
            assert detY == float(np.linalg.det(LY))
            pos = {g: p for p, g in enumerate(rest)}
            for kd in range(1, min(3, 6 - len(Y)) + 1):
                for D in combinations(rest[:5], kd):
                    p = [pos[i] for i in D]
                    lhs = detY * np.linalg.det(M[np.ix_(p, p)])
                    want = principal_minor(K, Ys + list(D))
                    assert lhs == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_singular_conditioning_error(self):
        K = Kernel(np.zeros((3, 3)))
        with pytest.raises(ConditioningError):
            condition_on(K, [0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_npsd_minors_are_p0(seed, data):
    # every principal minor of an nPSD kernel is nonnegative up to roundoff
    K = random_npsd(6, seed)
    size = data.draw(st.integers(0, 6))
    S = data.draw(
        st.lists(st.integers(0, 5), min_size=size, max_size=size, unique=True)
    )
    bound = 1e-9 * (1.0 + np.linalg.norm(K.entries, 2)) ** len(S)
    assert principal_minor(K, S) >= -bound


def test_lowrank_consistency():
    K = lowrank_npsd(8, 3, seed=4)
    from itertools import combinations

    B, C = K.lowrank
    for S in combinations(range(8), 3):
        BS = B[list(S)]
        lr = float(np.linalg.det(BS @ C @ BS.T))
        assert principal_minor(K, S) == pytest.approx(lr, rel=1e-8, abs=1e-10)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_entries_rejected(self, bad):
        L = np.eye(3)
        L[0, 2] = bad
        with pytest.raises(DomainError, match=r"kernel entries at \(0, 2\)"):
            Kernel(L)

    def test_lowrank_factors_rejected(self):
        B, C = np.ones((4, 2)), np.eye(2)
        B[3, 1] = math.nan
        with pytest.raises(DomainError, match=r"factor B entries at \(3, 1\)"):
            Kernel.from_lowrank(B, C)
        C[0, 1] = math.inf
        with pytest.raises(DomainError, match=r"factor C entries at \(0, 1\)"):
            Kernel.from_lowrank(np.ones((4, 2)), C)


class TestFactored:
    """A factored kernel is built from its factors alone, and its entries are
    exactly B C B^T of the factors it keeps."""

    def test_entries_cannot_be_passed_with_factors(self):
        with pytest.raises(TypeError):
            Kernel(np.eye(3), lowrank=(np.ones((3, 1)), np.array([[1.0]])))

    @pytest.mark.parametrize(
        "B, C",
        [
            (np.ones(3), np.array([[1.0]])),
            (np.ones((3, 2)), np.eye(3)),
            (np.ones((3, 2)), np.ones((2, 3))),
            (np.ones((3, 2)), np.ones(2)),
        ],
        ids=["B-1d", "C-too-large", "C-not-square", "C-1d"],
    )
    def test_malformed_factors_rejected(self, B, C):
        with pytest.raises(DomainError, match="factors must be n x d and d x d"):
            Kernel.from_lowrank(B, C)

    @staticmethod
    def assert_own_product(K):
        B, C = K.lowrank
        assert np.array_equal(K.entries, B @ C @ B.T)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_factored_kernel_is_its_own_product(self, seed):
        K = lowrank_npsd(9, 4, seed)
        self.assert_own_product(K)
        mu = KernelDistribution(K, 3)
        self.assert_own_product(mu.restrict((0, 2, 3, 5, 8)).kernel)
        lam = np.linspace(0.5, 2.0, 9)
        lam[4] = 0.0  # deletes element 4
        F = apply_field(mu, lam).kernel
        self.assert_own_product(F)
        assert not F.entries[4].any() and not F.entries[:, 4].any()


class TestEntryBound:
    def test_entry_past_bound_rejected(self):
        L = np.eye(3)
        L[2, 0] = -2.0 * MAX_ABS_ENTRY
        with pytest.raises(DomainError, match=r"reach 2\.000e\+290; .* at most 1e\+290"):
            Kernel(L)

    def test_entry_at_bound_conditions_finitely(self):
        # A pivot twice condition_on's zero threshold, beside entries at the bound.
        pivot = 2.0 * Kernel(np.array([[MAX_ABS_ENTRY]])).zero_threshold(1)
        L = np.array([[pivot, MAX_ABS_ENTRY], [-MAX_ABS_ENTRY, 1.0]])
        M, det = condition_on(Kernel(L), [0])
        assert det == pytest.approx(pivot)
        assert M[0, 0] == pytest.approx(1.0 + MAX_ABS_ENTRY * (MAX_ABS_ENTRY / pivot))

    def test_overflowing_threshold_reads_singular(self):
        # (1 + 1e200)^2 leaves the float range: every pin of size 2 or more
        # reads as singular, and a size-1 pin keeps its finite threshold.
        L = np.array([[1.0, 1e200, 0.5], [-1e200, 1.0, 0.0], [0.5, 0.0, 2.0]])
        K = Kernel(L)
        assert K.zero_threshold(1) == pytest.approx(1e188)
        assert K.zero_threshold(2) == math.inf
        with pytest.raises(ConditioningError):
            condition_on(K, (0, 2))


class TestReadOnly:
    def test_source_writes_do_not_reach_kernel(self):
        L, B, C = np.eye(4), np.ones((4, 2)), np.eye(2)
        K, F = Kernel(L), Kernel.from_lowrank(B, C)
        L[0, 0] = B[0, 0] = C[0, 0] = math.nan
        assert np.array_equal(K.entries, np.eye(4)) and K.max_abs == 1.0
        assert not K.entries.flags.writeable and not np.shares_memory(K.entries, L)
        assert np.array_equal(F.lowrank[0], np.ones((4, 2)))
        assert np.array_equal(F.lowrank[1], np.eye(2))

    def test_kernel_arrays_reject_writes(self):
        K = lowrank_npsd(5, 2, seed=1)
        for M in (K.entries, *K.lowrank):
            with pytest.raises(ValueError):
                M[0, 0] = 2.0


class TestCopies:
    def test_factored_entries_are_the_product_uncopied(self):
        # the peak holds the one n x n product, its finite mask and no copy
        n = 300
        rng = np.random.default_rng(0)
        B, C = rng.normal(size=(n, 4)), rng.normal(size=(4, 4))
        tracemalloc.start()
        try:
            K = Kernel.from_lowrank(B, C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8
        assert np.array_equal(K.entries, B @ C @ B.T) and not K.entries.flags.writeable

    @pytest.mark.parametrize(
        "L",
        [np.zeros((2, 2)), np.full((2, 2), -0.0), np.array([[-3.0, 1.0], [2.0, -0.5]]),
         np.array([[1e-300, -MAX_ABS_ENTRY], [0.0, 5.0]])],
        ids=["zeros", "negative-zeros", "negative-largest", "at-bound"],
    )
    def test_max_abs_is_the_largest_magnitude(self, L):
        assert repr(Kernel(L).max_abs) == repr(float(np.max(np.abs(L))))


def reference_save_kernel(K, path):
    """A writer with one branch per format, formatting each entry on its
    own: the byte reference for save_kernel."""
    with open(path, "w") as fh:
        if K.lowrank is not None:
            B, C = K.lowrank
            fh.write(f"{K.n} {B.shape[1]}\n")
            for row in B:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")
            for row in C:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")
        else:
            fh.write(f"{K.n}\n")
            for row in K.entries:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")


class TestKernelIO:
    def test_dense_roundtrip(self, tmp_path):
        K = random_npsd(5, seed=7)
        path = tmp_path / "k.txt"
        save_kernel(K, path)
        K2 = load_kernel(path)
        assert np.array_equal(K.entries, K2.entries)

    def test_lowrank_roundtrip(self, tmp_path):
        K = lowrank_npsd(6, 2, seed=7)
        path = tmp_path / "k.txt"
        save_kernel(K, path)
        K2 = load_kernel(path)
        assert K2.lowrank is not None
        assert np.array_equal(K.lowrank[0], K2.lowrank[0])
        assert np.allclose(K.entries, K2.entries)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 0 0\n0 1 0\n")
        with pytest.raises(DomainError):
            load_kernel(path)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2 1 1\n1 0\n0 1\n",
            "0\n",
            "2 0\n",
            "3\n1 0 0\n0 1 0\n",
            "2\n1 0\n0 1\n1 1\n",
            "2\n1 0\n0 1 0\n",
            "2 2\n1 0\n0 1\n1 0\n0\n",
        ],
        ids=["empty", "three-token-header", "n-zero", "d-zero", "row-short", "row-extra",
             "ragged-row", "short-C-row"],
    )
    def test_malformed_files_rejected(self, text, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(DomainError):
            load_kernel(path)

    @pytest.mark.parametrize(
        "K",
        [
            random_npsd(7, seed=3),
            lowrank_npsd(6, 3, seed=2),
            skew_block([4, 3, 2], [100, 200, 300]),
        ],
        ids=["dense", "lowrank", "skew-block"],
    )
    def test_files_match_reference_writer(self, K, tmp_path):
        path, ref = tmp_path / "k.txt", tmp_path / "ref.txt"
        save_kernel(K, path)
        reference_save_kernel(K, ref)
        assert path.read_bytes() == ref.read_bytes()
        K2 = load_kernel(path)
        assert np.array_equal(K2.entries, K.entries)
        assert (K2.lowrank is None) == (K.lowrank is None)
        for M, M2 in zip(K.lowrank or (), K2.lowrank or ()):
            assert np.array_equal(M, M2)


class TestScaleRelativeTolerances:
    """Each tolerance is judged against the kernel's own scale, with no
    absolute floor that a kernel with max|L| << 1 falls under."""

    def test_small_negative_eigenvalue_rejected(self):
        assert not is_npsd(Kernel(np.diag([1.0, -0.5, 2.0]) * 1e-10))

    def test_zero_threshold_scales_with_the_kernel(self):
        K = random_npsd(6, seed=1)
        for c in (1e-8, 1e8):
            Kc = Kernel(K.entries * c)
            for size in (1, 3, 6):
                assert Kc.zero_threshold(size) == pytest.approx(K.zero_threshold(size) * c**size)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndppmap import (
    ConditioningError,
    DomainError,
    Kernel,
    condition_on,
    is_npsd,
    load_kernel,
    principal_minor,
    save_kernel,
)
from ndppmap.instances import lowrank_npsd, random_npsd


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
        expected = cofactor_det(K.submatrix(S))
        assert principal_minor(K, S) == pytest.approx(expected, rel=1e-10)

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


class TestConditionOn:
    def test_empty_conditioning(self):
        K = random_npsd(4, seed=0)
        K2, det = condition_on(K, [])
        assert det == 1.0
        assert np.array_equal(K2.entries, K.entries)

    def test_diagonal(self):
        K = Kernel(np.diag([2.0, 3.0, 5.0]))
        K2, det = condition_on(K, [0])
        assert det == pytest.approx(2.0)
        assert np.allclose(K2.entries, np.diag([3.0, 5.0]))

    def test_schur_identity(self):
        K = random_npsd(5, seed=3)
        K2, detY = condition_on(K, [1, 3])
        # remaining indices sorted: 0, 2, 4; D = {0} maps to position 0
        lhs = detY * principal_minor(K2, [0])
        assert lhs == pytest.approx(principal_minor(K, [0, 1, 3]), rel=1e-9)

    def test_schur_consistency_exhaustive(self):
        from itertools import combinations

        K = random_npsd(8, seed=5)
        for ky in range(1, 4):
            for Y in combinations(range(8), ky):
                rest = [i for i in range(8) if i not in Y]
                K2, detY = condition_on(K, Y)
                pos = {g: p for p, g in enumerate(rest)}
                for kd in range(1, min(3, 6 - ky) + 1):
                    for D in combinations(rest[:5], kd):
                        lhs = detY * principal_minor(K2, [pos[i] for i in D])
                        want = principal_minor(K, sorted(Y + D))
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
            Kernel(np.eye(4), lowrank=(np.ones((4, 2)), C))


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

    def test_lowrank_contract_enforced(self):
        with pytest.raises(DomainError):
            Kernel(np.eye(3), lowrank=(np.ones((3, 1)), np.array([[2.0]])))

"""Tests for the dense matrix kernels."""

import numpy as np
import pytest

from mredmd import linalg
from mredmd.errors import (
    DimensionMismatchError,
    ImaginaryResidualWarning,
    NegativeRealAxisWarning,
    SingularMatrixError,
)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestPinv:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.pinv(np.eye(3)), np.eye(3))

    def test_scalar_inverse(self):
        np.testing.assert_allclose(linalg.pinv([[2.0]]), [[0.5]])

    def test_full_rank_tall(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 3))
        np.testing.assert_allclose(linalg.pinv(a) @ a, np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("m,n", [(3, 3), (7, 4), (4, 7), (50, 50), (50, 20)])
    def test_moore_penrose_axioms(self, m, n):
        rng = np.random.default_rng(m * 100 + n)
        a = rng.normal(size=(m, n))
        ap = linalg.pinv(a)
        np.testing.assert_allclose(a @ ap @ a, a, atol=1e-8)
        np.testing.assert_allclose(ap @ a @ ap, ap, atol=1e-8)
        np.testing.assert_allclose(a @ ap, (a @ ap).T, atol=1e-8)
        np.testing.assert_allclose(ap @ a, (ap @ a).T, atol=1e-8)

    def test_rank_deficient_truncation(self):
        # rank-1 matrix: pinv must truncate the zero singular values
        v = np.array([[1.0, 2.0, 3.0]])
        a = v.T @ v
        ap = linalg.pinv(a)
        np.testing.assert_allclose(a @ ap @ a, a, atol=1e-10)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(linalg.pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionMismatchError):
            linalg.pinv([[np.nan, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            linalg.pinv(np.zeros((0, 3)))


class TestMatrixLog:
    def test_identity_gives_zero(self):
        out = linalg.matrix_log(np.eye(2))
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-14)
        assert np.iscomplexobj(out)

    def test_diagonal_analytic(self):
        out = linalg.matrix_log(np.diag([np.e, np.e**2]))
        np.testing.assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-13)

    def test_rotation_analytic(self):
        theta = np.pi / 6
        out = linalg.matrix_log(rotation(theta))
        expected = np.array([[0.0, -theta], [theta, 0.0]])
        np.testing.assert_allclose(out.real, expected, atol=1e-10)
        np.testing.assert_allclose(out.imag, 0.0, atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.matrix_log(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_negative_axis_warns(self):
        with pytest.warns(NegativeRealAxisWarning):
            out = linalg.matrix_log(np.diag([-1.0]))
        np.testing.assert_allclose(out, [[1j * np.pi]], atol=1e-12)

    def test_principal_branch(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            r = rng.normal(size=(4, 4))
            k = np.eye(4) + 0.5 * r / np.linalg.norm(r, 2)
            eigs = np.linalg.eigvals(linalg.matrix_log(k))
            assert np.all(eigs.imag > -np.pi - 1e-12)
            assert np.all(eigs.imag <= np.pi + 1e-12)


class TestMatrixExp:
    def test_zero_gives_identity(self):
        np.testing.assert_array_equal(linalg.matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = linalg.matrix_exp(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(out, np.diag([np.e, np.e**2]), rtol=1e-12)

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 5, 8):
            r = rng.normal(size=(dim, dim))
            k = np.eye(dim) + 0.6 * r / np.linalg.norm(r, 2)
            # spectrum stays off the closed negative real axis by construction
            back = linalg.matrix_exp(linalg.matrix_log(k))
            err = np.linalg.norm(back - k) / np.linalg.norm(k)
            assert err <= 1e-8


class TestEigenvalues:
    def test_diagonal(self):
        w = linalg.eigenvalues(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-12)

    def test_companion_hand_computed(self):
        # char poly lambda^2 + 3 lambda + 2 -> roots -1, -2
        w = linalg.eigenvalues(np.array([[0.0, 1.0], [-2.0, -3.0]]))
        np.testing.assert_allclose(w, [-2.0, -1.0], atol=1e-12)

    def test_rotation_pair(self):
        theta = 0.7
        w = linalg.eigenvalues(rotation(theta))
        expected = np.sort_complex([np.exp(1j * theta), np.exp(-1j * theta)])
        np.testing.assert_allclose(np.sort_complex(w), expected, atol=1e-12)

    def test_conjugate_pairing_of_real_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(6, 6))
            w = linalg.eigenvalues(a)
            assert linalg.spectrum_distance(w, np.conj(w)) < 1e-10

    def test_sorted_deterministically(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5))
        w1 = linalg.eigenvalues(a)
        w2 = linalg.eigenvalues(np.array(a))
        np.testing.assert_array_equal(w1, w2)


class TestCastReal:
    def test_real_input_zero_residual(self):
        real, residual = linalg.cast_real(np.eye(2))
        assert residual == 0.0
        np.testing.assert_array_equal(real, np.eye(2))

    def test_rotation_log_residual_zero(self):
        out = linalg.matrix_log(rotation(np.pi / 6))
        _, residual = linalg.cast_real(out)
        assert residual <= 1e-12

    def test_log_of_minus_one_residual_pi(self):
        with pytest.warns(NegativeRealAxisWarning):
            out = linalg.matrix_log(np.diag([-1.0]))
        with pytest.warns(ImaginaryResidualWarning):
            _, residual = linalg.cast_real(out)
        assert abs(residual - np.pi) < 1e-12

    def test_warns_above_tolerance_only(self):
        import warnings

        m = np.array([[1.0 + 1e-10j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            linalg.cast_real(m, tol=1e-8)
        with pytest.warns(ImaginaryResidualWarning):
            linalg.cast_real(m, tol=1e-12)


class TestSpectrumDistance:
    def test_equal_spectra(self):
        s = np.array([1.0, 2.0 + 1j, 2.0 - 1j])
        assert linalg.spectrum_distance(s, s) == 0.0

    def test_single_pair(self):
        assert linalg.spectrum_distance([1.0], [1.0 + 1j]) == pytest.approx(1.0)

    def test_permutation_free(self):
        rng = np.random.default_rng(9)
        s = rng.normal(size=6) + 1j * rng.normal(size=6)
        perm = rng.permutation(6)
        assert linalg.spectrum_distance(s, s[perm]) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        s1 = rng.normal(size=5) + 1j * rng.normal(size=5)
        s2 = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert linalg.spectrum_distance(s1, s2) == pytest.approx(
            linalg.spectrum_distance(s2, s1)
        )

    def test_cardinality_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.spectrum_distance([1.0, 2.0], [1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            linalg.spectrum_distance([1.0, np.nan], [1.0, 2.0])


def _spectrum_pairs():
    """(s1, s2) pairs: random, tied and conjugate-pair spectra."""
    rng = np.random.default_rng(21)
    pairs = []
    for n in (1, 2, 3, 10, 20, 56):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        pairs.append((a, a + 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))))
        # ties: few distinct eigenvalues, many equal costs
        pairs.append((rng.integers(0, 3, size=n) + 0j, rng.integers(0, 3, size=n) + 0j))
        pairs.append((np.ones(n), np.ones(n)))
        # conjugate pairs of real matrices, against a perturbed copy and their conjugates
        h = rng.normal(size=(n, n))
        w = np.linalg.eigvals(h)
        pairs.append((w, np.linalg.eigvals(h + 1e-3 * rng.normal(size=(n, n)))))
        pairs.append((w, np.conj(w)))
    return pairs


@pytest.mark.parametrize("s1, s2", _spectrum_pairs())
def test_assignment_matches_scipy(s1, s2):
    # the solver replaces scipy.optimize.linear_sum_assignment: the same
    # matching, so the same mean bytes
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(np.asarray(s1)[:, None] - np.asarray(s2)[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert linalg._assignment(cost) == cols.tolist()
    assert linalg.spectrum_distance(s1, s2) == float(cost[rows, cols].mean())


def test_import_leaves_out_scipy_optimize():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mredmd

    env = {**os.environ, "PYTHONPATH": str(Path(mredmd.__file__).resolve().parents[1])}
    code = "import sys, mredmd; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"

"""Dense matrix kernels: SVD pseudo-inverse, principal matrix logarithm,
matrix exponential, eigenvalue extraction, and spectrum comparison.

Matrices are plain ``numpy.ndarray`` values; every operation validates shape
and finiteness on entry and is a pure function of its inputs.
"""

import warnings

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .errors import (
    DimensionMismatchError,
    ImaginaryResidualWarning,
    NegativeRealAxisWarning,
    NumericalError,
    SingularMatrixError,
)

_EPS = float(np.finfo(float).eps)


def _as_matrix(a, name="matrix", complex_ok=False):
    """Validate and return ``a`` as a finite 2-D array."""
    arr = np.asarray(a)
    if not complex_ok and np.iscomplexobj(arr):
        raise DimensionMismatchError(f"{name} must be real, got complex entries")
    arr = arr.astype(complex if np.iscomplexobj(arr) else float, copy=False)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return arr


def _require_square(arr, name="matrix"):
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")


def pinv(a, rel_tol=None):
    """Moore-Penrose pseudo-inverse via SVD with relative truncation.

    Parameters
    ----------
    a : array_like
        Real matrix, shape (m, n).
    rel_tol : float, optional
        Singular values below ``rel_tol * sigma_max`` are truncated.
        Defaults to ``max(m, n) * machine_epsilon``.

    Returns
    -------
    np.ndarray
        Pseudo-inverse, shape (n, m).
    """
    arr = _as_matrix(a, "a")
    if rel_tol is None:
        rel_tol = max(arr.shape) * _EPS
    elif rel_tol < 0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol}")
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((arr.shape[1], arr.shape[0]))
    keep = s > rel_tol * s[0]
    r = int(np.count_nonzero(keep))
    return (vh[:r].T / s[:r]) @ u[:, :r].T


def condition_number(a):
    """2-norm condition number of a matrix (``inf`` if rank deficient)."""
    arr = _as_matrix(a, "a", complex_ok=True)
    s = np.linalg.svd(arr, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def matrix_log(k):
    """Principal matrix logarithm of a nonsingular square matrix.

    The result is always complex; eigenvalues of the result have imaginary
    parts in (-pi, pi]. When an eigenvalue of ``k`` lies on the closed
    negative real axis the principal logarithm is genuinely complex and a
    :class:`NegativeRealAxisWarning` is emitted.

    Raises
    ------
    SingularMatrixError
        If ``k`` is singular to working precision.
    """
    arr = _as_matrix(k, "k", complex_ok=True)
    _require_square(arr, "k")
    s = np.linalg.svd(arr, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= max(arr.shape) * _EPS * s[0]:
        raise SingularMatrixError(
            "matrix is singular to working precision; logarithm undefined"
        )
    try:
        eigs = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    on_axis = (eigs.real < 0.0) & (np.abs(eigs.imag) <= 1e-12 * np.abs(eigs))
    if np.any(on_axis):
        warnings.warn(
            "eigenvalue on the closed negative real axis; principal logarithm "
            "is complex valued",
            NegativeRealAxisWarning,
            stacklevel=2,
        )
    with warnings.catch_warnings():
        # SciPy's accuracy warning is not part of this API's contract
        warnings.filterwarnings("ignore", "logm result may be inaccurate", RuntimeWarning)
        return np.asarray(scipy.linalg.logm(arr), dtype=complex)


def matrix_exp(l):
    """Matrix exponential (scaling-and-squaring with Pade approximant)."""
    arr = _as_matrix(l, "l", complex_ok=True)
    _require_square(arr, "l")
    return scipy.linalg.expm(arr)


def eigenvalues(a):
    """Full eigenvalue multiset of a square matrix.

    Returns a complex array sorted by (real part, imaginary part) so that
    downstream output is reproducible.
    """
    arr = _as_matrix(a, "a", complex_ok=True)
    _require_square(arr, "a")
    try:
        w = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration did not converge: {exc}") from exc
    order = np.lexsort((w.imag, w.real))
    return w[order]


def cast_real(m, tol=1e-8):
    """Real part of an array plus its largest absolute imaginary part.

    Emits an :class:`ImaginaryResidualWarning` when the residual exceeds
    ``tol``; the caller decides whether the residual is acceptable.

    Returns
    -------
    (np.ndarray, float)
        Real-valued array and ``max |Im m|``.
    """
    arr = np.asarray(m)
    if np.iscomplexobj(arr):
        residual = float(np.max(np.abs(arr.imag))) if arr.size else 0.0
        real = np.ascontiguousarray(arr.real)
    else:
        residual = 0.0
        real = np.asarray(arr, dtype=float)
    if residual > tol:
        warnings.warn(
            f"imaginary residual {residual:.3e} exceeds tolerance {tol:.1e}",
            ImaginaryResidualWarning,
            stacklevel=2,
        )
    return real, residual


def spectrum_distance(s1, s2):
    """Mean eigenvalue distance under a minimal-cost perfect matching.

    The two spectra are paired by solving the assignment problem with cost
    ``|lambda_a - lambda_b|``; the result is the mean matched distance. This
    is symmetric and invariant under permutation of either argument.
    """
    a = np.atleast_1d(np.asarray(s1, dtype=complex))
    b = np.atleast_1d(np.asarray(s2, dtype=complex))
    if a.ndim != 1 or b.ndim != 1:
        raise DimensionMismatchError("spectra must be 1-D collections of eigenvalues")
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"spectra have different cardinality: {a.shape[0]} vs {b.shape[0]}"
        )
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())

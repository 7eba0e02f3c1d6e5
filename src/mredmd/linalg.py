"""Dense matrix kernels: SVD pseudo-inverse, principal matrix logarithm,
the least-squares Koopman fit built on both, matrix exponential, eigenvalue
extraction, and spectrum comparison.

Matrices are plain ``numpy.ndarray`` values; every operation validates shape
and finiteness on entry and is a pure function of its inputs.
"""

import math
import warnings

import numpy as np
import scipy.linalg

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


def pinv(a):
    """Moore-Penrose pseudo-inverse via SVD with relative truncation.

    Singular values below ``max(m, n) * machine_epsilon * sigma_max`` are
    truncated.

    Parameters
    ----------
    a : array_like
        Real matrix, shape (m, n).

    Returns
    -------
    np.ndarray
        Pseudo-inverse, shape (n, m).
    """
    arr = _as_matrix(a, "a")
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((arr.shape[1], arr.shape[0]))
    keep = s > max(arr.shape) * _EPS * s[0]
    r = int(np.count_nonzero(keep))
    return (vh[:r].T / s[:r]) @ u[:, :r].T


def koopman_fit(p_x, p_y, step):
    """Least-squares Koopman fit K = P_y P_x^+ and its generator
    L = log(K) / step, shared by the Hankel and EDMD steps.

    ``L`` stays complex; a largest imaginary part above 1e-6 emits an
    :class:`ImaginaryResidualWarning`.

    Returns
    -------
    (np.ndarray, np.ndarray)
        ``k_mat`` (real) and ``l_complex``, both (N, N).

    Raises
    ------
    SingularMatrixError
        If the fitted K is singular so no generator exists.
    """
    k_mat = p_y @ pinv(p_x)
    l_complex = matrix_log(k_mat) / step
    cast_real(l_complex, tol=1e-6)  # for its warning; callers keep L complex
    return k_mat, l_complex


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
    if not np.all(np.isfinite(cost)):
        raise DimensionMismatchError("spectra contain non-finite eigenvalues")
    return float(cost[np.arange(a.shape[0]), _assignment(cost)].mean())


def _assignment(cost):
    """Column matched to each row in a minimum-cost perfect matching of a
    square cost matrix.

    Shortest augmenting paths (Crouse, IEEE TAES 2016) with the column order
    and tie rules of SciPy's ``linear_sum_assignment``, so ties give the
    same matching, without loading ``scipy.optimize``.
    """
    n, cost = len(cost), cost.tolist()
    u, v, col4row, row4col, path = [0.0] * n, [0.0] * n, [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        shortest, rows, cols = [math.inf] * n, [], []
        remaining, i, min_val, sink = list(range(n - 1, -1, -1)), cur, 0.0, -1
        while sink < 0:
            rows.append(i)
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j], shortest[j] = i, r
                # among equal costs prefer a free column, which ends the path
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] < 0):
                    index, lowest = it, shortest[j]
            min_val, j = lowest, remaining[index]
            cols.append(j)
            sink, i = (j, i) if row4col[j] < 0 else (-1, row4col[j])
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for k in rows[1:]:
            u[k] += min_val - shortest[col4row[k]]
        for k in cols:
            v[k] -= min_val - shortest[k]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row

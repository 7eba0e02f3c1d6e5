"""Dense matrix kernels: SVD pseudo-inverse, principal matrix logarithm,
the least-squares Koopman fit built on both, matrix exponential, eigenvalue
extraction, and spectrum comparison.

Matrices are plain ``numpy.ndarray`` values; every operation validates shape
and finiteness on entry and is a pure function of its inputs.
"""

import functools
import math
import warnings

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    IllConditionedWarning,
    ImaginaryResidualWarning,
    NegativeRealAxisWarning,
    NumericalError,
    SingularMatrixError,
)

_EPS = float(np.finfo(float).eps)

#: Condition number of P_x above which a Koopman fit warns.
COND_WARN_THRESHOLD = 1e12

#: theta_m bounds the spectral quantity alpha_p(T - I) for which the
#: degree-m Pade approximant of log(I + X) is accurate to double precision
#: (Al-Mohy & Higham 2012, Table 2.1); index m = 1..7.
_THETA = (None, 1.59e-5, 2.31e-3, 1.94e-2, 6.21e-2, 1.28e-1, 2.06e-1, 2.88e-1)

#: Largest imaginary part of the log of a real matrix taken as rounding
#: (the rule of SciPy's matrix functions).
_REAL_TOL = 1e6 * _EPS


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
    return _pinv_svd(a)[0]


def _pinv_svd(a):
    """:func:`pinv` of ``a`` and the singular values of ``a`` it used (descending)."""
    arr = _as_matrix(a, "a")
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    if s[0] == 0.0:
        return np.zeros((arr.shape[1], arr.shape[0])), s
    keep = s > max(arr.shape) * _EPS * s[0]
    r = int(np.count_nonzero(keep))
    return (vh[:r].T / s[:r]) @ u[:, :r].T, s


def koopman_fit(p_x, p_y, step):
    """Least-squares Koopman fit K = P_y P_x^+ and its generator
    L = log(K) / step, shared by the Hankel and EDMD steps.

    Warns :class:`IllConditionedWarning` first if cond(P_x), read off the
    pseudo-inverse's SVD, exceeds 1e12. ``L`` stays complex; a largest
    imaginary part above 1e-6 emits an :class:`ImaginaryResidualWarning`.

    Returns
    -------
    (np.ndarray, np.ndarray)
        ``k_mat`` (real) and ``l_complex``, both (N, N).

    Raises
    ------
    SingularMatrixError
        If the fitted K is singular so no generator exists.
    """
    p_x_pinv, sigma = _pinv_svd(p_x)
    cond = float(sigma[0] / sigma[-1]) if sigma[-1] > 0.0 else math.inf
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"P_x condition number {cond:.3e} exceeds 1e12; its rows are nearly collinear",
            IllConditionedWarning,
            stacklevel=2,
        )
    k_mat = p_y @ p_x_pinv
    l_complex = matrix_log(k_mat) / step
    cast_real(l_complex, tol=1e-6)  # for its warning; callers keep L complex
    return k_mat, l_complex


def matrix_log(k):
    """Principal matrix logarithm of a nonsingular square matrix.

    The result is always complex; eigenvalues of the result have imaginary
    parts in (-pi, pi]. When an eigenvalue of ``k`` lies on the closed
    negative real axis the principal logarithm is genuinely complex and a
    :class:`NegativeRealAxisWarning` is emitted. For real ``k`` an imaginary
    part no larger than 1e6 machine epsilons everywhere is rounding and is
    set to zero.

    One complex Schur form ``k = Z T Z^H`` gives the eigenvalues for the
    branch-cut test and the triangular factor for inverse scaling and
    squaring (Al-Mohy & Higham, SIAM J. Sci. Comput. 2012, Alg. 4.1). The
    Pade degree and the number of square roots come from exact 1-norms of
    ``(T - I)^p``, so the result is a deterministic function of ``k``.

    Raises
    ------
    SingularMatrixError
        If ``k`` is singular to working precision.
    NumericalError
        If the Schur form fails or the result is not finite.
    """
    arr = _as_matrix(k, "k", complex_ok=True)
    _require_square(arr, "k")
    s = np.linalg.svd(arr, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= max(arr.shape) * _EPS * s[0]:
        raise SingularMatrixError(
            "matrix is singular to working precision; logarithm undefined"
        )
    try:
        t, z = scipy.linalg.schur(arr, output="complex", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Schur decomposition failed: {exc}") from exc
    eigs = np.diagonal(t)
    on_axis = (eigs.real < 0.0) & (np.abs(eigs.imag) <= 1e-12 * np.abs(eigs))
    if np.any(on_axis):
        warnings.warn(
            "eigenvalue on the closed negative real axis; principal logarithm "
            "is complex valued",
            NegativeRealAxisWarning,
            stacklevel=2,
        )
    # Z is unitary to some n eps only, and a non-normal log (||U|| >> ||L||)
    # multiplies that error by ||U||: one Newton-Schulz step toward the
    # unitary polar factor brings Z back to working precision
    z = z @ (1.5 * np.eye(len(z)) - 0.5 * (z.conj().T @ z))
    out = z @ _log_triangular(t) @ z.conj().T
    if not np.all(np.isfinite(out)):
        raise NumericalError("matrix logarithm is not finite")
    if not np.iscomplexobj(arr) and np.max(np.abs(out.imag)) <= _REAL_TOL:
        out = out.real.astype(complex)
    return out


def _log_triangular(t0):
    """Principal logarithm of a nonsingular upper triangular complex matrix
    by inverse scaling and squaring (Al-Mohy & Higham 2012, Alg. 4.1)."""
    n = len(t0)
    diag0 = np.diagonal(t0)
    # s0: square roots until every eigenvalue is within theta_7 of 1
    s, roots = 0, diag0
    while np.max(np.abs(roots - 1.0)) > _THETA[7]:
        roots, s = np.sqrt(roots), s + 1
    t = t0
    for _ in range(s):
        t = scipy.linalg.sqrtm(t)
    alpha = _power_norms(t)
    m = next((i for i in (1, 2) if max(alpha[2], alpha[3]) <= _THETA[i]), None)
    extra = 0
    while m is None:
        a3 = max(alpha[3], alpha[4])
        m = next((i for i in range(3, 7) if a3 <= _THETA[i]), None)
        if m is not None:
            break
        if a3 <= _THETA[7] and a3 / 2 <= _THETA[5] and extra < 2:
            # one more root lowers the degree by more than it costs
            extra += 1
        else:
            eta = min(a3, max(alpha[4], alpha[5]))
            m = next((i for i in (6, 7) if eta <= _THETA[i]), None)
            if m is not None:
                break
        t, s = scipy.linalg.sqrtm(t), s + 1
        alpha = _power_norms(t)

    r = t - np.eye(n)
    # diagonal and first superdiagonal of T0^(1/2^s) - I and of log(T0) from
    # T0 itself, without cancellation, where the principal branch exists
    on_cut = np.any((diag0.real <= 0.0) & (diag0.imag == 0.0))
    upper = (np.arange(n - 1), np.arange(1, n))
    if not on_cut:
        power_dd, log_dd = _divided_differences(diag0, 2.0**-s)
        np.fill_diagonal(r, _root_minus_one(diag0, s))
        r[upper] = t0[upper] * power_dd

    # U = 2^s r_m(R), r_m(X) = sum_j w_j (I + x_j X)^-1 X on Gauss-Legendre nodes
    nodes, weights = _gauss_legendre(m)
    lhs, rhs = np.eye(n) + nodes * r, weights * r
    u = np.zeros_like(r)
    for j in range(m):
        x, info = scipy.linalg.lapack.ztrtrs(lhs[j], rhs[j])
        if info != 0:
            raise NumericalError(f"triangular solve failed (info={info})")
        u += x
    u *= 2.0**s
    if not on_cut:
        np.fill_diagonal(u, np.log(diag0))
        u[upper] = t0[upper] * log_dd
    return u


def _power_norms(t):
    """alpha_p = ||(T - I)^p||_1^(1/p) for p = 2..5, computed exactly."""
    r = t - np.eye(len(t))
    r2 = r @ r
    r4 = r2 @ r2
    norms = np.abs(np.stack((r2, r2 @ r, r4, r4 @ r))).sum(axis=1).max(axis=1)
    return dict(zip(range(2, 6), (norms ** (1.0 / np.arange(2, 6))).tolist()))


def _root_minus_one(a, s):
    """``a**(1/2**s) - 1`` elementwise, free of the cancellation near a = 1
    (Al-Mohy, Numer. Algorithms 2012, Alg. 2)."""
    if s == 0:
        return a - 1.0
    # a^(1/2^s) - 1 = (a^(1/2^j) - 1) / prod_{i=j+1..s} (1 + a^(1/2^i)), from
    # j = 0, or from j = 1 where a is far from 1 in angle
    root = np.sqrt(a)
    wide = np.abs(np.angle(a)) >= np.pi / 2
    out = np.where(wide, root - 1.0, (a - 1.0) / (1.0 + root))
    for _ in range(s - 1):
        root = np.sqrt(root)
        out = out / (1.0 + root)
    return out


def _divided_differences(lam, p):
    """Divided differences f[lam_i, lam_i+1] of f = z**p and of f = log.

    The superdiagonal entry of f([[l1, t], [0, l2]]) is ``t * f[l1, l2]``.
    Where l1 and l2 are close the difference quotient cancels, so it is
    rewritten through atanh((l2 - l1) / (l2 + l1)) and the unwinding number
    (Higham, Functions of Matrices, 2008, eq. 11.28; Higham & Lin, SIAM J.
    Matrix Anal. Appl. 2011, eq. 5.6).
    """
    log, power = np.log(lam), lam**p
    l1, l2, log1, log2 = lam[:-1], lam[1:], log[:-1], log[1:]
    diff, log_diff = l2 - l1, log2 - log1
    far = np.abs(diff) > 0.5 * np.abs(l1 + l2)
    with np.errstate(divide="ignore", invalid="ignore"):
        unwind = np.ceil((log_diff.imag - np.pi) / (2 * np.pi))
        atanh = np.arctanh(diff / (l2 + l1)) + 1j * np.pi * unwind
        power_dd = np.where(
            far,
            power[1:] - power[:-1],
            2.0 * np.exp(0.5 * p * (log1 + log2)) * np.sinh(p * atanh),
        )
        log_dd = np.where(far, log_diff, 2.0 * atanh)
        power_dd, log_dd = power_dd / diff, log_dd / diff
    equal = l1 == l2
    return (
        np.where(equal, p * power[:-1] / l1, power_dd),
        np.where(equal, 1.0 / l1, log_dd),
    )


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m):
    """Gauss-Legendre nodes and weights of degree m on [0, 1], each shaped
    (m, 1, 1) to scale a stack of matrices."""
    x, w = np.polynomial.legendre.leggauss(m)
    nodes, weights = (0.5 + 0.5 * x)[:, None, None], (0.5 * w)[:, None, None]
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights



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

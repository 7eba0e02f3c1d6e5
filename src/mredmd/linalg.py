"""Dense matrix kernels: SVD pseudo-inverse, principal matrix logarithm,
the least-squares Koopman fit built on both, matrix exponential, eigenvalue
extraction, and spectrum comparison.

Matrices are plain ``numpy.ndarray`` values; every operation validates shape
and finiteness on entry and is a pure function of its inputs.
"""

import math
import warnings

import numpy as np

from .errors import (
    DimensionMismatchError,
    IllConditionedWarning,
    ImaginaryResidualWarning,
    NegativeRealAxisWarning,
    NumericalError,
    SingularMatrixError,
    check_number,
    quiet,
)

_EPS = float(np.finfo(float).eps)

#: Condition number of P_x above which a Koopman fit warns.
COND_WARN_THRESHOLD = 1e12

#: Imaginary residual above which :func:`cast_real` warns.
IMAG_RESIDUAL_TOL = 1e-6

#: theta_7 bounds the spectral quantity eta(R) for which the degree-7 Pade
#: approximant of log(I + R) is accurate to double precision (Al-Mohy &
#: Higham 2012, Table 2.1).
_THETA_7 = 2.88e-1

#: Largest imaginary part of the log of a real matrix taken as rounding
#: (the rule of SciPy's matrix functions).
_REAL_TOL = 1e6 * _EPS


def _as_matrix(a, name, complex_ok=False):
    """Validate and return ``a`` as a finite 2-D array or a finite stack of
    matrices, shape (B, m, n)."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "biufc":
        raise DimensionMismatchError(f"{name} must be numeric, got dtype {arr.dtype}")
    if not complex_ok and np.iscomplexobj(arr):
        raise DimensionMismatchError(f"{name} must be real, got complex entries")
    arr = arr.astype(complex if np.iscomplexobj(arr) else float, copy=False)
    if arr.ndim not in (2, 3):
        raise DimensionMismatchError(
            f"{name} must be 2-D or a stack (B, m, n), got shape {arr.shape}"
        )
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return arr


def _require_square(arr, name):
    if arr.shape[-2] != arr.shape[-1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")


def _per_matrix(kernel, stacks, *args):
    """``kernel(*stacks, *args)``, a tuple of (B, ., .) stacks, each matrix
    with the bits of its own B=1 call; 2-D operands are the B=1 case and
    give 2-D results. A stack of more than one that warns or fails runs
    again one matrix at a time (:func:`errors.quiet`), so its warnings and
    errors are those of a loop of 2-D calls; a kernel warns with
    ``stacklevel=4``, at the caller of the public function."""
    if stacks[0].ndim == 2:
        return tuple(out[0] for out in kernel(*(s[None] for s in stacks), *args))
    if len(stacks[0]) > 1:
        clean, out = quiet(lambda: kernel(*stacks, *args))
        if clean:
            return out
    parts = []
    for i in range(len(stacks[0])):
        parts.append(kernel(*(s[i : i + 1] for s in stacks), *args))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _pinv_svd(arr):
    """SVD pseudo-inverse (B, n, m) of each matrix of a (B, m, n) stack, and
    its singular values (B, min(m, n)), descending. Each matrix keeps its
    own rank, cut below max(m, n) * eps * sigma_max; the matrices of one
    rank are inverted together.

    A wide stack (m < n) is factored through its transpose, P^T = W S Z^T,
    so P = Z S W^T: LAPACK's QR-first path for the tall P^T costs about
    half its LQ-first path for P. Square and tall stacks are factored as
    given."""
    try:
        if arr.shape[1] < arr.shape[2]:
            w, s, z_t = np.linalg.svd(arr.transpose(0, 2, 1), full_matrices=False)
            u, vh = z_t.transpose(0, 2, 1), w.transpose(0, 2, 1)
        else:
            u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    rank = np.count_nonzero(s > max(arr.shape[1:]) * _EPS * s[:, :1], axis=1)
    if rank[0] > 0 and (rank == rank[0]).all():
        return _svd_inverse(u, s, vh, rank[0]), s
    out = np.zeros((len(arr), arr.shape[2], arr.shape[1]))
    for r in sorted(set(rank[rank > 0].tolist())):
        sel = rank == r
        out[sel] = _svd_inverse(u[sel], s[sel], vh[sel], r)
    return out, s


def _svd_inverse(u, s, vh, r):
    """V_r S_r^-1 U_r^T of each SVD (u, s, vh) of a stack, from its first
    r singular values; scales ``vh`` in place."""
    v_t = vh[:, :r]
    v_t /= s[:, :r, None]
    return v_t.transpose(0, 2, 1) @ u[:, :, :r].transpose(0, 2, 1)


def koopman_fit(p_x, p_y, step):
    """Least-squares Koopman fit K = P_y P_x^+ and its generator
    L = log(K) / step, shared by the Hankel and EDMD steps.

    Warns :class:`IllConditionedWarning` first if cond(P_x), read off the
    pseudo-inverse's SVD, exceeds 1e12. ``L`` stays complex; a largest
    imaginary part above 1e-6 emits an :class:`ImaginaryResidualWarning`.

    ``p_x`` and ``p_y`` may also be stacks (B, N, K) of same-shape problems:
    each fit then has the bits, warnings and errors of its own 2-D call
    (see :func:`matrix_log`), and the results are stacked too.

    Returns
    -------
    (np.ndarray, np.ndarray)
        ``k_mat`` (real) and ``l_complex``, both (N, N), or (B, N, N).

    Raises
    ------
    ConfigurationError
        If ``step`` is not a finite real number > 0 (bools refused).
    DimensionMismatchError
        If ``p_x`` or ``p_y`` is not a finite real matrix or stack, or
        their shapes differ.
    SingularMatrixError
        If the fitted K is singular so no generator exists.
    """
    step = check_number(step, "step", positive=True)
    p_x, p_y = _as_matrix(p_x, "p_x"), _as_matrix(p_y, "p_y")
    if p_y.shape != p_x.shape:
        raise DimensionMismatchError(
            f"p_y has shape {p_y.shape}, p_x has shape {p_x.shape}; they must match"
        )
    return _per_matrix(_koopman_fit, (p_x, p_y), step)


def _koopman_fit(p_x, p_y, step):
    """:func:`koopman_fit` of (B, N, K) stacks."""
    p_x_pinv, sigma = _pinv_svd(p_x)
    cond = np.full(len(sigma), math.inf)
    np.divide(sigma[:, 0], sigma[:, -1], out=cond, where=sigma[:, -1] > 0.0)
    for value in cond[cond > COND_WARN_THRESHOLD].tolist():
        warnings.warn(
            f"P_x condition number {value:.3e} exceeds 1e12; its rows are nearly collinear",
            IllConditionedWarning,
            stacklevel=4,
        )
    k_mat = p_y @ p_x_pinv
    del p_x_pinv  # a large stack's logs need its room
    _as_matrix(k_mat, "k")  # an overflowed product is not finite
    l_complex = _matrix_log(k_mat)[0] / step
    cast_real(l_complex)  # for its warning; callers keep L complex
    return k_mat, l_complex


def matrix_log(k):
    """Principal matrix logarithm of a nonsingular square matrix.

    The result is always complex; eigenvalues of the result have imaginary
    parts in (-pi, pi]. When an eigenvalue of ``k`` lies on the closed
    negative real axis the principal logarithm is genuinely complex and a
    :class:`NegativeRealAxisWarning` is emitted. For real ``k`` an imaginary
    part no larger than 1e6 machine epsilons everywhere is rounding and is
    set to zero.

    Transformation-free inverse scaling and squaring (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 2012, Sec. 5) in NumPy alone: the eigenvalues only
    test for the branch cut and rotate a first root there, square roots come
    from Newton's iteration carried as ``X - I``, taken from the first until
    exact 1-norms of ``(X - I)^p`` put it where the degree-7 Pade approximant
    is accurate, the only approximant used, so the result is a deterministic
    function of ``k``.

    ``k`` may also be a stack (B, N, N), whose logs run as one: each matrix
    keeps its own root count and Newton stopping, so it gets the bits of
    its own 2-D call. A stack that warns or fails runs again one
    matrix at a time, giving the warnings and errors of a loop of 2-D calls.

    Raises
    ------
    SingularMatrixError
        If ``k`` is singular to working precision.
    NumericalError
        If the eigenvalues, a square root or a solve fail, or the result is
        not finite.
    """
    arr = _as_matrix(k, "k", complex_ok=True)
    _require_square(arr, "k")
    (out,) = _per_matrix(_matrix_log, (arr,))
    return out


def _matrix_log(arr):
    """:func:`matrix_log` of a (B, N, N) stack, as a 1-tuple."""
    s = np.linalg.svd(arr, compute_uv=False)
    if np.any(s[:, -1] <= arr.shape[-1] * _EPS * s[:, 0]):
        raise SingularMatrixError(
            "matrix is singular to working precision; logarithm undefined"
        )
    try:
        eigs = np.linalg.eigvals(arr).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration did not converge: {exc}") from exc
    on_axis = (eigs.real < 0.0) & (np.abs(eigs.imag) <= 1e-12 * np.abs(eigs))
    if np.any(on_axis):
        warnings.warn(
            "eigenvalue on the closed negative real axis; principal logarithm "
            "is complex valued",
            NegativeRealAxisWarning,
            stacklevel=4,
        )
    out = _log_inverse_scaling_squaring(arr, eigs, on_axis).astype(complex, copy=False)
    if not np.all(np.isfinite(out)):
        raise NumericalError("matrix logarithm is not finite")
    if not np.iscomplexobj(arr):
        real = np.abs(out.imag).max(axis=(1, 2)) <= _REAL_TOL
        out[real] = out[real].real
    return (out,)


def _log_inverse_scaling_squaring(a, eigs, on_axis):
    """log(a) = 2^s r_7(a^(1/2^s) - I) of each matrix of a (B, N, N) stack,
    given the eigenvalues ``eigs`` (B, N) of ``a`` and the mask ``on_axis``
    of those on the closed negative real axis (Al-Mohy & Higham 2012,
    Sec. 5). Each root is carried as ``R = X - I``, so R stays accurate
    relative to its own size as X nears I. Each matrix takes roots while
    eta(R) > theta_7 (:func:`_eta`), from the first one, so its root count
    s is the least at which the degree-7 Pade approximant r_7 is accurate
    to double precision. The eigenvalues only place a matrix on the branch
    cut and give its first root's rotation. Matrices still rooting run
    together, and r_7 is one solve for the whole stack."""
    ident = np.eye(a.shape[-1])
    s = np.zeros(len(a), dtype=int)
    r = a - ident
    cut = np.flatnonzero(on_axis.any(axis=1))
    if cut.size:
        # Newton does not converge with an eigenvalue on the cut: take
        # e^(i phi/2) sqrt(e^(-i phi) A), the principal root while every
        # eigenvalue argument lies in (phi - pi, phi + pi]
        angles = np.where(on_axis[cut], np.pi, np.angle(eigs[cut]))
        phi = 0.5 * (np.pi + angles.min(axis=1))
        half = np.exp(0.5j * phi)[:, None, None]
        rotated = np.exp(-1j * phi)[:, None, None] * a[cut] - ident
        r = r.astype(complex)
        r[cut] = half * _sqrt_minus_identity(rotated) + (half - 1.0) * ident
        s[cut] = 1
    open_ = np.flatnonzero(_eta(r) > _THETA_7)
    while open_.size:
        r[open_] = _sqrt_minus_identity(r[open_])
        s[open_] += 1
        open_ = open_[_eta(r[open_]) > _THETA_7]

    # r_7(R) = sum_j w_j (I + x_j R)^-1 R on Gauss-Legendre nodes x_j
    rs = r[:, None]
    try:
        terms = np.linalg.solve(ident + _GAUSS_NODES * rs, _GAUSS_WEIGHTS * rs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Pade solve failed: {exc}") from exc
    return 2.0 ** s[:, None, None] * terms.sum(axis=1)


#: Newton's square-root iteration stops once its next correction, predicted
#: from the last two, is below this fraction of the first, R/2 (max-abs
#: norm).
_SQRT_TOL = 1e-16
_SQRT_MAX_STEPS = 100


def _sqrt_minus_identity(r):
    """(I + R)^(1/2) - I, principal root, of each matrix R of a (B, N, N)
    stack, for (I + R) with no eigenvalue on the closed negative real axis.

    Newton's iteration in its incremental ("IN") form (Higham, Functions
    of Matrices, 2008, ch. 6) from X_0 = I + R and E_0 = -R/2:
    X_k+1 = X_k + E_k and E_k+1 = -E_k X_k+1^-1 E_k / 2. It is stable, it
    sums the increments into ``X - I`` without forming X, and it inverts
    only iterates between (I + A) / 2 and A^(1/2): the
    product form of Denman-Beavers inverts A itself and leaves a residual
    ``||X^2 - A||`` of about cond(A) eps. Each matrix stops on its own.
    """
    ident = np.eye(r.shape[-1])
    e, r = -0.5 * r, 0.5 * r
    size = np.abs(e).max(axis=(1, 2))
    tol = _SQRT_TOL * size
    out, running = np.empty_like(r), np.arange(len(r))
    for _ in range(_SQRT_MAX_STEPS):
        try:
            e = -0.5 * (e @ np.linalg.solve(ident + r, e))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"square root iteration failed: {exc}") from exc
        r = r + e
        last, size = size, np.abs(e).max(axis=(1, 2))
        # the next correction is about size^2 / last once convergence is
        # quadratic, and about size times the contraction factor before
        done = size * size <= tol * last
        if done.any():
            out[running[done]] = r[done]
            going = ~done
            running, e, r, size, tol = running[going], e[going], r[going], size[going], tol[going]
            if not running.size:
                return out
    raise NumericalError("square root iteration did not converge")


def _eta(r):
    """eta = min(max(alpha_3, alpha_4), max(alpha_4, alpha_5)) of each
    matrix of a (B, N, N) stack, with alpha_p = ||R^p||_1^(1/p) computed
    exactly; shape (B,)."""
    r2 = r @ r
    r4 = r2 @ r2
    norms = np.abs(np.stack((r2 @ r, r4, r4 @ r), axis=1)).sum(axis=2).max(axis=2)
    a3, a4, a5 = (norms ** (1.0 / np.arange(3, 6))).T
    return np.minimum(np.maximum(a3, a4), np.maximum(a4, a5))


#: Gauss-Legendre nodes and weights of degree 7 on [0, 1], shaped (7, 1, 1)
#: to scale a stack of matrices: ``0.5 + 0.5 x`` and ``0.5 w`` of NumPy's
#: ``leggauss(7)``, bit for bit, so a run need not load ``numpy.polynomial``.
_GAUSS_NODES = np.array([
    0.0254460438286207, 0.12923440720030277, 0.2970774243113014, 0.5,
    0.7029225756886985, 0.8707655927996972, 0.9745539561713793,
])[:, None, None]
_GAUSS_WEIGHTS = np.array([
    0.06474248308443487, 0.13985269574463843, 0.19091502525255935,
    0.20897959183673465, 0.19091502525255935, 0.13985269574463843,
    0.06474248308443487,
])[:, None, None]
_GAUSS_NODES.flags.writeable = _GAUSS_WEIGHTS.flags.writeable = False


#: theta_13 bounds ||A||_1 for which the degree-13 Pade approximant of exp(A)
#: is accurate to double precision (Higham, SIAM J. Matrix Anal. Appl. 2005).
_THETA_13 = 5.371920351148152e0

#: Coefficients b_0..b_13 of the degree-13 Pade approximant of exp, over b_0
#: so that exp(0) is I exactly, as rows (b_0, b_2, ...) and (b_1, b_3, ...).
_EXP_PADE = (
    np.array((
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
        33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
    ))
    / 64764752532480000.0
).reshape(-1, 2).T


def matrix_exp(l):
    """Matrix exponential by scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 2005): the degree-13 Pade approximant of exp(2^-s L),
    squared s times, where s is the least count that brings the exact
    1-norm of 2^-s L to theta_13 or below.

    ``l`` may also be a stack (B, N, N), whose exponentials run as one: the
    Pade approximants of the whole stack take one solve, then each matrix
    is squared its own number of times, so it gets the bits of its own 2-D
    call. A stack whose solve fails runs again one matrix at a time,
    raising the error of the first matrix that fails alone.

    Raises
    ------
    NumericalError
        If the Pade solve fails.
    """
    arr = _as_matrix(l, "l", complex_ok=True)
    _require_square(arr, "l")
    (out,) = _per_matrix(_matrix_exp, (arr,))
    return out


def _matrix_exp(arr):
    """:func:`matrix_exp` of a (B, N, N) stack, as a 1-tuple."""
    norms = np.abs(arr).sum(axis=1).max(axis=1).tolist()
    s = [math.ceil(math.log2(x / _THETA_13)) if x > _THETA_13 else 0 for x in norms]
    a = arr * np.ldexp(1.0, -np.array(s))[:, None, None] if max(s) else arr
    # V = sum b_2j A^2j and U = A sum b_2j+1 A^2j from I, A^2, A^4 and A^6,
    # where A^6 also multiplies the terms above A^6
    b, n = a.shape[:2]
    powers = np.empty((b, 4, n, n), a.dtype)
    powers[:, 0] = np.eye(n)
    np.matmul(a, a, powers[:, 1])
    for k in (2, 3):
        np.matmul(powers[:, k - 1], powers[:, 1], powers[:, k])
    # one (2, 4) @ (4, N^2) product per matrix, as in a loop of 2-D calls
    flat = powers.reshape(b, 4, n * n)
    low = (_EXP_PADE[:, :4] @ flat).reshape(b, 2, n, n)
    high = (_EXP_PADE[:, 4:] @ flat[:, 1:]).reshape(b, 2, n, n)
    v = low[:, 0] + powers[:, 3] @ high[:, 0]
    u = a @ (low[:, 1] + powers[:, 3] @ high[:, 1])
    try:
        r = np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Pade solve failed: {exc}") from exc
    for j in range(max(s)):
        act = [i for i, count in enumerate(s) if count > j]
        r[act] = r[act] @ r[act]
    return (r,)


def eigenvalues(a):
    """Full eigenvalue multiset of a square matrix, or of each matrix of a
    stack (B, N, N).

    Returns a complex array, (N,) or (B, N), each matrix's eigenvalues
    sorted by (real part, imaginary part) so that downstream output is
    reproducible. Each matrix of a stack gets the bits of its own call.
    """
    arr = _as_matrix(a, "a", complex_ok=True)
    _require_square(arr, "a")
    try:
        w = np.linalg.eigvals(arr).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration did not converge: {exc}") from exc
    return np.take_along_axis(w, np.lexsort((w.imag, w.real)), axis=-1)


def cast_real(m):
    """Real part of an array plus its largest absolute imaginary part.

    Emits an :class:`ImaginaryResidualWarning` above ``IMAG_RESIDUAL_TOL``;
    the caller decides whether the residual is acceptable.

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
    if residual > IMAG_RESIDUAL_TOL:
        warnings.warn(
            f"imaginary residual {residual:.3e} exceeds tolerance {IMAG_RESIDUAL_TOL:.1e}",
            ImaginaryResidualWarning,
            stacklevel=2,
        )
    return real, residual


def spectrum_distance(s1, s2):
    """Mean eigenvalue distance under a minimal-cost perfect matching.

    The two spectra are paired by solving the assignment problem with cost
    ``|lambda_a - lambda_b|``; the result is the mean matched distance. This
    is symmetric and invariant under permutation of either argument. Two
    equal arrays are 0.0 without a solve: the identity matching costs 0.
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
    if np.array_equal(a, b):
        return 0.0
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

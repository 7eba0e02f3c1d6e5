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

from .errors import (
    DimensionMismatchError,
    IllConditionedWarning,
    ImaginaryResidualWarning,
    NegativeRealAxisWarning,
    NumericalError,
    SingularMatrixError,
    quiet,
)

_EPS = float(np.finfo(float).eps)

#: Condition number of P_x above which a Koopman fit warns.
COND_WARN_THRESHOLD = 1e12

#: Imaginary residual above which :func:`cast_real` warns.
IMAG_RESIDUAL_TOL = 1e-6

#: theta_m bounds the spectral quantity alpha_p(R) for which the degree-m
#: Pade approximant of log(I + R) is accurate to double precision
#: (Al-Mohy & Higham 2012, Table 2.1); index m = 1..7.
_THETA = (None, 1.59e-5, 2.31e-3, 1.94e-2, 6.21e-2, 1.28e-1, 2.06e-1, 2.88e-1)

#: Largest imaginary part of the log of a real matrix taken as rounding
#: (the rule of SciPy's matrix functions).
_REAL_TOL = 1e6 * _EPS


def _as_matrix(a, name="matrix", complex_ok=False, stack=False):
    """Validate and return ``a`` as a finite 2-D array, or with ``stack`` also
    as a finite stack of matrices, shape (B, m, n)."""
    arr = np.asarray(a)
    if not complex_ok and np.iscomplexobj(arr):
        raise DimensionMismatchError(f"{name} must be real, got complex entries")
    arr = arr.astype(complex if np.iscomplexobj(arr) else float, copy=False)
    if arr.ndim != 2 and not (stack and arr.ndim == 3):
        shapes = "2-D or a stack (B, m, n)" if stack else "2-D"
        raise DimensionMismatchError(f"{name} must be {shapes}, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return arr


def _require_square(arr, name="matrix"):
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
    rank are inverted together."""
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    rank = np.count_nonzero(s > max(arr.shape[1:]) * _EPS * s[:, :1], axis=1)
    if rank[0] > 0 and (rank == rank[0]).all():
        return _svd_inverse(u, s, vh, rank[0]), s
    out = np.zeros((len(arr), arr.shape[2], arr.shape[1]))
    for r in np.unique(rank[rank > 0]).tolist():
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
    SingularMatrixError
        If the fitted K is singular so no generator exists.
    """
    return _per_matrix(_koopman_fit, (_as_matrix(p_x, "p_x", stack=True), np.asarray(p_y)), step)


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
    l_complex = matrix_log(k_mat) / step
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
    SIAM J. Sci. Comput. 2012, Sec. 5) in NumPy alone: the eigenvalues give
    the branch-cut test and the first root count, square roots come from
    Newton's iteration carried as ``X - I``, and the Pade degree and any
    further roots come from exact 1-norms of ``(X - I)^p``, so the result
    is a deterministic function of ``k``.

    ``k`` may also be a stack (B, N, N), whose logs run as one: each matrix
    keeps its own root count, Newton stopping and Pade degree, so it gets
    the bits of its own 2-D call. A stack that warns or fails runs again one
    matrix at a time, giving the warnings and errors of a loop of 2-D calls.

    Raises
    ------
    SingularMatrixError
        If ``k`` is singular to working precision.
    NumericalError
        If the eigenvalues, a square root or a solve fail, or the result is
        not finite.
    """
    arr = _as_matrix(k, "k", complex_ok=True, stack=True)
    _require_square(arr, "k")
    (out,) = _per_matrix(_matrix_log, (arr,))
    return out


def _matrix_log(arr):
    """:func:`matrix_log` of a (B, N, N) stack, as a 1-tuple."""
    s = np.linalg.svd(arr, compute_uv=False)
    if np.any((s[:, 0] == 0.0) | (s[:, -1] <= arr.shape[-1] * _EPS * s[:, 0])):
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


def _degree(x, degrees):
    """Per entry of ``x``, the first of ``degrees`` (ascending) whose
    ``_THETA`` bounds it, or 0 if none does."""
    m = np.zeros(len(x), dtype=int)
    for d in reversed(degrees):
        m[x <= _THETA[d]] = d
    return m


def _log_inverse_scaling_squaring(a, eigs, on_axis):
    """log(a) = 2^s r_m(a^(1/2^s) - I) of each matrix of a (B, N, N) stack,
    given the eigenvalues ``eigs`` (B, N) of ``a`` and the mask ``on_axis``
    of those on the closed negative real axis (Al-Mohy & Higham 2012,
    Sec. 5). Each root is carried as ``R = X - I``, so R stays accurate
    relative to its own size as X nears I. The root count s and the degree
    m are per matrix; matrices still rooting, or of one degree, run
    together."""
    ident = np.eye(a.shape[-1])
    # s: square roots until every eigenvalue is within theta_7 of 1
    s = np.zeros(len(a), dtype=int)
    rooting, roots = np.arange(len(a)), eigs
    while True:
        far = np.abs(roots - 1.0).max(axis=1) > _THETA[7]
        if not far.any():
            break
        rooting, roots = rooting[far], np.sqrt(roots[far])
        s[rooting] += 1
    r = a - ident
    cut = on_axis.any(axis=1)
    if cut.any():
        r = r.astype(complex)
    for j in range(s.max(initial=0)):
        act = s > j
        if j == 0 and cut.any():
            # Newton does not converge with an eigenvalue on the cut: take
            # e^(i phi/2) sqrt(e^(-i phi) A), the principal root while every
            # eigenvalue argument lies in (phi - pi, phi + pi]
            for i in np.flatnonzero(cut).tolist():
                angles = np.where(on_axis[i], np.pi, np.angle(eigs[i]))
                phi = 0.5 * (np.pi + angles.min())
                half = np.exp(0.5j * phi)
                rotated = (np.exp(-1j * phi) * a[i] - ident)[None]
                r[i] = half * _sqrt_minus_identity(rotated)[0] + (half - 1.0) * ident
            act &= ~cut
        if act.any():
            r[act] = _sqrt_minus_identity(r[act])
    alpha = _power_norms(r)  # columns: p = 2, 3, 4, 5
    m = _degree(np.maximum(alpha[:, 0], alpha[:, 1]), (1, 2))
    extra = np.zeros(len(a), dtype=int)
    open_ = np.flatnonzero(m == 0)
    while open_.size:
        al = alpha[open_]
        a3 = np.maximum(al[:, 1], al[:, 2])
        deg = _degree(a3, range(3, 7))
        # one more root lowers the degree by more than it costs
        more = (deg == 0) & (a3 <= _THETA[7]) & (a3 / 2 <= _THETA[5]) & (extra[open_] < 2)
        extra[open_[more]] += 1
        late = (deg == 0) & ~more
        eta = np.minimum(a3, np.maximum(al[:, 2], al[:, 3]))
        deg[late] = _degree(eta[late], (6, 7))
        m[open_] = deg
        open_ = open_[deg == 0]
        if open_.size:
            r[open_] = _sqrt_minus_identity(r[open_])
            s[open_] += 1
            alpha[open_] = _power_norms(r[open_])

    # r_m(R) = sum_j w_j (I + x_j R)^-1 R on Gauss-Legendre nodes x_j
    out = np.empty_like(r)
    for degree in np.unique(m).tolist():
        sel = m == degree
        nodes, weights = _gauss_legendre(degree)
        rs = r[sel][:, None]
        try:
            terms = np.linalg.solve(ident + nodes * rs, weights * rs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Pade solve failed: {exc}") from exc
        out[sel] = 2.0 ** s[sel, None, None] * terms.sum(axis=1)
    return out


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


def _power_norms(r):
    """alpha_p = ||R^p||_1^(1/p) for p = 2..5, computed exactly, of each
    matrix of a (B, N, N) stack; shape (B, 4)."""
    r2 = r @ r
    r4 = r2 @ r2
    norms = np.abs(np.stack((r2, r2 @ r, r4, r4 @ r), axis=1)).sum(axis=2).max(axis=2)
    return norms ** (1.0 / np.arange(2, 6))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m):
    """Gauss-Legendre nodes and weights of degree m on [0, 1], each shaped
    (m, 1, 1) to scale a stack of matrices."""
    x, w = np.polynomial.legendre.leggauss(m)
    nodes, weights = (0.5 + 0.5 * x)[:, None, None], (0.5 * w)[:, None, None]
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


#: theta_m bounds ||A||_1 for which the degree-m Pade approximant of exp(A)
#: is accurate to double precision (Higham, SIAM J. Matrix Anal. Appl. 2005).
_EXP_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}

#: Coefficients b_0..b_m of the degree-m Pade approximant of exp, as rows
#: (b_0, b_2, ...) and (b_1, b_3, ...).
_EXP_PADE = {
    len(b) - 1: np.array(b).reshape(-1, 2).T
    for b in (
        (120.0, 60.0, 12.0, 1.0),
        (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
        (
            17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
            2162160.0, 110880.0, 3960.0, 90.0, 1.0,
        ),
        (
            64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
            33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
        ),
    )
}


def matrix_exp(l):
    """Matrix exponential by scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 2005): the Pade degree m in {3, 5, 7, 9, 13} and the number
    of squarings come from the exact 1-norm of ``l``.

    ``l`` may also be a stack (B, N, N), whose exponentials run as one: each
    matrix keeps its own degree and squaring count, so it gets the bits of
    its own 2-D call, and the matrices of one degree run together. A stack
    whose solve fails runs again one matrix at a time, raising the error of
    the first matrix that fails alone.

    Raises
    ------
    NumericalError
        If the Pade solve fails.
    """
    arr = _as_matrix(l, "l", complex_ok=True, stack=True)
    _require_square(arr, "l")
    (out,) = _per_matrix(_matrix_exp, (arr,))
    return out


def _matrix_exp(arr):
    """:func:`matrix_exp` of a (B, N, N) stack, as a 1-tuple."""
    norms = np.abs(arr).sum(axis=1).max(axis=1).tolist()
    degrees = [next((d for d in (3, 5, 7, 9) if x <= _EXP_THETA[d]), 13) for x in norms]
    squarings = [
        max(0, math.ceil(math.log2(x / _EXP_THETA[13]))) if m == 13 else 0
        for x, m in zip(norms, degrees)
    ]
    if len(set(degrees)) == 1:
        return (_pade_exp(arr, degrees[0], squarings),)
    out = np.empty_like(arr)
    for m in sorted(set(degrees)):
        sel = [i for i, d in enumerate(degrees) if d == m]
        out[sel] = _pade_exp(arr[sel], m, [squarings[i] for i in sel])
    return (out,)


def _pade_exp(arr, m, s):
    """exp of each matrix of a (B, N, N) stack by its degree-m Pade
    approximant of exp(2^-s A), squared s times (a list, per matrix)."""
    a = arr * np.ldexp(1.0, -np.array(s))[:, None, None] if max(s) else arr
    # V = sum b_2j A^2j and U = A sum b_2j+1 A^2j, from the even powers up
    # to A^(m-1), or to A^6 for m = 13, where A^6 multiplies the top terms
    b, n, p = len(a), a.shape[-1], 4 if m == 13 else m // 2 + 1
    powers = np.empty((b, p, n, n), a.dtype)
    powers[:, 0] = np.eye(n)
    np.matmul(a, a, powers[:, 1])
    for k in range(2, p):
        np.matmul(powers[:, k - 1], powers[:, 1], powers[:, k])
    # one (2, p) @ (p, N^2) product per matrix, as in a loop of 2-D calls
    coeffs, flat = _EXP_PADE[m], powers.reshape(b, p, n * n)
    vu = (coeffs[:, :p] @ flat).reshape(b, 2, n, n)
    v, u = vu[:, 0], vu[:, 1]
    if m == 13:
        high = (coeffs[:, 4:] @ flat[:, 1:]).reshape(b, 2, n, n)
        v, u = v + powers[:, 3] @ high[:, 0], u + powers[:, 3] @ high[:, 1]
    u = a @ u
    try:
        r = np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Pade solve failed: {exc}") from exc
    for j in range(max(s)):
        act = [i for i, count in enumerate(s) if count > j]
        r[act] = r[act] @ r[act]
    return r


def eigenvalues(a):
    """Full eigenvalue multiset of a square matrix, or of each matrix of a
    stack (B, N, N).

    Returns a complex array, (N,) or (B, N), each matrix's eigenvalues
    sorted by (real part, imaginary part) so that downstream output is
    reproducible. Each matrix of a stack gets the bits of its own call.
    """
    arr = _as_matrix(a, "a", complex_ok=True, stack=True)
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

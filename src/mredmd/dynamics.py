"""ODE integration, the Lorenz benchmark system, and generation of non-uniformly
sampled trajectory ensembles; no file I/O (``experiments`` exports ensembles).

Each state component i is sampled at instants ``r_i + l * T_i`` for
``l = 0..M_i`` (dead time ``r_i``, period ``T_i``, ``M_i + 1`` samples per
trajectory). Ensembles are integrated on a common micro-grid whose step
divides every dead time and period exactly, so sampled values are copies of
integrated states, never interpolations. Only the states on the sample grid
(``_STEPS_PER_GRID`` micro-steps apart) are kept, until each layout's
samples are copied out of them.
"""

import inspect
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DataError, DivergenceError

#: Instants closer than this (seconds) are considered the same sample time.
TIME_MATCH_TOL = 1e-9

#: Finest allowed micro-grid relative to the smallest sampling period.
_MAX_GRID_REFINEMENT = 1000

#: Micro-step divides the base grid this many times (keeps RK4 error small
#: relative to the sampling resolution).
_STEPS_PER_GRID = 10


@dataclass(frozen=True)
class VectorField:
    """Autonomous vector field x -> dx/dt on R^dim.

    ``func(xs, outs)`` writes the field into buffers it is given: ``xs``
    and ``outs`` are tuples of ``dim`` component arrays of one shape (the
    batch shape), ``xs[i]`` holding component i of the states and
    ``outs[i]`` receiving dx_i/dt. The field must write every ``outs[i]``,
    may use them as scratch before that, and must not write ``xs``; the two
    never overlap. Component arrays are contiguous and their arithmetic
    must be elementwise over the batch, which lets whole ensembles be
    integrated in one pass with no array allocated per call
    (:func:`integrate` owns the buffers and builds the tuples once).

    Calling the field, ``field(x)``, maps an array of shape (..., dim) to a
    fresh array of the same shape. A ``func`` whose signature cannot take
    two arguments is refused on construction.
    """

    dim: int
    func: Callable[[tuple, tuple], None]

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral) or self.dim < 1:
            raise ConfigurationError(f"dim must be an integer >= 1, got {self.dim!r}")
        if not callable(self.func):
            raise ConfigurationError(f"func must be callable, got {self.func!r}")
        try:
            signature = inspect.signature(self.func)
        except (TypeError, ValueError):  # some builtins have no readable signature
            return
        try:
            signature.bind(None, None)
        except TypeError:
            raise ConfigurationError(
                "a vector field's func is called as func(xs, outs), with xs and outs "
                "tuples of dim component arrays, and writes dx_i/dt into outs[i]; "
                f"{getattr(self.func, '__qualname__', self.func)!r} has signature {signature}"
            ) from None

    def __call__(self, x):
        x = np.array(x, dtype=float, order="F")
        if x.shape[-1:] != (self.dim,):
            raise ConfigurationError(
                f"x has shape {x.shape}, field expects (..., {self.dim})"
            )
        out = np.empty_like(x)
        self.func(_components(x), _components(out))
        return out


def _components(a):
    """The component arrays ``a[..., i]`` of a state array, as a tuple."""
    return tuple(a[..., i] for i in range(a.shape[-1]))


def lorenz_field():
    """The benchmark Lorenz-type system

    dx1 = 0.5 (x2 - x1)
    dx2 = x1 (0.75 - x3) - x2
    dx3 = x1 x2 - 2 x3

    Each component is written in place into its output buffer. On a small
    batch a ufunc call costs more than its arithmetic, so the constants are
    0-d float64 arrays built once (converting a Python float costs more)
    and the ufuncs are bound to local names.
    """
    c075, two, half = np.array(0.75), np.array(2.0), np.array(0.5)
    subtract, multiply = np.subtract, np.multiply

    def f(xs, outs):
        (x1, x2, x3), (d1, d2, d3) = xs, outs
        subtract(multiply(x1, subtract(c075, x3, d2), d2), x2, d2)
        # d1 holds 2 x3 until the first component overwrites it
        subtract(multiply(x1, x2, d3), multiply(two, x3, d1), d3)
        multiply(half, subtract(x2, x1, d1), d1)

    return VectorField(dim=3, func=f)


def linear_field(a):
    """Linear system dx = A x (handy for oracles and sanity checks)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"A must be square, got shape {a.shape}")
    a_t = a.T

    def f(xs, outs):
        dx = np.stack(xs, axis=-1) @ a_t
        for i, out in enumerate(outs):
            out[...] = dx[..., i]

    return VectorField(dim=a.shape[0], func=f)


def integrate(field, x0, step, n_steps, every=1):
    """Classical 4th-order Runge-Kutta from t=0.

    Parameters
    ----------
    field : VectorField
    x0 : array_like
        Initial state, shape (dim,) or a batch (m, dim).
    step : float
        Micro-step h, a finite real number > 0.
    n_steps : int
        Number of micro-steps, an integer >= 0 and a multiple of ``every``.
    every : int
        Keep the state after every ``every``-th micro-step only: the result
        holds the states at t = 0, every*h, 2*every*h, ..., n_steps*h.

    Returns
    -------
    np.ndarray
        Shape (n_steps // every + 1,) + x0.shape.

    Raises
    ------
    ConfigurationError
        If ``step``, ``n_steps`` or ``every`` is not as above (the message
        starts with the parameter's name; bools are refused, NumPy scalars
        accepted), or if the kept states cannot be allocated, naming their
        size.
    DivergenceError
        If the state becomes non-finite at any micro-step, naming it.

    Notes
    -----
    On a small batch a micro-step costs NumPy call overhead, not
    arithmetic, so the kernel keeps its calls lean and allocates nothing
    per step: six state-sized buffers (the state, one stage input, two
    derivative buffers used in turn, an accumulator and a scratch buffer)
    and their component tuples are built once per call, ufunc operands are
    arrays only (the stage constants are 0-d float64 arrays), the ufuncs
    are bound to local names, outputs are passed positionally, and the
    finiteness mask is laid out like the state.
    """
    real = isinstance(step, numbers.Real) and not isinstance(step, bool)
    # comparisons refuse nan, and an int beyond the float range unconverted
    if not (real and 0 < step <= sys.float_info.max):
        raise ConfigurationError(f"step must be a finite number > 0, got {step!r}")
    step = float(step)
    if isinstance(n_steps, bool) or not isinstance(n_steps, numbers.Integral) or n_steps < 0:
        raise ConfigurationError(f"n_steps must be an integer >= 0, got {n_steps!r}")
    if isinstance(every, bool) or not isinstance(every, numbers.Integral) or every < 1:
        raise ConfigurationError(f"every must be an integer >= 1, got {every!r}")
    if n_steps % every:
        raise ConfigurationError(f"n_steps={n_steps} is not a multiple of every={every}")
    x = np.asarray(x0, dtype=float)
    if x.shape[-1] != field.dim:
        raise ConfigurationError(
            f"x0 has dimension {x.shape[-1]}, field expects {field.dim}"
        )
    rows = n_steps // every + 1
    try:
        out = np.empty((rows,) + x.shape)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond the address space
        raise ConfigurationError(
            f"cannot allocate the RK4 grid: n_steps={n_steps} for a batch of shape "
            f"{x.shape} requests {rows * x.size * 8 / 2**30:.3g} GiB"
        ) from exc
    out[0] = x
    # Component-major state, so each component is contiguous. Every element
    # takes the steps of x + h/6 (k1 + 2 k2 + 2 k3 + k4), k_i evaluated at
    # x + c_i h k_(i-1), in the same order, so the bits do not depend on the
    # layout: k1 + 2 k2 is summed before k3 overwrites k1's buffer.
    x = np.array(x, order="F")
    y, ka, kb, acc, tmp = (np.empty_like(x) for _ in range(5))
    xs, ys, kas, kbs = (_components(a) for a in (x, y, ka, kb))
    finite = np.empty_like(x, dtype=bool)
    half, whole, two, sixth = (np.array(c) for c in (0.5 * step, step, 2.0, step / 6.0))
    f, add, multiply, isfinite = field.func, np.add, np.multiply, np.isfinite
    for j in range(1, n_steps + 1):
        f(xs, kas)  # k1
        add(x, multiply(half, ka, tmp), y)
        f(ys, kbs)  # k2
        add(ka, multiply(two, kb, acc), acc)
        add(x, multiply(half, kb, tmp), y)
        f(ys, kas)  # k3
        add(acc, multiply(two, ka, tmp), acc)
        add(x, multiply(whole, ka, tmp), y)
        f(ys, kbs)  # k4
        add(acc, kb, acc)
        add(x, multiply(sixth, acc, acc), x)
        if not isfinite(x, finite).all():
            raise DivergenceError(
                f"trajectory diverged (non-finite state) at step {j}, t={j * step:.6g}"
            )
        if j % every == 0:
            out[j // every] = x
    return out


def integrate_stacked(field, starts, step, n_steps, every=1):
    """:func:`integrate` of several (m_i, dim) batches of initial states in
    one RK4 pass; returns one (n_steps // every + 1, m_i, dim) view per batch.

    For a field that acts on each row alone with elementwise arithmetic (as
    :func:`lorenz_field`), every view is bit for bit ``integrate`` of its
    own batch. A divergence in any row raises for the whole pass.
    """
    dense = integrate(field, np.concatenate(starts), step, n_steps, every)
    return np.split(dense, np.cumsum([len(x) for x in starts])[:-1], axis=1)


@dataclass(frozen=True)
class SamplingSchedule:
    """Per-component sampling pattern: samples at r_i + l*T_i, l = 0..count.

    ``count`` is the number of delay observables M_i; the schedule yields
    ``count + 1`` samples per trajectory. The fields are checked on
    construction; a bad one raises a :class:`ConfigurationError` naming it.
    """

    component: int
    dead_time: float
    period: float
    count: int

    def __post_init__(self):
        for name, low in (("component", 0), ("count", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("dead_time", "period"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            # the comparison refuses nan, and an int beyond the float range unconverted
            if not (real and abs(value) <= sys.float_info.max):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        if self.dead_time < 0:
            raise ConfigurationError(f"dead_time must be >= 0, got {self.dead_time}")
        if self.period <= 0:
            raise ConfigurationError(f"period must be > 0, got {self.period}")

    def instants(self):
        """Sample times, shape (count + 1,)."""
        return self.dead_time + np.arange(self.count + 1) * self.period

    def sample_index(self, t):
        """Index l with |r + l*T - t| <= ``TIME_MATCH_TOL``, or None if t is
        not a sample instant."""
        l = round((t - self.dead_time) / self.period)
        if 0 <= l <= self.count and abs(self.dead_time + l * self.period - t) <= TIME_MATCH_TOL:
            return int(l)
        return None


@dataclass(eq=False)
class Ensemble:
    """K trajectories, each component sampled on one time vector they share.

    ``times[i]`` holds the sample instants of component i, shape (M_i + 1,),
    and ``values[i]`` the samples, shape (K, M_i + 1), row k belonging to
    trajectory ``indices[k]``. An ensemble is sampled data only, whether
    :func:`sample_ensembles` made it or ``experiments.import_ensemble``
    read it; a reference of the full state is an ensemble of its own,
    sampled on a full-state layout next to the partial one.

    The arrays are validated once, on construction; :func:`sample_ensembles`
    makes arrays that are valid by construction and skips the checks.
    """

    times: dict
    values: dict
    indices: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        n_traj = self.indices.size
        if self.indices.ndim != 1 or n_traj == 0:
            raise DataError("an ensemble needs a nonempty 1-D array of trajectory indices")
        if np.unique(self.indices).size != n_traj:
            raise DataError("trajectory indices must be unique")
        if set(self.times) != set(self.values):
            raise DataError("times and values must cover the same components")
        for comp in self.times:
            times = self.times[comp] = np.asarray(self.times[comp], dtype=float)
            values = self.values[comp] = np.asarray(self.values[comp], dtype=float)
            if times.ndim != 1 or values.shape != (n_traj, times.size):
                raise DataError(
                    f"component {comp}: times {times.shape} and values {values.shape} "
                    f"do not form (M+1,) and ({n_traj}, M+1) arrays"
                )
            if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
                raise DataError(f"component {comp}: non-finite sample times or values")
            if np.any(np.diff(times) <= 0):
                raise DataError(f"component {comp}: sample times must be strictly increasing")

    def __len__(self):
        return self.indices.size

    @classmethod
    def _unchecked(cls, times, values, indices):
        """An ensemble of arrays that are valid by construction, as
        :func:`sample_ensembles` makes them, built without the validation
        of :meth:`__post_init__`."""
        ensemble = object.__new__(cls)
        ensemble.times, ensemble.values, ensemble.indices = times, values, indices
        return ensemble


def _as_fraction(t, what):
    frac = Fraction(t).limit_denominator(10**9)
    # a positive time below the grid's resolution would round to a zero step
    if abs(float(frac) - t) > 1e-12 or (t > 0 and frac == 0):
        raise ConfigurationError(
            f"{what} {t!r} is not representable on a rational grid to 1e-12"
        )
    return frac


def _fraction_gcd(a, b):
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def common_micro_step(schedules, extra_times=()):
    """Micro-step h (as an exact Fraction) dividing every dead time, period,
    and extra time, with h <= min(period) / 10.

    Raises
    ------
    ConfigurationError
        If no common step exists above 1/1000 of the smallest period.
    """
    times = [s.period for s in schedules]
    times += [s.dead_time for s in schedules if s.dead_time > 0]
    times += [t for t in extra_times if t > 0]
    if not times:
        raise ConfigurationError("no positive times to derive a micro-step from")
    fracs = [_as_fraction(t, "schedule time") for t in times]
    g = reduce(_fraction_gcd, fracs)
    min_period = min(s.period for s in schedules)
    if g < Fraction(_as_fraction(min_period, "period"), _MAX_GRID_REFINEMENT):
        raise ConfigurationError(
            "sampling times share no common micro-step above "
            f"{min_period / _MAX_GRID_REFINEMENT:.3g}s; align the schedule times"
        )
    return g / _STEPS_PER_GRID


#: Constants of NumPy's ``SeedSequence`` hash (O'Neill's seed_seq_fe) and
#: PCG64's 128-bit multiplier as (high, low) 64-bit limbs.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))


def _add128(a, b):
    """a + b mod 2**128 on (high, low) uint64 limbs."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _mul128(a, b):
    """a * b mod 2**128 on (high, low) uint64 limbs, via 32-bit halves."""
    (a_hi, a_lo), (b_hi, b_lo), mask, s = a, b, np.uint64(_MASK32), np.uint64(32)
    a0, a1, b0, b1 = a_lo & mask, a_lo >> s, b_lo & mask, b_lo >> s
    t = a1 * b0 + (a0 * b0 >> s)
    high = a1 * b1 + (t >> s) + ((t & mask) + a0 * b1 >> s)
    return high + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _substream_uniform(keys, n_traj, box):
    """Uniform draws on ``box`` (n, 2) for each of ``keys``, shape
    (len(keys), n_traj, n): row k of key ``seed`` is, bit for bit,
    ``default_rng(SeedSequence([*seed, k])).uniform(lo, hi)`` per axis.

    ``SeedSequence`` mixing, PCG64 seeding and its XSL-RR output are fixed
    integer recurrences, so they run elementwise over all k at once, and
    over all keys of one count of 32-bit entropy words at once (the count
    sets the hash constants each word meets).
    """
    keys, groups = list(keys), {}
    for index, seed in enumerate(keys):
        parts = list(seed) if isinstance(seed, (tuple, list)) else [seed]
        if any(isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 0 for p in parts):
            raise ConfigurationError(f"seed must be a non-negative int or ints, got {seed!r}")
        # entropy words: 32 bits at a time from each int, then the index k
        words = [
            int(p) >> s & _MASK32 for p in parts for s in range(0, max(int(p).bit_length(), 1), 32)
        ]
        groups.setdefault(len(words), []).append((index, words))
    try:
        out = np.empty((len(keys), n_traj, len(box)))
    except (MemoryError, ValueError) as exc:  # ValueError: beyond the address space
        size = len(keys) * n_traj * len(box) * 8 / 2**30
        raise ConfigurationError(
            f"cannot allocate the initial states: {len(keys)} x K={n_traj} states "
            f"request {size:.3g} GiB"
        ) from exc
    for members in groups.values():
        rows = [index for index, _ in members]
        out[rows] = _uniform_rows(np.array([w for _, w in members], np.uint32), n_traj, box)
    return out


def _uniform_rows(entropy, n_traj, box):
    """:func:`_substream_uniform` of keys whose entropy words, one row per
    key, are the rows of ``entropy``."""
    count = len(entropy)
    words = [np.repeat(column, n_traj) for column in entropy.T]
    words.append(np.tile(np.arange(n_traj, dtype=np.uint32), count))
    words += [np.zeros(count * n_traj, np.uint32)] * (4 - len(words))
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    def mix_into(dst, value):
        r = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashmix(value)
        pool[dst] = r ^ r >> np.uint32(16)

    pool = [hashmix(w) for w in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        mix_into(dst, pool[src])
    for word, dst in itertools.product(words[4:], range(4)):
        mix_into(dst, word)
    hash_const = _INIT_B
    state = np.stack([hashmix(pool[i % 4], _MULT_B) for i in range(8)], axis=1)
    # little-endian word pairs: the initial state, then the stream selector
    seed_hi, seed_lo, seq_hi, seq_lo = state.astype("<u4").view("<u8").astype(np.uint64).T
    inc = (seq_hi << np.uint64(1) | seq_lo >> np.uint64(63), seq_lo << np.uint64(1) | np.uint64(1))
    pcg = _add128(_mul128(_add128(inc, (seed_hi, seed_lo)), _PCG_MULT), inc)
    out = np.empty((count * n_traj, len(box)))
    for axis, (lo, hi) in enumerate(box.tolist()):
        pcg = _add128(_mul128(pcg, _PCG_MULT), inc)
        rot, xored = pcg[0] >> np.uint64(58), pcg[0] ^ pcg[1]
        bits = xored >> rot | xored << (np.uint64(64) - rot & np.uint64(63))
        out[:, axis] = lo + (hi - lo) * ((bits >> np.uint64(11)) * 2.0**-53)
    return out.reshape(count, n_traj, len(box))


def sample_ensembles(field, layouts, n_traj, seeds, init_box=None):
    """Sample the same ``n_traj`` trajectories of ``field`` for each of
    ``seeds`` on each of ``layouts`` (lists of schedules, one per state
    component), all drawn in one pass (:func:`_substream_uniform`) and
    integrated in one RK4 pass (:func:`integrate` of all seeds' rows,
    ``(seeds * n_traj, dim)``). Returns, per
    seed, one :class:`Ensemble` per layout: a full-state layout next to a
    partial one gives the true states of the very trajectories the partial
    one samples. Each component of a layout is copied out of the RK4 grid
    once for all seeds, and each seed's samples are a view of that copy;
    the ensembles share their read-only times and indices and skip the
    constructor's validation, which RK4's finiteness check and the
    generated times make redundant.

    Initial conditions are i.i.d. uniform on ``init_box``, (low, high) per
    axis (default [-1, 1]^dim), from per-trajectory substreams keyed by
    (seed, trajectory index); a seed is a non-negative int or a sequence of
    them, and its ensemble does not depend on the batching.

    The sample grid holds every sample time of every layout, so the seeds
    share it. Its refinement limit (:func:`common_micro_step`) is set by the
    smallest period of the first layout: the others only add their times.
    """
    n = field.dim
    for layout in layouts:
        if sorted(s.component for s in layout) != list(range(n)):
            raise ConfigurationError(
                "schedules must cover each state component exactly once"
            )
    if isinstance(n_traj, bool) or not isinstance(n_traj, numbers.Integral) or n_traj < 1:
        raise ConfigurationError(f"n_traj must be an integer >= 1, got {n_traj!r}")
    box = np.asarray([(-1.0, 1.0)] * n if init_box is None else init_box, dtype=float)
    if box.shape != (n, 2) or not np.all(box[:, 0] < box[:, 1]):
        raise ConfigurationError(f"init_box must be (dim, 2) with low < high, got {box!r}")
    x0s = _substream_uniform(seeds, n_traj, box)

    # The sample grid, spacing g, holds every sample time; RK4 runs
    # _STEPS_PER_GRID micro-steps per grid step and keeps grid rows.
    later = [s for layout in layouts[1:] for s in layout]
    h_frac = common_micro_step(layouts[0], [t for s in later for t in (s.dead_time, s.period)])
    h, g = float(h_frac), h_frac * _STEPS_PER_GRID
    end = max(s.dead_time + s.count * s.period for layout in layouts for s in layout)
    n_steps = _STEPS_PER_GRID * math.ceil(_as_fraction(end, "end time") / g)
    dense = integrate(field, x0s.reshape(-1, n), h, n_steps, every=_STEPS_PER_GRID)
    indices = np.arange(n_traj)
    indices.flags.writeable = False
    ensembles = [[] for _ in x0s]
    for layout in layouts:
        times, blocks = {}, {}
        for s in layout:
            times[s.component] = s.instants()
            times[s.component].flags.writeable = False
            # g divides every dead time and period, so the grid indices are
            # exact; they are built after the grid, whose size integrate checks
            grid = int(_as_fraction(s.dead_time, "dead_time") / g) + int(
                _as_fraction(s.period, "period") / g
            ) * np.arange(s.count + 1)
            # one (seeds, K, M_i + 1) copy per component; each seed's
            # samples are a contiguous view of it
            samples = dense[grid, :, s.component].reshape(s.count + 1, len(x0s), n_traj)
            blocks[s.component] = np.ascontiguousarray(samples.transpose(1, 2, 0))
        for seed, own in enumerate(ensembles):
            values = {comp: block[seed] for comp, block in blocks.items()}
            own.append(Ensemble._unchecked(dict(times), values, indices))
    return ensembles


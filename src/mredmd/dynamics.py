"""ODE integration, the Lorenz benchmark system, and generation of
non-uniformly sampled trajectory ensembles.

Each state component i is sampled at instants ``r_i + l * T_i`` for
``l = 0..M_i`` (dead time ``r_i``, period ``T_i``, ``M_i + 1`` samples per
trajectory). Ensembles are integrated on a common micro-grid whose step
divides every dead time and period exactly, so sampled values are copies of
integrated states, never interpolations. Only the states on the sample grid
(``_STEPS_PER_GRID`` micro-steps apart) are kept, until each layout's
samples are copied out of them.
"""

import csv
import itertools
import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from pathlib import Path
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

    ``func`` must broadcast over leading axes: it maps arrays of shape
    (..., dim) to arrays of the same shape, which lets whole ensembles be
    integrated in one pass. It must accept any memory layout (:func:`integrate`
    passes its states component-major, with ``x[..., i]`` contiguous) and
    return either a fresh array or a view of its argument, never a buffer
    that it reuses across calls: the RK4 stages of one step are all alive
    at once.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return self.func(x)


def lorenz_field():
    """The benchmark Lorenz-type system

    dx1 = 0.5 (x2 - x1)
    dx2 = x1 (0.75 - x3) - x2
    dx3 = x1 x2 - 2 x3

    Each component is written in place into its view of the result, which
    has the layout of ``x``.
    """

    def f(x):
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        out = np.empty_like(x)
        d1, d2, d3 = out[..., 0], out[..., 1], out[..., 2]
        np.subtract(np.multiply(x1, np.subtract(0.75, x3, out=d2), out=d2), x2, out=d2)
        # d1 holds 2 x3 until the first component overwrites it
        np.subtract(np.multiply(x1, x2, out=d3), np.multiply(2.0, x3, out=d1), out=d3)
        np.multiply(0.5, np.subtract(x2, x1, out=d1), out=d1)
        return out

    return VectorField(dim=3, func=f)


def linear_field(a):
    """Linear system dx = A x (handy for oracles and sanity checks)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"A must be square, got shape {a.shape}")
    return VectorField(dim=a.shape[0], func=lambda x: x @ a.T)


def integrate(field, x0, step, n_steps, every=1):
    """Classical 4th-order Runge-Kutta from t=0.

    Parameters
    ----------
    field : VectorField
    x0 : array_like
        Initial state, shape (dim,) or a batch (m, dim).
    step : float
        Micro-step h > 0.
    n_steps : int
        Number of micro-steps, a multiple of ``every``.
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
        If ``every`` is not an integer >= 1 dividing ``n_steps``, or if the
        kept states cannot be allocated, naming their size.
    DivergenceError
        If the state becomes non-finite at any micro-step, naming it.
    """
    if step <= 0:
        raise ConfigurationError(f"step must be > 0, got {step}")
    if n_steps < 0:
        raise ConfigurationError(f"n_steps must be >= 0, got {n_steps}")
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
    # Component-major state and preallocated stage buffers; the arithmetic is
    # that of x + h/6 (k1 + 2 k2 + 2 k3 + k4) with k_i at x + c_i h k_{i-1},
    # in the same order, so the bits do not depend on the layout. Each stage
    # input has its own buffer, since a field may return a view of it.
    x = np.array(x, order="F")
    y2, y3, y4, acc, tmp = (np.empty_like(x) for _ in range(5))
    finite = np.empty(x.shape, dtype=bool)
    half = 0.5 * step
    for j in range(1, n_steps + 1):
        k1 = field(x)
        np.add(x, np.multiply(half, k1, out=tmp), out=y2)
        k2 = field(y2)
        np.add(x, np.multiply(half, k2, out=tmp), out=y3)
        k3 = field(y3)
        np.add(x, np.multiply(step, k3, out=tmp), out=y4)
        k4 = field(y4)
        np.add(k1, np.multiply(2.0, k2, out=acc), out=acc)
        np.add(acc, np.multiply(2.0, k3, out=tmp), out=acc)
        np.add(acc, k4, out=acc)
        np.add(x, np.multiply(step / 6.0, acc, out=acc), out=x)
        if not np.isfinite(x, out=finite).all():
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
            if not (real and math.isfinite(value)):
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
    :func:`sample_ensembles` made it or :func:`import_ensemble` read it; a
    reference of the full state is an ensemble of its own, sampled on a
    full-state layout next to the partial one.

    The arrays are validated once, on construction.
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


def _as_fraction(t, what):
    frac = Fraction(t).limit_denominator(10**9)
    if abs(float(frac) - t) > 1e-12:
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


def _substream_uniform(seed, n_traj, box):
    """Uniform draws on ``box`` (n, 2), shape (n_traj, n): row k is, bit for
    bit, ``default_rng(SeedSequence([*seed, k])).uniform(lo, hi)`` per axis.

    ``SeedSequence`` mixing, PCG64 seeding and its XSL-RR output are fixed
    integer recurrences, so they run elementwise over all k at once.
    """
    parts = list(seed) if isinstance(seed, (tuple, list)) else [seed]
    if any(isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 0 for p in parts):
        raise ConfigurationError(f"seed must be a non-negative int or ints, got {seed!r}")
    # entropy words: 32 bits at a time from each int, then the index k
    pieces = [(int(p), s) for p in parts for s in range(0, max(int(p).bit_length(), 1), 32)]
    words = [np.full(n_traj, p >> s & _MASK32, np.uint32) for p, s in pieces]
    words.append(np.arange(n_traj, dtype=np.uint32))
    words += [np.zeros(n_traj, np.uint32)] * (4 - len(words))
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
    out = np.empty((n_traj, len(box)))
    for axis, (lo, hi) in enumerate(box.tolist()):
        pcg = _add128(_mul128(pcg, _PCG_MULT), inc)
        rot, xored = pcg[0] >> np.uint64(58), pcg[0] ^ pcg[1]
        bits = xored >> rot | xored << (np.uint64(64) - rot & np.uint64(63))
        out[:, axis] = lo + (hi - lo) * ((bits >> np.uint64(11)) * 2.0**-53)
    return out


def sample_ensemble(field, schedules, n_traj, init_box=None, seed=0):
    """Integrate an ensemble and sample each component on its own schedule.

    Initial conditions are drawn i.i.d. uniform on ``init_box`` from
    per-trajectory substreams keyed by (seed, trajectory index), so the
    ensemble is bit-identical for a fixed seed regardless of batching.

    Parameters
    ----------
    field : VectorField
    schedules : sequence of SamplingSchedule
        Exactly one schedule per state component.
    n_traj : int
        Number of trajectories K.
    init_box : array_like, optional
        Per-axis (low, high) bounds, shape (dim, 2). Defaults to [-1, 1]^dim.
    seed : int or sequence of int
        Base entropy for the per-trajectory substreams (non-negative).

    Returns
    -------
    Ensemble
    """
    ((ensemble,),) = sample_ensembles(field, [schedules], n_traj, [seed], init_box)
    return ensemble


def sample_ensembles(field, layouts, n_traj, seeds, init_box=None):
    """Sample the same K trajectories of each seed on each of ``layouts``,
    all of them integrated in one RK4 pass (see :func:`integrate_stacked`).

    A layout is a list of schedules that covers each state component once
    (as :func:`sample_ensemble` takes). Returns, per seed, one
    :class:`Ensemble` per layout: a full-state layout next to a partial one
    gives the true states of the very trajectories the partial one samples.

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
    if n_traj < 1:
        raise ConfigurationError(f"n_traj must be >= 1, got {n_traj}")
    box = np.asarray([(-1.0, 1.0)] * n if init_box is None else init_box, dtype=float)
    if box.shape != (n, 2) or not np.all(box[:, 0] < box[:, 1]):
        raise ConfigurationError(f"init_box must be (dim, 2) with low < high, got {box!r}")
    x0s = [_substream_uniform(seed, n_traj, box) for seed in seeds]

    # The sample grid, spacing g, holds every sample time; RK4 runs
    # _STEPS_PER_GRID micro-steps per grid step and keeps grid rows.
    later = [s for layout in layouts[1:] for s in layout]
    h_frac = common_micro_step(layouts[0], [t for s in later for t in (s.dead_time, s.period)])
    h, g = float(h_frac), h_frac * _STEPS_PER_GRID
    end = max(s.dead_time + s.count * s.period for layout in layouts for s in layout)
    n_steps = _STEPS_PER_GRID * math.ceil(_as_fraction(end, "end time") / g)
    # g divides every dead time and period, so the grid indices are exact
    grids = [
        {
            s.component: int(_as_fraction(s.dead_time, "dead_time") / g)
            + int(_as_fraction(s.period, "period") / g) * np.arange(s.count + 1)
            for s in layout
        }
        for layout in layouts
    ]
    stacked = integrate_stacked(field, x0s, h, n_steps, every=_STEPS_PER_GRID)
    return [
        [
            Ensemble(
                times={s.component: s.instants() for s in layout},
                values={
                    s.component: np.ascontiguousarray(dense[grid[s.component], :, s.component].T)
                    for s in layout
                },
                indices=np.arange(n_traj),
            )
            for layout, grid in zip(layouts, grids)
        ]
        for dense in stacked
    ]


def _trajectory_files(directory):
    """(index, path) of each trajectory file in ``directory``, by parsed
    index: names sort "trajectory_100000" before "trajectory_99999"."""
    return sorted(
        (int(match.group(1)), path)
        for path in Path(directory).glob("trajectory_*.csv")
        if (match := re.fullmatch(r"trajectory_(\d+)\.csv", path.name)) is not None
    )


def export_ensemble(ensemble, directory):
    """Write one CSV per trajectory with columns ``component,time,value``.

    Raises
    ------
    ConfigurationError
        Before writing anything, naming the directory and the indices of
        the trajectory files it holds that the ensemble lacks: an import
        would read them as part of this ensemble.
    """
    directory = Path(directory)
    indices = ensemble.indices.tolist()
    stale = sorted({index for index, _ in _trajectory_files(directory)} - set(indices))
    if stale:
        shown = ", ".join(map(str, stale[:10]))
        if len(stale) > 10:
            shown += f" and {len(stale) - 10} more"
        raise ConfigurationError(
            f"{directory} holds trajectory files that this ensemble lacks (indices {shown}); "
            "write to a new or empty directory"
        )
    directory.mkdir(parents=True, exist_ok=True)
    for k, index in enumerate(indices):
        with open(directory / f"trajectory_{index:05d}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["component", "time", "value"])
            for comp in sorted(ensemble.times):
                rows = zip(ensemble.times[comp].tolist(), ensemble.values[comp][k].tolist())
                writer.writerows([comp, repr(t), repr(v)] for t, v in rows)


def import_ensemble(directory):
    """Read an ensemble written by :func:`export_ensemble`.

    This is the validation boundary for outside data.

    Raises
    ------
    DataError
        Naming the file, and the line where there is one, for two files
        with the same trajectory index, a bad header or row, a non-finite
        value, sample times that are not strictly increasing, a component
        missing from some files, or sample times that differ between files
        by more than ``TIME_MATCH_TOL``.
    """
    files = _trajectory_files(directory)
    if not files:
        raise DataError(f"no trajectory CSV files found in {directory}")
    for (index, path), (next_index, other) in zip(files, files[1:]):
        if index == next_index:
            raise DataError(f"{path} and {other} both hold trajectory {index}")
    first = files[0][1].name
    times, values = {}, {}
    for _, path in files:
        series = _read_trajectory_csv(path)
        if times and set(series) != set(times):
            raise DataError(
                f"{path}: components {sorted(series)} differ from {sorted(times)} in {first}"
            )
        for comp, (t, v) in series.items():
            ref = times.setdefault(comp, t)
            if t.shape != ref.shape or np.any(np.abs(t - ref) > TIME_MATCH_TOL):
                raise DataError(
                    f"{path}: component {comp} sample times differ from those in "
                    f"{first} by more than {TIME_MATCH_TOL:g} s"
                )
            values.setdefault(comp, []).append(v)
    return Ensemble(
        times=times,
        values={comp: np.stack(rows) for comp, rows in values.items()},
        indices=[index for index, _ in files],
    )


def _read_trajectory_csv(path):
    """{component: (times, values)} of one trajectory file."""
    series = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["component", "time", "value"]:
                raise DataError(f"{path}: unexpected header {header!r}")
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                try:
                    comp, t, v = row
                    comp, t, v = int(comp), float(t), float(v)
                except ValueError:
                    raise DataError(
                        f"{where}: expected 'component,time,value', got {row!r}"
                    ) from None
                if not (math.isfinite(t) and math.isfinite(v)):
                    raise DataError(f"{where}: non-finite time or value")
                times, vals = series.setdefault(comp, ([], []))
                if times and t <= times[-1]:
                    raise DataError(
                        f"{where}: component {comp} time {t!r} does not follow {times[-1]!r}"
                    )
                times.append(t)
                vals.append(v)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not series:
        raise DataError(f"{path}: no samples")
    return {comp: (np.array(t), np.array(v)) for comp, (t, v) in series.items()}

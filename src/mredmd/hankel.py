"""Per-component Hankel DMD: delay-embedded data matrices, component
operator fits, time interpolation of component values, and full-state
reconstruction at a common pair of target instants.

For component i with samples at r_i + l*T_i, the delay observables are the
component value and its next M_i - 1 shifts. A one-period Koopman matrix K_i
is fit jointly across all trajectories, its generator L_i = log(K_i)/T_i
interpolates the component to arbitrary times, and the first row of
exp(L_i (t - r_i)) applied to the data matrix yields per-trajectory
estimates at time t.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import TIME_MATCH_TOL, SamplingSchedule
from .edmd import StatePairEnsemble
from .errors import (
    DataError,
    DivergenceError,
    ExtrapolationWarning,
    IllConditionedWarning,
    RankDeficiencyWarning,
    labelled,
)

#: Condition number of P_x above which a warning is recorded.
COND_WARN_THRESHOLD = 1e12

#: Estimates further than this multiple of the sampled window beyond the
#: first sample are flagged as extrapolation.
EXTRAPOLATION_RATIO = 2.0


@dataclass
class HankelDataMatrices:
    """Delay-embedded data matrices for one component.

    Column k of ``p_x`` holds the first M_i samples of trajectory k; column k
    of ``p_y`` holds the same window shifted by one period, so row l of
    ``p_y`` equals row l+1 of ``p_x`` exactly for l < M_i - 1.
    """

    p_x: np.ndarray
    p_y: np.ndarray
    schedule: SamplingSchedule


@dataclass
class ComponentOperator:
    """One-period Koopman matrix and generator for a single component.

    Estimates propagate with the complex generator ``l_complex``, so
    genuinely complex logarithms surface as residuals rather than silent
    errors.
    """

    component: int
    k_mat: np.ndarray
    l_complex: np.ndarray
    period: float
    dead_time: float

    @property
    def l_mat(self):
        """Real-cast generator (C-contiguous real part of ``l_complex``)."""
        return np.ascontiguousarray(self.l_complex.real)

    @property
    def imag_residual(self):
        """Largest absolute imaginary part that ``l_mat`` discards."""
        return float(np.max(np.abs(self.l_complex.imag)))


def build_hankel_matrices(ensemble, schedule):
    """Assemble (P_x, P_y) for one component from an :class:`Ensemble`.

    The component must hold at least ``schedule.count + 1`` samples located
    exactly at the schedule instants.

    Raises
    ------
    DataError
        Naming the component when samples are missing or misplaced.
    """
    m = schedule.count
    comp = schedule.component
    if comp not in ensemble.times:
        raise DataError(f"component {comp}: no samples in the ensemble")
    times = ensemble.times[comp]
    if times.size < m + 1:
        raise DataError(f"component {comp}: {times.size} samples, schedule needs {m + 1}")
    if not np.allclose(times[: m + 1], schedule.instants(), rtol=0.0, atol=TIME_MATCH_TOL):
        raise DataError(f"component {comp}: sample times do not match the schedule instants")
    values = ensemble.values[comp]
    return HankelDataMatrices(
        p_x=np.ascontiguousarray(values[:, :m].T),
        p_y=np.ascontiguousarray(values[:, 1 : m + 1].T),
        schedule=schedule,
    )


def fit_component_operator(matrices):
    """Fit K_i = P_y P_x^+ and its generator L_i = log(K_i) / T_i.

    Emits :class:`IllConditionedWarning` when cond(P_x) exceeds 1e12 and
    :class:`RankDeficiencyWarning` when there are fewer trajectories than
    delay observables. An imaginary part of L_i above 1e-6 emits an
    :class:`ImaginaryResidualWarning`.

    Raises
    ------
    SingularMatrixError
        If the fitted K_i is singular so the logarithm does not exist.
    """
    schedule = matrices.schedule
    m, n_traj = matrices.p_x.shape
    if n_traj < m:
        warnings.warn(
            f"component {schedule.component}: {n_traj} trajectories < {m} delay "
            "observables; P_x cannot be full row rank",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    cond = linalg.condition_number(matrices.p_x)
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"component {schedule.component}: P_x condition number {cond:.3e} "
            "exceeds 1e12; delay coordinates are nearly collinear",
            IllConditionedWarning,
            stacklevel=2,
        )
    with labelled(f"component {schedule.component}"):
        k_mat, l_complex = linalg.koopman_fit(matrices.p_x, matrices.p_y, schedule.period)
    return ComponentOperator(
        component=schedule.component,
        k_mat=k_mat,
        l_complex=l_complex,
        period=schedule.period,
        dead_time=schedule.dead_time,
    )


def estimate_component_at(operator, matrices, t):
    """Per-trajectory estimates of the component value at time t.

    Computes the first row of exp(L_i (t - r_i)) P_x and casts it to real;
    an imaginary residual above 1e-6 emits a warning. Requests before the
    dead time or far beyond the sampled window are flagged as extrapolation.

    Returns
    -------
    np.ndarray
        Shape (K,), one estimate per trajectory.
    """
    dt = t - operator.dead_time
    window = operator.period * matrices.p_x.shape[0]
    if dt < -TIME_MATCH_TOL:
        warnings.warn(
            f"component {operator.component}: estimate at t={t:.6g} precedes the "
            f"first sample at {operator.dead_time:.6g}",
            ExtrapolationWarning,
            stacklevel=2,
        )
    elif dt > EXTRAPOLATION_RATIO * window:
        warnings.warn(
            f"component {operator.component}: estimate at t={t:.6g} extrapolates "
            f"{dt / window:.2f}x beyond the sampled window",
            ExtrapolationWarning,
            stacklevel=2,
        )
    propagator = linalg.matrix_exp(operator.l_complex * dt)
    row = propagator[0, :] @ matrices.p_x
    with labelled(f"component {operator.component}, t={t:.6g}"):
        estimates, _residual = linalg.cast_real(row, tol=1e-6)
    if not np.all(np.isfinite(estimates)):
        raise DivergenceError(
            f"component {operator.component}: non-finite estimates at t={t:.6g}"
        )
    return estimates


def estimated_components(schedules, targets):
    """Components lacking a measurement at one or more target times."""
    return {s.component for s in schedules for t in targets if s.sample_index(t) is None}


def fit_component_operators(ensemble, schedules, components=None):
    """Build data matrices and fit operators for the given components.

    Returns
    -------
    dict
        component index -> (HankelDataMatrices, ComponentOperator)
    """
    wanted = set(components) if components is not None else {s.component for s in schedules}
    fitted = {}
    for s in schedules:
        if s.component in wanted:
            matrices = build_hankel_matrices(ensemble, s)
            fitted[s.component] = (matrices, fit_component_operator(matrices))
    return fitted


def reconstruct_states(ensemble, schedules, operators, step, first_target=None):
    """Assemble state pairs (x(t1), x(t1 + step)) from partial measurements.

    For each component and target time, a measurement at that instant
    (within 1e-9 s) is used verbatim; otherwise the component operator
    interpolates the value. ``first_target`` defaults to ``step`` itself,
    which gives the pair (x(T_s), x(2 T_s)).

    Parameters
    ----------
    ensemble : Ensemble
    operators : dict
        Output of :func:`fit_component_operators` covering every component
        that needs estimation (see :func:`estimated_components`).

    Returns
    -------
    StatePairEnsemble
        With per-component provenance flags (estimated vs measured).

    Raises
    ------
    DataError
        If a measurement is missing or an estimate needs an operator that
        ``operators`` lacks.
    """
    t1 = step if first_target is None else first_target
    t2 = t1 + step
    n = len(schedules)
    if sorted(s.component for s in schedules) != list(range(n)):
        raise DataError("schedules must cover each state component exactly once")

    x = np.empty((n, len(ensemble)))
    y = np.empty((n, len(ensemble)))
    x_estimated = [False] * n
    y_estimated = [False] * n
    for s in sorted(schedules, key=lambda s: s.component):
        for t, out, flags in ((t1, x, x_estimated), (t2, y, y_estimated)):
            l = s.sample_index(t)
            if l is not None:
                times = ensemble.times.get(s.component, ())
                if len(times) <= l or abs(times[l] - t) > TIME_MATCH_TOL:
                    raise DataError(f"component {s.component}: no measurement at t={t:.6g}")
                out[s.component] = ensemble.values[s.component][:, l]
            else:
                if s.component not in operators:
                    raise DataError(
                        f"component {s.component}: estimate at t={t:.6g} needs a "
                        "fitted component operator"
                    )
                matrices, operator = operators[s.component]
                out[s.component] = estimate_component_at(operator, matrices, t)
                flags[s.component] = True
    return StatePairEnsemble(
        x=x,
        y=y,
        step=step,
        x_estimated=tuple(x_estimated),
        y_estimated=tuple(y_estimated),
    )

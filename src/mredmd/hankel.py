"""Per-component Hankel DMD: delay-embedded data matrices, component
operator fits, time interpolation of component values, and full-state
reconstruction at a common pair of target instants.

For component i with samples at r_i + l*T_i, the delay observables are the
component value and its next M_i - 1 shifts. A one-period Koopman matrix K_i
is fit jointly across all trajectories, its generator L_i = log(K_i)/T_i
interpolates the component to arbitrary times, and the first row of
exp(L_i (t - r_i)) applied to the delay matrix of any ensemble on the
schedule yields its per-trajectory estimates at time t. The fit (and its
conditioning check) is :func:`linalg.koopman_fit`, shared with EDMD.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import TIME_MATCH_TOL, SamplingSchedule
from .edmd import ComplexGenerator, StatePairEnsemble
from .errors import (
    DataError,
    DivergenceError,
    ExtrapolationWarning,
    RankDeficiencyWarning,
    check_number,
    labelled,
)

#: Estimates further than this multiple of the sampled window beyond the
#: first sample are flagged as extrapolation.
EXTRAPOLATION_RATIO = 2.0


@dataclass
class ComponentOperator(ComplexGenerator):
    """One-period Koopman matrix and generator of one component on
    ``schedule``, with no copy of the data it was fitted on. Estimates
    propagate with the complex generator ``l_complex``, so genuinely
    complex logarithms surface as residuals rather than silent errors.
    """

    schedule: SamplingSchedule
    k_mat: np.ndarray
    l_complex: np.ndarray


def _hankel_stacks(ensembles, schedule):
    """(P_x, P_y) stacks (B, M_i, K) of one component of each of
    ``ensembles``: column k of P_y holds the window of column k of P_x
    shifted by one period, so row l of P_y equals row l+1 of P_x exactly
    for l < M_i - 1. The sample times of all ensembles are checked against
    the schedule in one comparison.

    Raises
    ------
    DataError
        Naming the component when the first ensemble at fault misses
        samples or misplaces them, or when the ensembles differ in size.
    """
    m = schedule.count
    comp = schedule.component
    windows = []
    for ensemble in ensembles:
        times = ensemble.times.get(comp, ())
        if len(times) < m + 1:
            break
        windows.append(times[: m + 1])
    # the first ensemble at fault names the error, as in a loop over them
    instants = schedule.instants()
    if windows and not np.isclose(windows, instants, rtol=0.0, atol=TIME_MATCH_TOL).all():
        raise DataError(f"component {comp}: sample times do not match the schedule instants")
    if len(windows) < len(ensembles):
        times = ensembles[len(windows)].times
        if comp not in times:
            raise DataError(f"component {comp}: no samples in the ensemble")
        raise DataError(f"component {comp}: {times[comp].size} samples, schedule needs {m + 1}")
    values = [ensemble.values[comp] for ensemble in ensembles]
    if any(len(v) != len(values[0]) for v in values):
        raise DataError(f"component {comp}: ensembles of different sizes")
    shape = (len(values), m, len(values[0]))
    return tuple(
        np.stack([v[:, lag : lag + m].T for v in values], out=np.empty(shape)) for lag in (0, 1)
    )


def _fit_operators(ensembles, schedule):
    """The :class:`ComponentOperator` of one component in each of
    ``ensembles``, which hold the same number of trajectories, from one
    :func:`linalg.koopman_fit` of their stacked delay matrices."""
    p_xs, p_ys = _hankel_stacks(ensembles, schedule)
    m, n_traj = p_xs.shape[1:]
    if n_traj < m:
        for _ in p_xs:
            warnings.warn(
                f"component {schedule.component}: {n_traj} trajectories < {m} delay "
                "observables; P_x cannot be full row rank",
                RankDeficiencyWarning,
                stacklevel=3,
            )
    with labelled(f"component {schedule.component}"):
        k_mats, l_complex = linalg.koopman_fit(p_xs, p_ys, schedule.period)
    return [ComponentOperator(schedule, k, l) for k, l in zip(k_mats, l_complex)]


def _estimate_sets(operators, p_xs, t):
    """Per-trajectory estimates, shape (K,), of the component at time t from
    each of ``operators``, which share their schedule, applied to the delay
    matrix P_x of the same index in ``p_xs``: the real part of the first row
    of exp(L_i (t - r_i)) P_x, from one stacked :func:`linalg.matrix_exp`.
    An imaginary residual above 1e-6, and a time before the dead time or far
    beyond the sampled window (extrapolation), warn once per operator."""
    s = operators[0].schedule
    dt = t - s.dead_time
    window = s.period * s.count
    extrapolation = None
    if dt < -TIME_MATCH_TOL:
        extrapolation = f"precedes the first sample at {s.dead_time:.6g}"
    elif dt > EXTRAPOLATION_RATIO * window:
        extrapolation = f"extrapolates {dt / window:.2f}x beyond the sampled window"
    if extrapolation:
        for _ in operators:
            warnings.warn(
                f"component {s.component}: estimate at t={t:.6g} {extrapolation}",
                ExtrapolationWarning,
                stacklevel=3,
            )
    propagators = linalg.matrix_exp(np.stack([op.l_complex for op in operators]) * dt)
    estimates = []
    # the label's warnings come out in order, before an error propagates
    with labelled(f"component {s.component}, t={t:.6g}"):
        for propagator, p_x in zip(propagators, p_xs):
            values, _residual = linalg.cast_real(propagator[0, :] @ p_x)
            if not np.all(np.isfinite(values)):
                raise DivergenceError(
                    f"component {s.component}: non-finite estimates at t={t:.6g}"
                )
            estimates.append(values)
    return estimates


def estimated_components(schedules, targets):
    """Components lacking a measurement at one or more target times."""
    return {s.component for s in schedules for t in targets if s.sample_index(t) is None}


def fit_component_operators(ensembles, schedules, targets):
    """Per ensemble, a dict (component index -> :class:`ComponentOperator`)
    of K_i = P_y P_x^+ and L_i = log(K_i) / T_i for each component that
    :func:`estimated_components` names for ``targets``, in schedule order.
    The ensembles share their schedules and size (as the seeds of a sweep
    do); each component is fit across all of them in one
    :func:`linalg.koopman_fit`, whose warnings carry the ``component i:``
    label. Fewer trajectories than delay observables warn
    :class:`RankDeficiencyWarning`. Warnings come component by component.

    Raises
    ------
    DataError
        Naming the component when samples are missing or misplaced.
    SingularMatrixError
        If a fitted K_i is singular so the logarithm does not exist.
    """
    needed = estimated_components(schedules, targets) if ensembles else set()
    sets = [{} for _ in ensembles]
    for s in schedules:
        if s.component in needed:
            for operators, operator in zip(sets, _fit_operators(ensembles, s)):
                operators[s.component] = operator
    return sets


def reconstruct_states(ensembles, schedules, operator_sets, step, first_target=None):
    """Per ensemble, the :class:`StatePairEnsemble` (x(t1), x(t1 + step)),
    with per-component provenance flags (estimated vs measured), on the
    schedules the ensembles share (as the seeds of a sweep do);
    ``first_target`` defaults to ``step``, which gives (x(T_s), x(2 T_s)).

    A measurement at a target (within 1e-9 s) is used verbatim. Otherwise
    the ensemble's own dict of ``operator_sets`` (component index ->
    :class:`ComponentOperator`, fitted on this or any other ensemble of the
    schedules) estimates the value from the ensemble's delay matrix, with one
    stacked matrix exponential per component and target. Warnings and errors
    come component by component.

    Raises
    ------
    ConfigurationError
        If ``step`` is not a finite real number > 0 or ``first_target`` not
        a finite real number, naming it.
    DataError
        If a measurement is missing, an estimate needs an operator that an
        ensemble's dict lacks or has on another schedule, the samples to
        estimate from are missing or misplaced, the ensembles to estimate on
        differ in size, or the two lists differ in length.
    """
    step = check_number(step, "step", positive=True)
    t1 = step if first_target is None else check_number(first_target, "first_target")
    t2 = t1 + step
    n = len(schedules)
    if sorted(s.component for s in schedules) != list(range(n)):
        raise DataError("schedules must cover each state component exactly once")
    if len(operator_sets) != len(ensembles):
        raise DataError(f"{len(ensembles)} ensembles but {len(operator_sets)} operator sets")
    if not ensembles:
        return []

    xs = [np.empty((n, len(ensemble))) for ensemble in ensembles]
    ys = [np.empty((n, len(ensemble))) for ensemble in ensembles]
    x_estimated = [False] * n
    y_estimated = [False] * n
    for s in sorted(schedules, key=lambda s: s.component):
        p_xs = None
        for t, outs, flags in ((t1, xs, x_estimated), (t2, ys, y_estimated)):
            l = s.sample_index(t)
            if l is not None:
                for ensemble, out in zip(ensembles, outs):
                    times = ensemble.times.get(s.component, ())
                    if len(times) <= l or abs(times[l] - t) > TIME_MATCH_TOL:
                        raise DataError(f"component {s.component}: no measurement at t={t:.6g}")
                    out[s.component] = ensemble.values[s.component][:, l]
            else:
                if any(s.component not in operators for operators in operator_sets):
                    raise DataError(
                        f"component {s.component}: estimate at t={t:.6g} needs a "
                        "fitted component operator"
                    )
                operators = [operators[s.component] for operators in operator_sets]
                if any(operator.schedule != s for operator in operators):
                    raise DataError(f"component {s.component}: operator of another schedule")
                if p_xs is None:
                    p_xs, _ = _hankel_stacks(ensembles, s)
                for out, estimates in zip(outs, _estimate_sets(operators, p_xs, t)):
                    out[s.component] = estimates
                flags[s.component] = True
    return [
        StatePairEnsemble(
            x=x,
            y=y,
            step=step,
            x_estimated=tuple(x_estimated),
            y_estimated=tuple(y_estimated),
        )
        for x, y in zip(xs, ys)
    ]

"""Tests for per-component Hankel DMD and state reconstruction."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mredmd import hankel, linalg
from mredmd.dynamics import (
    Ensemble,
    SamplingSchedule,
    lorenz_field,
    sample_ensembles,
)
from mredmd.edmd import StatePairEnsemble, fit_models
from mredmd.errors import (
    ConfigurationError,
    DataError,
    ExtrapolationWarning,
    IllConditionedWarning,
    ImaginaryResidualWarning,
    NegativeRealAxisWarning,
    RankDeficiencyWarning,
)
from mredmd.hankel import estimated_components, fit_component_operators, reconstruct_states
from mredmd.observables import monomial_dictionary


def ensemble_from_rows(rows, schedule):
    """One component sampled on ``schedule``, one row of values per trajectory."""
    rows = np.asarray(rows, dtype=float)
    return Ensemble(
        times={schedule.component: schedule.instants()},
        values={schedule.component: rows},
        indices=np.arange(len(rows)),
    )


def geometric_data(rho=0.9, t_i=0.1, r_i=0.0, n_traj=10):
    """Scalar geometric signals x(l) = x0 * rho^l with distinct x0."""
    schedule = SamplingSchedule(component=0, dead_time=r_i, period=t_i, count=1)
    x0 = np.linspace(0.5, 2.0, n_traj)
    ensemble = ensemble_from_rows([[x, x * rho] for x in x0], schedule)
    return schedule, ensemble, x0


def sinusoid_data(omega=2.0, t_i=0.1, n_traj=6):
    """One coordinate of a 2-D rotation, delay-embedded with M=2."""
    schedule = SamplingSchedule(component=0, dead_time=0.0, period=t_i, count=2)
    rng = np.random.default_rng(0)
    phases = rng.uniform(0, 2 * np.pi, n_traj)
    ensemble = ensemble_from_rows(
        [np.cos(omega * schedule.instants() + phi) for phi in phases], schedule
    )
    return schedule, ensemble


def fit_one(ensemble, schedule):
    """The operator fitted on ``ensemble`` alone, and the ensemble's delay
    stack (1, M_i, K) that its estimates are read from."""
    (op,) = hankel._fit_operators([ensemble], schedule)
    return op, hankel._hankel_stacks([ensemble], schedule)[0]


class TestBuildHankelMatrices:
    def test_smallest_case(self):
        schedule = SamplingSchedule(component=0, dead_time=0.0, period=1.0, count=1)
        ensemble = ensemble_from_rows([[1.0, 2.0], [3.0, 4.0]], schedule)
        p_xs, p_ys = hankel._hankel_stacks([ensemble], schedule)
        np.testing.assert_array_equal(p_xs, [[[1.0, 3.0]]])
        np.testing.assert_array_equal(p_ys, [[[2.0, 4.0]]])
        # the operator is the fit of exactly these stacks
        (k_mat,), (l_complex,) = linalg.koopman_fit(p_xs, p_ys, schedule.period)
        (op,) = hankel._fit_operators([ensemble], schedule)
        assert np.array_equal(op.k_mat, k_mat) and np.array_equal(op.l_complex, l_complex)

    def test_shift_structure(self):
        schedule = SamplingSchedule(component=0, dead_time=0.2, period=0.5, count=4)
        rng = np.random.default_rng(1)
        ensemble = ensemble_from_rows([rng.normal(size=5) for _ in range(7)], schedule)
        (p_x,), (p_y,) = hankel._hankel_stacks([ensemble], schedule)
        np.testing.assert_array_equal(p_y[:-1], p_x[1:])

    def test_benchmark_shape(self):
        schedule = SamplingSchedule(component=1, dead_time=0.0, period=0.4, count=3)
        layout = [
            SamplingSchedule(component=0, dead_time=0.0, period=0.1, count=12),
            schedule,
            SamplingSchedule(component=2, dead_time=0.0, period=0.3, count=4),
        ]
        ((ensemble,),) = sample_ensembles(lorenz_field(), [layout], 300, [0])
        op, p_xs = fit_one(ensemble, schedule)
        assert p_xs.shape == (1, 3, 300)
        assert op.k_mat.shape == op.l_complex.shape == (3, 3)

    def test_insufficient_samples(self):
        schedule = SamplingSchedule(component=0, dead_time=0.0, period=1.0, count=3)
        short = Ensemble(times={0: [0.0, 1.0]}, values={0: [[1.0, 2.0]]}, indices=[0])
        with pytest.raises(DataError, match="component 0: 2 samples"):
            hankel._fit_operators([short], schedule)

    def test_wrong_component(self):
        schedule = SamplingSchedule(component=1, dead_time=0.0, period=1.0, count=1)
        wrong = Ensemble(times={0: [0.0, 1.0]}, values={0: [[1.0, 2.0]]}, indices=[0])
        with pytest.raises(DataError, match="component 1"):
            hankel._fit_operators([wrong], schedule)

    def test_misaligned_times(self):
        schedule = SamplingSchedule(component=0, dead_time=0.0, period=1.0, count=1)
        off = Ensemble(times={0: [0.0, 1.01]}, values={0: [[1.0, 2.0]]}, indices=[0])
        with pytest.raises(DataError, match="instants"):
            hankel._fit_operators([off], schedule)


class TestFitComponentOperator:
    def test_geometric_scalar(self):
        schedule, ensemble, _ = geometric_data()
        (op,) = hankel._fit_operators([ensemble], schedule)
        np.testing.assert_allclose(op.k_mat, [[0.9]], atol=1e-12)
        np.testing.assert_allclose(op.l_mat, [[np.log(0.9) / 0.1]], atol=1e-9)
        assert op.imag_residual <= 1e-12

    def test_constant_signals(self):
        schedule = SamplingSchedule(component=0, dead_time=0.0, period=0.5, count=1)
        ensemble = ensemble_from_rows([[c, c] for c in (1.0, 2.0, -0.5)], schedule)
        (op,) = hankel._fit_operators([ensemble], schedule)
        np.testing.assert_allclose(op.k_mat, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(op.l_mat, [[0.0]], atol=1e-12)

    def test_sinusoid_recovers_oscillator_pair(self):
        omega, t_i = 2.0, 0.1
        schedule, ensemble = sinusoid_data(omega, t_i)
        (op,) = hankel._fit_operators([ensemble], schedule)
        eigs = np.sort_complex(np.linalg.eigvals(op.k_mat))
        expected = np.sort_complex([np.exp(1j * omega * t_i), np.exp(-1j * omega * t_i)])
        np.testing.assert_allclose(eigs, expected, atol=1e-8)
        # generator eigenvalues are +-i*omega, so the cast is clean
        assert op.imag_residual <= 1e-8

    def test_exp_of_generator_returns_k(self):
        import scipy.linalg

        schedule, ensemble = sinusoid_data()
        (op,) = hankel._fit_operators([ensemble], schedule)
        assert op.imag_residual < 1e-8
        back = scipy.linalg.expm(op.l_mat * schedule.period)
        rel = np.linalg.norm(back - op.k_mat) / np.linalg.norm(op.k_mat)
        assert rel <= 1e-6

    def test_matches_edmd_fit(self):
        # Hankel DMD with one delay is EDMD on the coordinate itself: both
        # steps share one fit kernel, so the matrices agree bit for bit
        schedule = SamplingSchedule(component=0, dead_time=0.0, period=0.1, count=1)
        rows = np.random.default_rng(5).normal(size=(20, 2))
        (op,) = hankel._fit_operators([ensemble_from_rows(rows, schedule)], schedule)
        (model,) = fit_models(
            [StatePairEnsemble(x=rows[:, :1].T, y=rows[:, 1:].T, step=schedule.period)],
            monomial_dictionary(1, 1, include_constant=False),
        )
        assert np.array_equal(op.k_mat, model.k_mat)
        assert np.array_equal(op.l_complex, model.l_complex)

    def test_rank_deficiency_warns(self):
        schedule = SamplingSchedule(component=0, dead_time=0.0, period=0.1, count=2)
        ensemble = ensemble_from_rows([[1.0, 0.9, 0.81]], schedule)
        with pytest.warns((RankDeficiencyWarning, IllConditionedWarning)):
            try:
                hankel._fit_operators([ensemble], schedule)
            except Exception:
                pass  # singular K_i is acceptable here; the warning is the contract

    def test_ill_conditioning_warns(self):
        schedule = SamplingSchedule(component=0, dead_time=0.0, period=0.1, count=2)
        rng = np.random.default_rng(2)
        base = rng.normal(size=8)
        ensemble = ensemble_from_rows(
            [[b, b * (1 + 1e-15), b * (1 + 2e-15)] for b in base], schedule
        )
        with pytest.warns(IllConditionedWarning):
            try:
                hankel._fit_operators([ensemble], schedule)
            except Exception:
                pass


    def test_factorises_p_x_once(self, monkeypatch):
        # one SVD of P_x gives both the pseudo-inverse and cond(P_x): the
        # wide 2 x 6 P_x is factored through its transpose; the other is
        # the singularity test of K in the logarithm (each a stack of one)
        shapes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        schedule, ensemble = sinusoid_data()
        hankel._fit_operators([ensemble], schedule)
        assert shapes == [(1, 6, 2), (1, 2, 2)]


class TestEstimateComponentAt:
    def test_at_dead_time_reproduces_first_row(self):
        schedule, ensemble, _ = geometric_data(r_i=0.3)
        op, p_xs = fit_one(ensemble, schedule)
        (est,) = hankel._estimate_sets([op], p_xs, 0.3)
        np.testing.assert_array_equal(est, p_xs[0, 0])

    def test_one_period_propagation(self):
        schedule, ensemble, _ = geometric_data()
        op, p_xs = fit_one(ensemble, schedule)
        (est,) = hankel._estimate_sets([op], p_xs, schedule.period)
        np.testing.assert_allclose(est, ensemble.values[0][:, 1], atol=1e-10)

    def test_fractional_power_analytic(self):
        schedule, ensemble, x0 = geometric_data(rho=0.9, t_i=0.1)
        op, p_xs = fit_one(ensemble, schedule)
        (est,) = hankel._estimate_sets([op], p_xs, 0.05)
        np.testing.assert_allclose(est, x0 * 0.9**0.5, atol=1e-9)

    def test_linear_system_arbitrary_time(self):
        # x' = a x sampled exactly: estimates match x0 * exp(a t) at any t
        a, r_i, t_i = -0.7, 0.05, 0.2
        schedule = SamplingSchedule(component=0, dead_time=r_i, period=t_i, count=1)
        x0 = np.array([0.3, 1.1, -0.8])
        ensemble = ensemble_from_rows(
            [[x * np.exp(a * r_i), x * np.exp(a * (r_i + t_i))] for x in x0], schedule
        )
        op, p_xs = fit_one(ensemble, schedule)
        for t in (0.1, 0.33, 0.5):
            (est,) = hankel._estimate_sets([op], p_xs, t)
            np.testing.assert_allclose(est, x0 * np.exp(a * t), atol=1e-6)

    def test_before_dead_time_warns(self):
        schedule, ensemble, _ = geometric_data(r_i=0.3)
        op, p_xs = fit_one(ensemble, schedule)
        with pytest.warns(ExtrapolationWarning):
            hankel._estimate_sets([op], p_xs, 0.0)

    def test_far_extrapolation_warns(self):
        schedule, ensemble, _ = geometric_data()
        op, p_xs = fit_one(ensemble, schedule)
        with pytest.warns(ExtrapolationWarning):
            hankel._estimate_sets([op], p_xs, 1.0)  # 10x the sampled window


class TestRationalPowerEstimate:
    """Estimates at rational multiples of T_i are fractional powers of K_i."""

    def test_integer_power_consistency(self):
        schedule, ensemble, _ = geometric_data()
        op, p_xs = fit_one(ensemble, schedule)
        (est,) = hankel._estimate_sets([op], p_xs, 2 * schedule.period)
        np.testing.assert_allclose(est, (op.k_mat @ op.k_mat @ p_xs[0])[0], atol=1e-10)

    def test_agrees_with_exp_log_for_positive_spectrum(self):
        schedule, ensemble, _ = geometric_data()
        op, p_xs = fit_one(ensemble, schedule)
        t = 0.137
        w, v = np.linalg.eig(op.k_mat)  # oracle: principal power by eigendecomposition
        powered = (v * np.power(w.astype(complex), t / schedule.period)) @ np.linalg.inv(v)
        oracle = powered[0] @ p_xs[0]
        assert np.max(np.abs(oracle.imag)) <= 1e-10
        np.testing.assert_allclose(hankel._estimate_sets([op], p_xs, t)[0], oracle.real, atol=1e-8)

    def test_negative_eigenvalue_half_power_is_complex(self):
        schedule = SamplingSchedule(component=0, dead_time=0.0, period=0.1, count=1)
        ensemble = ensemble_from_rows([[x, -0.5 * x] for x in (1.0, 2.0)], schedule)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            op, p_xs = fit_one(ensemble, schedule)
            hankel._estimate_sets([op], p_xs, 0.05)  # sqrt(-0.5) is imaginary
        np.testing.assert_allclose(op.k_mat, [[-0.5]], atol=1e-12)
        assert op.imag_residual > 1.0
        # each warning carries its component (and time) label, in order
        assert [(w.category, str(w.message).split(": ")[0]) for w in caught] == [
            (NegativeRealAxisWarning, "component 0"),
            (ImaginaryResidualWarning, "component 0"),
            (ImaginaryResidualWarning, "component 0, t=0.05"),
        ]

    def test_defective_matrix_exp_log(self):
        # a Jordan block has no eigenvector basis; the exp-log path still
        # gives its principal square root [[1, 0.5], [0, 1]]
        schedule = SamplingSchedule(component=0, dead_time=0.0, period=0.1, count=2)
        # its P_x, P_y have no Hankel structure, so the operator is built directly
        p_x = np.eye(2)
        k_mat, l_complex = linalg.koopman_fit(p_x, np.array([[1.0, 1.0], [0.0, 1.0]]), 0.1)
        op = hankel.ComponentOperator(schedule=schedule, k_mat=k_mat, l_complex=l_complex)
        np.testing.assert_allclose(op.k_mat, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)
        (est,) = hankel._estimate_sets([op], p_x[None], 0.05)
        np.testing.assert_allclose(est, [1.0, 0.5], atol=1e-10)


def multirate_schedules(t_s=0.1):
    return [
        SamplingSchedule(component=0, dead_time=0.0, period=t_s, count=12),
        SamplingSchedule(component=1, dead_time=0.0, period=4 * t_s, count=3),
        SamplingSchedule(component=2, dead_time=0.0, period=3 * t_s, count=4),
    ]


def single_state_schedules(t_s=0.1, n=3):
    return [
        SamplingSchedule(component=i, dead_time=(i + 1) * t_s, period=n * t_s, count=2)
        for i in range(n)
    ]


class TestEstimatedComponents:
    def test_multirate_pattern(self):
        needed = estimated_components(multirate_schedules(), (0.1, 0.2))
        assert needed == {1, 2}

    def test_single_state_pattern(self):
        # at 3 T_s: x3 measured; at 4 T_s: x1 measured
        needed_t1 = estimated_components(single_state_schedules(), (0.3,))
        needed_t2 = estimated_components(single_state_schedules(), (0.4,))
        assert needed_t1 == {0, 1}
        assert needed_t2 == {1, 2}

    def test_full_sampling_needs_nothing(self):
        schedules = [
            SamplingSchedule(component=i, dead_time=0.0, period=0.1, count=2)
            for i in range(3)
        ]
        assert estimated_components(schedules, (0.1, 0.2)) == set()


class TestFitComponentOperators:
    @pytest.mark.parametrize(
        "schedules, targets",
        [(multirate_schedules(), (0.1, 0.2)), (single_state_schedules(), (0.3, 0.4))],
        ids=["multirate", "single_state"],
    )
    def test_fits_estimated_components_in_schedule_order(self, schedules, targets):
        schedules = schedules[::-1]
        ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], 30, [4])
        (ops,) = fit_component_operators([ensemble], schedules, targets)
        needed = [s for s in schedules if s.component in estimated_components(schedules, targets)]
        assert list(ops) == [s.component for s in needed]
        assert [op.schedule for op in ops.values()] == needed


def reconstruct(ensemble, schedules, step, first_target=None):
    """reconstruct_states with operators fitted for the estimated components."""
    t1 = step if first_target is None else first_target
    operator_sets = fit_component_operators([ensemble], schedules, (t1, t1 + step))
    (pairs,) = reconstruct_states(
        [ensemble], schedules, operator_sets, step, first_target=first_target
    )
    return pairs


class TestReconstructStates:
    def test_full_sampling_passthrough(self):
        schedules = [
            SamplingSchedule(component=i, dead_time=0.0, period=0.1, count=2)
            for i in range(3)
        ]
        ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], 5, [0])
        pairs = reconstruct(ensemble, schedules, 0.1)
        assert pairs.x_estimated == (False, False, False)
        assert pairs.y_estimated == (False, False, False)
        for i in range(3):
            np.testing.assert_array_equal(pairs.x[i], ensemble.values[i][:, 1])
            np.testing.assert_array_equal(pairs.y[i], ensemble.values[i][:, 2])

    def test_multirate_provenance(self):
        schedules = multirate_schedules()
        ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], 40, [1])
        pairs = reconstruct(ensemble, schedules, 0.1)
        assert pairs.x_estimated == (False, True, True)
        assert pairs.y_estimated == (False, True, True)
        # measured component passes through bit-identically
        np.testing.assert_array_equal(pairs.x[0], ensemble.values[0][:, 1])
        np.testing.assert_array_equal(pairs.y[0], ensemble.values[0][:, 2])

    def test_multirate_estimates_near_truth(self):
        schedules = multirate_schedules()
        full_state = [SamplingSchedule(i, 0.0, 0.1, 2) for i in range(3)]
        ((ensemble, full),) = sample_ensembles(lorenz_field(), [schedules, full_state], 300, [2])
        pairs = reconstruct(ensemble, schedules, 0.1)
        err = np.abs(pairs.x - reconstruct(full, full_state, 0.1).x)
        assert err[1].mean() < 0.02
        assert err[2].mean() < 0.02

    def test_single_state_pattern(self):
        schedules = single_state_schedules()
        ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], 60, [3])
        pairs = reconstruct(ensemble, schedules, 0.1, first_target=0.3)
        assert pairs.x_estimated == (True, True, False)
        assert pairs.y_estimated == (False, True, True)
        np.testing.assert_array_equal(pairs.x[2], ensemble.values[2][:, 0])  # x3 at 3 T_s
        np.testing.assert_array_equal(pairs.y[0], ensemble.values[0][:, 1])  # x1 at 4 T_s

    def test_operators_reused(self):
        schedules = multirate_schedules()
        ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], 30, [4])
        (ops,) = fit_component_operators([ensemble], schedules, (0.1, 0.2))
        assert list(ops) == [1, 2]
        (pairs,) = reconstruct_states([ensemble], schedules, [ops], 0.1)
        for comp, op in ops.items():
            p_xs = hankel._hankel_stacks([ensemble], op.schedule)[0]
            np.testing.assert_array_equal(pairs.x[comp], hankel._estimate_sets([op], p_xs, 0.1)[0])
            np.testing.assert_array_equal(pairs.y[comp], hankel._estimate_sets([op], p_xs, 0.2)[0])

    def test_missing_operator_rejected(self):
        schedules = multirate_schedules()
        ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], 30, [4])
        (ops,) = fit_component_operators([ensemble], schedules, (0.1, 0.2))
        del ops[2]
        with pytest.raises(DataError, match="component 2"):
            reconstruct_states([ensemble], schedules, [ops], 0.1)

    def test_operator_sets_one_per_ensemble(self):
        schedules = multirate_schedules()
        ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], 30, [4])
        with pytest.raises(DataError, match="2 ensembles but 1 operator sets"):
            reconstruct_states([ensemble, ensemble], schedules, [{}], 0.1)

    def test_no_ensembles(self):
        schedules = multirate_schedules()
        assert fit_component_operators([], schedules, (0.1, 0.2)) == []
        assert reconstruct_states([], schedules, [], 0.1) == []

    def test_no_records(self):
        with pytest.raises(DataError):
            reconstruct_states(
                [Ensemble(times={}, values={}, indices=[])], multirate_schedules(), [{}], 0.1
            )


class TestForeignEnsembles:
    """Operators fitted on one ensemble estimate on another of the same
    schedules from that ensemble's own samples, as a fitted step 1 holds no
    data; an operator of another schedule, or samples off the schedule, end
    in a DataError that names the component."""

    @pytest.fixture(scope="class")
    def fitted(self):
        schedules = multirate_schedules()
        ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], 300, [0])
        (ops,) = fit_component_operators([ensemble], schedules, (0.1, 0.2))
        return schedules, ops

    @pytest.mark.parametrize("k, seed", [(300, 1), (100, 2)])
    def test_estimates_read_the_ensemble_applied_to(self, fitted, k, seed):
        schedules, ops = fitted
        full_state = [SamplingSchedule(i, 0.0, 0.1, 2) for i in range(3)]
        ((ensemble, full),) = sample_ensembles(lorenz_field(), [schedules, full_state], k, [seed])
        (pairs,) = reconstruct_states([ensemble], schedules, [ops], 0.1)
        assert pairs.x.shape == (3, k)
        for l, (t, out) in enumerate(((0.1, pairs.x), (0.2, pairs.y)), start=1):
            # x1 is measured at both targets: the ensemble's own samples
            assert out[0].tobytes() == ensemble.values[0][:, l].tobytes()
            for comp, op in ops.items():
                s = op.schedule
                p_x = np.ascontiguousarray(ensemble.values[comp][:, : s.count].T)
                row = linalg.matrix_exp(op.l_complex * (t - s.dead_time))[0]
                expected, _ = linalg.cast_real(row @ p_x)
                assert out[comp].tobytes() == expected.tobytes()
        # and close to the truth of this ensemble, not of the fitted one
        truth = np.stack([full.values[i][:, 1:] for i in range(3)])  # (3, K, 2) at 0.1, 0.2
        assert np.abs(pairs.x - truth[:, :, 0]).mean(axis=1).max() < 0.02
        assert np.abs(pairs.y - truth[:, :, 1]).mean(axis=1).max() < 0.02

    @pytest.mark.parametrize("field, value", [("count", 2), ("period", 0.8), ("dead_time", 0.1)])
    def test_operator_of_another_schedule_rejected(self, fitted, field, value):
        schedules, ops = fitted
        other = [replace(s, **{field: value}) if s.component == 1 else s for s in schedules]
        ((ensemble,),) = sample_ensembles(lorenz_field(), [other], 300, [1])
        with pytest.raises(DataError, match="^component 1: operator of another schedule$"):
            reconstruct_states([ensemble], other, [ops], 0.1)

    def test_misplaced_samples_rejected(self, fitted):
        schedules, ops = fitted
        ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], 300, [1])
        shifted = Ensemble(
            times={**ensemble.times, 2: ensemble.times[2] + 0.05},
            values=ensemble.values,
            indices=ensemble.indices,
        )
        message = "^component 2: sample times do not match the schedule instants$"
        with pytest.raises(DataError, match=message):
            reconstruct_states([shifted], schedules, [ops], 0.1)


class TestHostileScalars:
    """A step or target that is not a finite real number ends in a
    ConfigurationError that names it, before any estimate."""

    @pytest.fixture
    def fitted(self):
        schedules = multirate_schedules()
        ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], 30, [4])
        (ops,) = fit_component_operators([ensemble], schedules, (0.1, 0.2))
        return ensemble, schedules, ops

    @pytest.mark.parametrize(
        "step, first_target, message",
        [
            (float("nan"), None, "step must be a finite number > 0, got nan"),
            (float("inf"), None, "step must be a finite number > 0, got inf"),
            ("0.1", None, "step must be a finite number > 0, got '0.1'"),
            (-0.1, None, "step must be a finite number > 0, got -0.1"),
            (0.1, float("nan"), "first_target must be a finite number, got nan"),
            (0.1, float("inf"), "first_target must be a finite number, got inf"),
            (0.1, "0.1", "first_target must be a finite number, got '0.1'"),
        ],
    )
    def test_reconstruct_states(self, fitted, monkeypatch, step, first_target, message):
        ensemble, schedules, ops = fitted

        def forbidden(*args):
            raise AssertionError("an estimate ran before the scalars were checked")

        monkeypatch.setattr(hankel, "_estimate_sets", forbidden)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            reconstruct_states([ensemble], schedules, [ops], step, first_target=first_target)

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), "0.1", None])
    def test_targets(self, fitted, target):
        ensemble, schedules, _ = fitted
        message = f"^{re.escape(f't must be a finite number, got {target!r}')}$"
        with pytest.raises(ConfigurationError, match=message):
            fit_component_operators([ensemble], schedules, (target, 0.4))
        with pytest.raises(ConfigurationError, match=message):
            estimated_components(schedules, (target,))

"""Tests for integration, the benchmark field, and ensemble sampling."""

import inspect
import itertools
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mredmd import dynamics, export_ensemble, import_ensemble
from mredmd.dynamics import (
    TIME_MATCH_TOL,
    Ensemble,
    SamplingSchedule,
    common_micro_step,
    integrate,
    linear_field,
    lorenz_field,
    sample_ensembles,
)
from mredmd.errors import ConfigurationError, DataError, DivergenceError


def _zeros(xs, outs):
    for out in outs:
        out.fill(0.0)


def _identity(xs, outs):
    for x, out in zip(xs, outs):
        np.copyto(out, x)


def _negation(xs, outs):
    for x, out in zip(xs, outs):
        np.negative(x, out)


def _cube(xs, outs):
    np.power(xs[0], 3.0, outs[0])


class TestIntegrate:
    def test_zero_field_constant(self):
        fld = dynamics.VectorField(2, _zeros)
        out = integrate(fld, [1.0, -2.0], 0.1, 5)
        np.testing.assert_array_equal(out, np.tile([1.0, -2.0], (6, 1)))

    def test_exponential_decay(self):
        fld = linear_field([[-1.0]])
        out = integrate(fld, [1.0], 0.001, 1000)
        assert out[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_lorenz_step_doubling(self):
        # per-step error is O(h^5): halving h shrinks the one-step vs
        # two-half-steps difference by ~2^5
        fld = lorenz_field()
        x0 = np.array([0.7, -0.4, 0.9])

        def diff(h):
            one = integrate(fld, x0, h, 1)[-1]
            two = integrate(fld, x0, h / 2, 2)[-1]
            return np.linalg.norm(one - two)

        ratio = diff(0.2) / diff(0.1)
        assert 16.0 < ratio < 64.0

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3))
        x0 = rng.normal(size=3)
        h = 0.01
        out = integrate(linear_field(a), x0, h, 1)[-1]
        exact = scipy.linalg.expm(a * h) @ x0
        assert np.linalg.norm(out - exact) < 10 * h**5

    def test_batch_matches_single(self):
        fld = lorenz_field()
        x0s = np.array([[0.1, 0.2, 0.3], [-0.5, 0.4, 0.8]])
        batch = integrate(fld, x0s, 0.05, 10)
        for k in range(2):
            single = integrate(fld, x0s[k], 0.05, 10)
            np.testing.assert_array_equal(batch[:, k, :], single)

    def test_divergence_names_step(self):
        fld = dynamics.VectorField(1, _cube)
        with pytest.raises(DivergenceError, match="step") as every_step:
            integrate(fld, [10.0], 1.0, 50)
        # with a stride, the first non-finite micro-step between kept rows
        # is still the one named
        assert "step 50" not in str(every_step.value)
        with pytest.raises(DivergenceError) as strided:
            integrate(fld, [10.0], 1.0, 50, every=50)
        assert str(strided.value) == str(every_step.value)

    def test_grid_beyond_address_space_refused(self):
        # NumPy refuses the shape itself, so no memory is touched; the size
        # named is that of the kept states
        for every in (1, 2, 4):
            with pytest.raises(ConfigurationError) as info:
                integrate(lorenz_field(), np.zeros((10, 3)), 0.01, 2**62, every=every)
            message = str(info.value)
            assert f"n_steps={2**62}" in message and "(10, 3)" in message
            assert f"{(2**62 // every + 1) * 30 * 8 / 2**30:.3g} GiB" in message

    def test_allocation_failure_named(self, monkeypatch):
        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"cannot allocate {shape}")

        monkeypatch.setattr(dynamics.np, "empty", no_memory)
        with pytest.raises(
            ConfigurationError,
            match=r"n_steps=1000 for a batch of shape \(4096, 3\) requests 0\.0916 GiB",
        ):
            integrate(lorenz_field(), np.zeros((4096, 3)), 0.01, 1000)

    @pytest.mark.parametrize("x0", [[0.7, -0.4, 0.9], [[0.1, 0.2, 0.3], [-0.5, 0.4, 0.8]]])
    @pytest.mark.parametrize("every", [1, 3, 10, 30])
    def test_every_keeps_strided_rows(self, x0, every):
        full = integrate(lorenz_field(), x0, 0.01, 30)
        kept = integrate(lorenz_field(), x0, 0.01, 30, every=every)
        assert kept.shape == (30 // every + 1,) + np.shape(x0)
        np.testing.assert_array_equal(kept, full[::every])

    @pytest.mark.parametrize(
        "every, n_steps, match",
        [
            (2.0, 10, "every must be an integer"),
            (True, 10, "every must be an integer"),
            ("2", 10, "every must be an integer"),
            (0, 10, "every must be an integer >= 1"),
            (-5, 10, "every must be an integer >= 1"),
            (3, 10, r"n_steps=10 is not a multiple of every=3"),
        ],
    )
    def test_bad_every_rejected(self, every, n_steps, match):
        with pytest.raises(ConfigurationError, match=match):
            integrate(lorenz_field(), np.zeros(3), 0.01, n_steps, every=every)

    @pytest.mark.parametrize(
        "step", [0.0, -0.01, np.nan, np.inf, -np.inf, 10**400, True, "0.1", None]
    )
    def test_bad_step_rejected(self, step):
        # refused before any arithmetic: no RuntimeWarning, no DivergenceError
        with np.errstate(all="raise"), pytest.raises(
            ConfigurationError, match=r"^step must be a finite number > 0, got "
        ):
            integrate(lorenz_field(), np.ones(3), step, 3)

    @pytest.mark.parametrize("n_steps", [-1, True, False, 3.0, "3", None])
    def test_bad_n_steps_rejected(self, n_steps):
        with pytest.raises(ConfigurationError, match=r"^n_steps must be an integer >= 0, got "):
            integrate(lorenz_field(), np.ones(3), 0.01, n_steps)

    def test_numpy_scalars_accepted(self):
        x0 = np.array([0.7, -0.4, 0.9])
        expected = integrate(lorenz_field(), x0, 0.01, 6, every=3)
        for step, n_steps in [(np.float64(0.01), np.int64(6)), (0.01, np.int32(6))]:
            out = integrate(lorenz_field(), x0, step, n_steps, every=np.int64(3))
            np.testing.assert_array_equal(out, expected)

    def test_stacked_matches_separate(self):
        rng = np.random.default_rng(8)
        starts = [rng.uniform(-2, 2, size=(m, 3)) for m in (1, 7, 30)]
        dense = integrate(lorenz_field(), np.concatenate(starts), 0.01, 40)
        stacked = np.split(dense, np.cumsum([len(x) for x in starts])[:-1], axis=1)
        assert [d.shape for d in stacked] == [(41, 1, 3), (41, 7, 3), (41, 30, 3)]
        for x0, dense in zip(starts, stacked):
            np.testing.assert_array_equal(dense, integrate(lorenz_field(), x0, 0.01, 40))


def _rk4_step(field, x, h):
    """The classical RK4 step, written as the formula: the oracle of the
    in-place kernel of :func:`integrate`."""
    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_integrate(field, x0, h, n_steps, every):
    x = np.array(x0, dtype=float)
    kept = [x]
    for j in range(1, n_steps + 1):
        x = _rk4_step(field, x, h)
        if j % every == 0:
            kept.append(x)
    return np.stack(kept)


def _oracle_cases():
    rng = np.random.default_rng(21)
    lorenz = lorenz_field()
    cases = [
        ("lorenz-1d", lorenz, rng.uniform(-2, 2, size=3)),
        ("lorenz-batch", lorenz, rng.uniform(-2, 2, size=(50, 3))),
        ("lorenz-fortran", lorenz, np.asfortranarray(rng.uniform(-2, 2, size=(9, 3)))),
        ("lorenz-strided", lorenz, rng.uniform(-2, 2, size=(12, 3))[::3]),
    ]
    for n in (1, 3, 7):
        a = rng.normal(size=(n, n))
        cases.append((f"linear-{n}-1d", linear_field(a), rng.uniform(-1, 1, size=n)))
        cases.append((f"linear-{n}-batch", linear_field(a), rng.uniform(-1, 1, size=(20, n))))
    # "identity-alias" names the field that once returned its argument; a
    # field now writes into the kernel's own buffers, and this one copies
    for name, func in [("identity-alias", _identity), ("negation", _negation), ("zeros", _zeros)]:
        fld = dynamics.VectorField(3, func)
        cases.append((name + "-1d", fld, rng.uniform(-1, 1, size=3)))
        cases.append((name + "-batch", fld, rng.uniform(-1, 1, size=(6, 3))))
    return [pytest.param(fld, x0, id=name) for name, fld, x0 in cases]


class TestRk4Oracle:
    """The in-place kernel is bit for bit the RK4 formula, evaluated through
    ``field(x)``, whatever the field does with its output buffers and
    however the caller's initial states are laid out."""

    @pytest.mark.parametrize("every", [1, 3, 10])
    @pytest.mark.parametrize("fld, x0", _oracle_cases())
    def test_bitwise_equal_to_formula(self, fld, x0, every):
        before = x0.copy()
        out = integrate(fld, x0, 0.01, 30, every=every)
        np.testing.assert_array_equal(x0, before)  # the caller's states are not touched
        assert out.shape == (30 // every + 1,) + x0.shape
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, _reference_integrate(fld, x0, 0.01, 30, every))

    def test_benchmark_sized_batch_equal_to_formula(self):
        # the shape of the multirate benchmark's sampling pass
        x0 = np.random.default_rng(23).uniform(-2, 2, size=(10_000, 3))
        out = integrate(lorenz_field(), x0, 0.01, 120, every=10)
        np.testing.assert_array_equal(out, _reference_integrate(lorenz_field(), x0, 0.01, 120, 10))

    def test_divergence_names_first_non_finite_micro_step(self):
        x0 = np.random.default_rng(24).uniform(-320, 320, size=(1000, 3))
        x, first = x0, None
        with np.errstate(all="ignore"):
            for j in range(1, 101):
                x = _rk4_step(lorenz_field(), x, 0.01)
                if not np.all(np.isfinite(x)):
                    first = j
                    break
            assert first is not None and first % 10  # between two kept rows
            message = f"at step {first}, t={first * 0.01:.6g}$"
            with pytest.raises(DivergenceError, match=message):
                integrate(lorenz_field(), x0, 0.01, 100, every=10)

    @pytest.mark.parametrize("every", [1, 3, 10])
    def test_stacked_lorenz_equal_to_formula(self, every):
        rng = np.random.default_rng(22)
        starts = [rng.uniform(-2, 2, size=(m, 3)) for m in (1, 4, 11)]
        dense = integrate(lorenz_field(), np.concatenate(starts), 0.01, 30, every)
        stacked = np.split(dense, np.cumsum([len(x) for x in starts])[:-1], axis=1)
        for x0, dense in zip(starts, stacked):
            reference = _reference_integrate(lorenz_field(), x0, 0.01, 30, every)
            np.testing.assert_array_equal(dense, reference)


def _lorenz_formula(x):
    """The benchmark field written out with Python floats, each component
    in the field's operation order."""
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([0.5 * (x2 - x1), x1 * (0.75 - x3) - x2, x1 * x2 - 2.0 * x3], axis=-1)


def _laid_out(values, layout):
    if layout == "C":
        return np.ascontiguousarray(values)
    if layout == "F":
        return np.asfortranarray(values)
    # every other element of a larger array, along each axis
    big = np.full(tuple(2 * n for n in values.shape), 7.0)
    view = big[(slice(None, None, 2),) * values.ndim]
    view[...] = values
    return view


#: Signed zeros, subnormals, overflowing and non-finite values.
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, -2.5e-310, 1e200, -1e200, 1.5e308, np.inf, -np.inf, np.nan]


def _assert_formula_bits(x):
    before = x.copy()
    with np.errstate(all="ignore"):
        got, expected = lorenz_field()(x), _lorenz_formula(x)
    np.testing.assert_array_equal(x, before)
    assert got.shape == x.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    # non-nan entries bit for bit, so that -0.0 differs from 0.0
    np.testing.assert_array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64))


class TestVectorFieldContract:
    @pytest.mark.parametrize(
        "func",
        [lambda x: x, lambda xs, outs, t: None, lambda: None, lambda *, xs, outs: 0],
        ids=["one-argument", "three-arguments", "no-argument", "keyword-only"],
    )
    def test_field_that_cannot_take_xs_outs_refused(self, func):
        with pytest.raises(ConfigurationError, match=r"called as func\(xs, outs\)") as info:
            dynamics.VectorField(3, func)
        assert "writes dx_i/dt into outs[i]" in str(info.value)

    def test_old_one_argument_field_never_reaches_rk4(self):
        # the contract of earlier releases returned dx/dt from func(x)
        with pytest.raises(ConfigurationError, match="has signature"):
            integrate(dynamics.VectorField(3, lambda x: -x), np.ones(3), 0.01, 3)

    def test_unreadable_signature_accepted(self):
        with pytest.raises(ValueError):
            inspect.signature(max)
        assert dynamics.VectorField(1, max).func is max

    def test_signatures_that_bind_two_arguments_accepted(self):
        dynamics.VectorField(3, lambda *args: None)
        dynamics.VectorField(3, lorenz_field().func)
        # (a, dtype=None, ...): the check reads the signature, not the intent
        dynamics.VectorField(3, np.zeros_like)

    @pytest.mark.parametrize(
        "dim, func, match",
        [
            (3, None, "func must be callable"),
            (3, 5, "func must be callable"),
            (0, _zeros, "dim must be an integer >= 1"),
            (2.0, _zeros, "dim must be an integer >= 1"),
            (True, _zeros, "dim must be an integer >= 1"),
        ],
    )
    def test_bad_dim_or_func_refused(self, dim, func, match):
        with pytest.raises(ConfigurationError, match=match):
            dynamics.VectorField(dim, func)

    def test_call_returns_fresh_array_and_leaves_input(self):
        fld = dynamics.VectorField(3, _negation)
        x = np.arange(6.0).reshape(2, 3)
        before = x.copy()
        out = fld(x)
        np.testing.assert_array_equal(out, -before)
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(out, x)
        assert fld(x) is not out

    def test_call_checks_dimension(self):
        with pytest.raises(ConfigurationError, match=r"field expects \(\.\.\., 3\)"):
            lorenz_field()(np.zeros((4, 2)))

    def test_integrate_hands_contiguous_components_of_own_buffers(self):
        seen = []

        def record(xs, outs):
            seen.append((xs, outs))
            for out in outs:
                out.fill(0.0)

        x0 = np.ones((5, 3))
        integrate(dynamics.VectorField(3, record), x0, 0.1, 2)
        assert len(seen) == 8
        for xs, outs in seen:
            assert len(xs) == len(outs) == 3
            for a in xs + outs:
                assert a.shape == (5,) and a.flags.contiguous
                assert not np.shares_memory(a, x0)
            assert not any(np.shares_memory(x, o) for x in xs for o in outs)
        # the buffers are built once: two stage inputs, two derivative buffers in turn
        assert len({id(xs) for xs, _ in seen}) == 2 and len({id(outs) for _, outs in seen}) == 2


class TestLorenzField:
    @pytest.mark.parametrize("shape", [(3,), (5, 3)])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.sampled_from(_SPECIAL) | st.floats(), min_size=15, max_size=15))
    def test_bits_equal_to_formula(self, values, shape, layout):
        _assert_formula_bits(_laid_out(np.array(values[: np.prod(shape)]).reshape(shape), layout))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_special_value_grid_bits_equal_to_formula(self, layout):
        grid = np.array(list(itertools.product(_SPECIAL, repeat=3)))
        _assert_formula_bits(_laid_out(grid, layout))

    def test_equilibrium(self):
        np.testing.assert_array_equal(lorenz_field()(np.zeros(3)), np.zeros(3))

    def test_hand_values(self):
        fld = lorenz_field()
        np.testing.assert_allclose(fld(np.array([1.0, 1.0, 1.0])), [0.0, -1.25, -1.0])
        np.testing.assert_allclose(fld(np.array([0.0, 1.0, 0.0])), [0.5, -1.0, 0.0])


class TestSamplingSchedule:
    def test_instants(self):
        s = SamplingSchedule(component=0, dead_time=0.2, period=0.5, count=3)
        np.testing.assert_allclose(s.instants(), [0.2, 0.7, 1.2, 1.7])

    def test_sample_index(self):
        s = SamplingSchedule(component=0, dead_time=0.1, period=0.3, count=2)
        assert s.sample_index(0.4) == 1
        assert s.sample_index(0.2) is None
        assert s.sample_index(1.3) is None  # beyond the last sample

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), "0.4", True, None])
    def test_sample_index_refuses_non_finite_times(self, t):
        s = SamplingSchedule(component=0, dead_time=0.1, period=0.3, count=2)
        message = re.escape(f"t must be a finite number, got {t!r}")
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            s.sample_index(t)

    def test_sample_index_far_beyond_the_window(self):
        # (t - r) / T overflows to inf, which round refuses
        s = SamplingSchedule(component=0, dead_time=0.0, period=1e-300, count=2)
        assert s.sample_index(1e300) is None
        assert s.sample_index(-1e300) is None
        assert s.sample_index(np.float64(2e-300)) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SamplingSchedule(component=0, dead_time=-0.1, period=0.5, count=1)
        with pytest.raises(ConfigurationError):
            SamplingSchedule(component=0, dead_time=0.0, period=0.0, count=1)
        with pytest.raises(ConfigurationError):
            SamplingSchedule(component=0, dead_time=0.0, period=0.5, count=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("component", -1),
            ("component", True),
            ("component", 1.0),
            ("dead_time", float("nan")),
            ("dead_time", float("inf")),
            ("dead_time", -0.1),
            ("dead_time", "0.1"),
            ("period", float("inf")),
            ("period", float("nan")),
            ("period", 0.0),
            ("period", False),
            # ints beyond the float range
            ("dead_time", 10**400),
            ("period", 10**400),
            ("period", -(10**400)),
            ("count", 2.5),
            ("count", True),
            ("count", 0),
        ],
    )
    def test_invalid_field_named(self, field, value):
        fields = dict(component=0, dead_time=0.0, period=0.5, count=2)
        with pytest.raises(ConfigurationError, match=rf"^{field} must be"):
            SamplingSchedule(**{**fields, field: value})


class TestCommonMicroStep:
    def test_benchmark_rates(self):
        schedules = [
            SamplingSchedule(component=i, dead_time=0.0, period=p * 0.1, count=2)
            for i, p in enumerate((1, 4, 3))
        ]
        h = common_micro_step(schedules)
        assert float(h) == pytest.approx(0.01)

    def test_includes_dead_times_and_extras(self):
        schedules = [SamplingSchedule(component=0, dead_time=0.05, period=0.2, count=2)]
        h = common_micro_step(schedules, extra_times=(0.1,))
        assert float(h) == pytest.approx(0.005)

    def test_irrational_period_rejected(self):
        schedules = [
            SamplingSchedule(component=0, dead_time=0.0, period=0.1, count=1),
            SamplingSchedule(component=1, dead_time=0.0, period=0.1 * np.sqrt(2), count=1),
        ]
        with pytest.raises(ConfigurationError):
            common_micro_step(schedules)

    def test_too_fine_grid_rejected(self):
        schedules = [
            SamplingSchedule(component=0, dead_time=0.0, period=0.1, count=1),
            SamplingSchedule(component=1, dead_time=0.0, period=0.10001, count=1),
        ]
        with pytest.raises(ConfigurationError):
            common_micro_step(schedules)

    @pytest.mark.parametrize("period", [1e-14, 4e-13])
    def test_period_below_the_grid_resolution_rejected(self, period):
        # the fraction of such a time is 0, which is no step at all
        schedules = [SamplingSchedule(component=0, dead_time=0.0, period=period, count=1)]
        match = re.escape(f"schedule time {period!r} is not representable")
        with pytest.raises(ConfigurationError, match=match):
            common_micro_step(schedules)


def benchmark_schedules(t_s=0.1):
    """Multirate schedules for rates (1, 4, 3) with the lcm-covering counts."""
    return [
        SamplingSchedule(component=0, dead_time=0.0, period=t_s, count=12),
        SamplingSchedule(component=1, dead_time=0.0, period=4 * t_s, count=3),
        SamplingSchedule(component=2, dead_time=0.0, period=3 * t_s, count=4),
    ]


def full_state(t_s=0.1, count=2, dead_time=0.0):
    """A layout that measures every Lorenz component at the same instants."""
    return [SamplingSchedule(i, dead_time, t_s, count) for i in range(3)]


class TestSampleEnsemble:
    def test_grid_aligned_samples_equal_dense(self):
        fld = lorenz_field()
        schedules = full_state()
        ((ensemble,),) = sample_ensembles(fld, [schedules], 1, [0])
        (x0,) = dynamics._substream_uniform([0], 1, np.array([(-1.0, 1.0)] * 3))
        dense = integrate(fld, x0, float(common_micro_step(schedules)), 20)
        for i in range(3):
            np.testing.assert_allclose(ensemble.times[i], [0.0, 0.1, 0.2])
            np.testing.assert_array_equal(ensemble.values[i][0], dense[[0, 10, 20], 0, i])

    def test_benchmark_multirate_instants(self):
        ((ensemble, full),) = dynamics.sample_ensembles(
            lorenz_field(), [benchmark_schedules(), full_state(count=12)], 300, [0]
        )
        assert len(ensemble) == len(full) == 300
        assert ensemble.indices[17] == 17
        np.testing.assert_allclose(ensemble.times[1], [0.0, 0.4, 0.8, 1.2])
        np.testing.assert_allclose(ensemble.times[2], [0.0, 0.3, 0.6, 0.9, 1.2])
        # the full-state layout holds the same trajectories on the 0.1 s grid
        np.testing.assert_allclose(full.times[1], np.arange(13) * 0.1)
        np.testing.assert_array_equal(ensemble.values[0], full.values[0])
        np.testing.assert_array_equal(ensemble.values[1][17], full.values[1][17, ::4])
        np.testing.assert_array_equal(ensemble.values[2][17], full.values[2][17, ::3])
        # a layout on the same grid leaves the other's samples bit for bit alone
        ((alone,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 300, [0])
        for i in alone.values:
            np.testing.assert_array_equal(alone.values[i], ensemble.values[i])
            assert ensemble.values[i].flags.c_contiguous and full.values[i].flags.c_contiguous

    def test_same_seed_bit_identical(self):
        ((a,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 5, [42])
        ((b,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 5, [42])
        for i in a.values:
            np.testing.assert_array_equal(a.values[i], b.values[i])

    def test_different_seeds_differ(self):
        ((a,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 2, [0])
        ((b,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 2, [1])
        assert not np.array_equal(a.values[0][0], b.values[0][0])

    def test_init_box_respected(self):
        # every benchmark component is measured at t=0, the initial state
        box = [(0.5, 1.0), (-2.0, -1.0), (3.0, 4.0)]
        ((ensemble,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 20, [1], box)
        for i, (lo, hi) in enumerate(box):
            x0 = ensemble.values[i][:, 0]
            assert np.all((x0 >= lo) & (x0 <= hi))

    @pytest.mark.parametrize("seed", [-1, (3, -2), 1.5, "a", True, [1, [2]]])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match=r"seed must be a non-negative int"):
            sample_ensembles(lorenz_field(), [benchmark_schedules()], 2, [seed])

    @pytest.mark.parametrize("n_traj", [0, -3, 2.5, True, "3", None, np.float64(2.0)])
    def test_bad_n_traj_rejected(self, n_traj):
        message = re.escape(f"n_traj must be an integer >= 1, got {n_traj!r}")
        with pytest.raises(ConfigurationError, match=message):
            dynamics.sample_ensembles(lorenz_field(), [benchmark_schedules()], n_traj, [0])

    def test_numpy_integer_n_traj(self):
        ((a,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], np.int64(3), [0])
        ((b,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 3, [0])
        assert len(a) == 3
        for i in a.values:
            np.testing.assert_array_equal(a.values[i], b.values[i])

    def test_grid_beyond_address_space_refused_before_indexing(self):
        # 10**18 samples of a 0.1 s period: NumPy refuses the RK4 grid's
        # shape itself, so the run ends in integrate's named error, not in
        # building 10**18 sample indices
        schedules = benchmark_schedules()
        schedules[0] = SamplingSchedule(component=0, dead_time=0.0, period=0.1, count=10**18)
        with pytest.raises(ConfigurationError, match="cannot allocate the RK4 grid"):
            sample_ensembles(lorenz_field(), [schedules], 2, [0])

    def test_schedule_coverage_check(self):
        with pytest.raises(ConfigurationError):
            sample_ensembles(lorenz_field(), [benchmark_schedules()[:2]], 1, [0])
        with pytest.raises(ConfigurationError, match="cover each state component"):
            dynamics.sample_ensembles(
                lorenz_field(), [benchmark_schedules(), full_state()[:2]], 1, [0]
            )

    def test_sample_grid_matches_micro_grid(self, monkeypatch):
        # several seeds through one pass: each keeps the sample-grid rows of
        # the full micro-grid, bit for bit
        schedules = [
            SamplingSchedule(component=i, dead_time=(i + 1) * 0.1, period=0.3, count=2)
            for i in range(3)
        ]
        calls = []
        integrate_all = dynamics.integrate

        def spy(field, x0, step, n_steps, every=1):
            calls.append((step, n_steps, every))
            return integrate_all(field, x0, step, n_steps, every)

        monkeypatch.setattr(dynamics, "integrate", spy)
        layouts = [schedules, full_state(count=1, dead_time=0.3)]
        sampled = dynamics.sample_ensembles(lorenz_field(), layouts, 8, [4, 5])
        ((h, n_steps, every),) = calls
        assert every == dynamics._STEPS_PER_GRID and n_steps == 90
        for seed, ensembles in zip([4, 5], sampled):
            (x0,) = dynamics._substream_uniform([seed], 8, np.array([(-1.0, 1.0)] * 3))
            full = integrate_all(lorenz_field(), x0, h, n_steps)
            for layout, ensemble in zip(layouts, ensembles):
                for s in layout:
                    grid = np.rint(s.instants() / h).astype(int)
                    np.testing.assert_array_equal(
                        ensemble.values[s.component], full[grid, :, s.component].T
                    )


class TestEnsembleCsvRoundtrip:
    def test_export_import(self, tmp_path):
        ((ensemble,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 3, [2])
        export_ensemble(ensemble, tmp_path)
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert files == [f"trajectory_{k:05d}.csv" for k in range(3)]
        back = import_ensemble(tmp_path)
        np.testing.assert_array_equal(back.indices, ensemble.indices)
        assert sorted(back.times) == sorted(ensemble.times)
        for i in ensemble.times:
            np.testing.assert_array_equal(back.times[i], ensemble.times[i])
            np.testing.assert_array_equal(back.values[i], ensemble.values[i])
        # indices whose file names sort in the other order
        wide = Ensemble(
            times=ensemble.times,
            values={i: v[:2] for i, v in ensemble.values.items()},
            indices=[99999, 100000],
        )
        export_ensemble(wide, tmp_path / "wide")
        back = import_ensemble(tmp_path / "wide")
        np.testing.assert_array_equal(back.indices, [99999, 100000])
        for i in wide.times:
            np.testing.assert_array_equal(back.values[i], wide.values[i])

    def test_export_deterministic_bytes(self, tmp_path):
        ((ensemble,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 2, [9])
        d1, d2 = tmp_path / "a", tmp_path / "b"
        export_ensemble(ensemble, d1)
        export_ensemble(ensemble, d2)
        for p1, p2 in zip(sorted(d1.iterdir()), sorted(d2.iterdir())):
            assert p1.read_bytes() == p2.read_bytes()

    def test_export_refuses_other_trajectories(self, tmp_path):
        ((ensemble,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 14, [2])
        export_ensemble(ensemble, tmp_path)
        fewer = Ensemble(
            times=ensemble.times,
            values={i: v[:1] for i, v in ensemble.values.items()},
            indices=[0],
        )
        stale = ", ".join(f"trajectory_{k:05d}.csv" for k in range(1, 14))
        with pytest.raises(ConfigurationError) as info:
            export_ensemble(fewer, tmp_path)
        assert str(info.value) == (
            f"{tmp_path} holds files of another report: {stale}; write to a new or empty directory"
        )
        # a file outside the trajectory naming is not a trajectory
        (tmp_path / "trajectory_x.csv").write_text("")
        export_ensemble(ensemble, tmp_path)
        assert len(import_ensemble(tmp_path)) == 14

    def test_export_refuses_another_spelling_of_its_index(self, tmp_path):
        # trajectory_1.csv holds index 1 as trajectory_00001.csv would: the
        # import would find both and refuse the directory
        ((ensemble,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 2, [2])
        (tmp_path / "trajectory_1.csv").write_text("component,time,value\n")
        with pytest.raises(ConfigurationError, match=r"another report: trajectory_1\.csv;"):
            export_ensemble(ensemble, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["trajectory_1.csv"]

    def test_export_refuses_a_report_directory(self, tmp_path):
        ((ensemble,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 2, [2])
        (tmp_path / "summary.json").write_text("{}\n")
        (tmp_path / "hankel_K_1.csv").write_text("1.0\n")
        with pytest.raises(
            ConfigurationError, match=r"another report: hankel_K_1\.csv, summary\.json;"
        ):
            export_ensemble(ensemble, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hankel_K_1.csv", "summary.json"]

    def test_import_missing_dir(self, tmp_path):
        with pytest.raises(DataError):
            import_ensemble(tmp_path / "empty")


def _exported(tmp_path):
    """Directory of three exported trajectories and the lines of the second.

    Each file holds component 0 on lines 2-14, component 1 on lines 15-18
    and component 2 on lines 19-23.
    """
    ((ensemble,),) = sample_ensembles(lorenz_field(), [benchmark_schedules()], 3, [2])
    export_ensemble(ensemble, tmp_path)
    path = tmp_path / "trajectory_00001.csv"
    return path, path.read_text().splitlines(keepends=True)


def _set_field(lines, line_no, column, text):
    fields = lines[line_no - 1].rstrip("\n").split(",")
    fields[column] = text
    lines[line_no - 1] = ",".join(fields) + "\n"


class TestImportValidation:
    """import_ensemble rejects bad data with the file (and line) named."""

    def test_unparsable_row(self, tmp_path):
        path, lines = _exported(tmp_path)
        _set_field(lines, 5, 2, "0.3x")
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=r"trajectory_00001\.csv, line 5"):
            import_ensemble(tmp_path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, text):
        path, lines = _exported(tmp_path)
        _set_field(lines, 16, 2, text)
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=r"trajectory_00001\.csv, line 16: non-finite"):
            import_ensemble(tmp_path)

    @pytest.mark.parametrize("swap", [True, False], ids=["unsorted", "duplicate"])
    def test_times_not_increasing(self, tmp_path, swap):
        path, lines = _exported(tmp_path)
        if swap:
            lines[2], lines[3] = lines[3], lines[2]
        else:
            lines[3] = lines[2]
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=r"trajectory_00001\.csv, line 4: component 0"):
            import_ensemble(tmp_path)

    def test_unreadable_file(self, tmp_path):
        _exported(tmp_path)
        (tmp_path / "trajectory_00000.csv").unlink()
        (tmp_path / "trajectory_00000.csv").mkdir()
        with pytest.raises(DataError, match=r"trajectory_00000\.csv: cannot read: Is a directory"):
            import_ensemble(tmp_path)

    def test_component_missing(self, tmp_path):
        path, lines = _exported(tmp_path)
        path.write_text("".join(lines[:18]))  # drops component 2
        with pytest.raises(DataError, match=r"trajectory_00001\.csv: components \[0, 1\]"):
            import_ensemble(tmp_path)

    def test_times_differ_between_files(self, tmp_path):
        path, lines = _exported(tmp_path)
        _set_field(lines, 17, 1, repr(0.8 + 10 * TIME_MATCH_TOL))
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=r"trajectory_00001\.csv: component 1 sample times"):
            import_ensemble(tmp_path)
        # differences within the tolerance are the same instant
        _set_field(lines, 17, 1, repr(0.8 + 0.1 * TIME_MATCH_TOL))
        path.write_text("".join(lines))
        assert len(import_ensemble(tmp_path)) == 3

    def test_duplicate_index(self, tmp_path):
        path, lines = _exported(tmp_path)
        (tmp_path / "trajectory_1.csv").write_text("".join(lines))
        both = r"trajectory_00001\.csv and \S*trajectory_1\.csv both hold trajectory 1"
        with pytest.raises(DataError, match=both):
            import_ensemble(tmp_path)


class TestComponentSeriesValidation:
    """Sample series are validated once, when their ensemble is built."""

    def test_strictly_increasing_times(self):
        with pytest.raises(DataError):
            Ensemble(times={0: [0.0, 0.0]}, values={0: [[1.0, 2.0]]}, indices=[0])
        with pytest.raises(DataError):
            Ensemble(times={0: [0.1, 0.0]}, values={0: [[1.0, 2.0]]}, indices=[0])

    def test_unique_indices(self):
        with pytest.raises(DataError, match="unique"):
            Ensemble(times={0: [0.0, 0.1]}, values={0: [[1.0, 2.0]] * 2}, indices=[1, 1])

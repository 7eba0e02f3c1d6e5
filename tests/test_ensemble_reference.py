"""The array-native ensemble against the per-trajectory loops it replaced.

The loop versions below are the reference. They draw from the same
per-trajectory substreams and do the same arithmetic, so every comparison
is exact (``np.array_equal``), and data matrices must keep their memory
layout because BLAS results depend on it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from mredmd import hankel
from mredmd.dynamics import (
    ComponentSeries,
    SamplingSchedule,
    TIME_MATCH_TOL,
    common_micro_step,
    integrate,
    lorenz_field,
    sample_ensemble,
)
from mredmd.experiments import _pairs_from_dense


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


def reference_records(
    fld, schedules, n_traj, seed, noise_std=0.0, extra_times=(), init_box=None
):
    """Sample trajectory by trajectory: a list of dicts with ``x0``,
    ``series`` ({component: ComponentSeries}) and ``dense`` (S, n)."""
    h = common_micro_step(schedules, extra_times)
    end = max([s.dead_time + s.count * s.period for s in schedules] + [0.0, *extra_times])
    n_steps = math.ceil(Fraction(end).limit_denominator(10**9) / h)
    box = np.array(init_box if init_box is not None else [(-1.0, 1.0)] * fld.dim)
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, k])) for k in range(n_traj)]
    x0s = np.stack([rng.uniform(box[:, 0], box[:, 1]) for rng in rngs])
    dense = integrate(fld, x0s, float(h), n_steps)
    records = []
    for k in range(n_traj):
        series = {}
        for s in schedules:
            grid = np.rint(s.instants() / float(h)).astype(int)
            values = dense[grid, k, s.component]
            if noise_std > 0.0:
                values = values + rngs[k].normal(0.0, noise_std, size=values.shape)
            series[s.component] = ComponentSeries(s.component, s.instants(), values)
        records.append({"x0": x0s[k], "series": series, "dense": dense[:, k, :]})
    return records, np.arange(n_steps + 1) * float(h)


def reference_hankel(records, schedule):
    m = schedule.count
    p_x = np.empty((m, len(records)))
    p_y = np.empty((m, len(records)))
    for k, rec in enumerate(records):
        values = rec["series"][schedule.component].values
        p_x[:, k] = values[:m]
        p_y[:, k] = values[1 : m + 1]
    return hankel.HankelDataMatrices(p_x=p_x, p_y=p_y, schedule=schedule)


def reference_pairs(records, schedules, step, first_target):
    """Measured values read trajectory by trajectory; estimates from
    operators fitted on the loop-built data matrices."""
    t1, n = first_target, len(schedules)
    x, y = np.empty((n, len(records))), np.empty((n, len(records)))
    for s in schedules:
        for t, out in ((t1, x), (t1 + step, y)):
            l = s.sample_index(t)
            if l is not None:
                for k, rec in enumerate(records):
                    out[s.component, k] = rec["series"][s.component].values[l]
            else:
                matrices = reference_hankel(records, s)
                op = hankel.fit_component_operator(matrices)
                out[s.component] = hankel.estimate_component_at(op, matrices, t)
    return x, y


def reference_dense_at(records, dense_times, t):
    idx = int(round(t / (dense_times[1] - dense_times[0])))
    assert abs(dense_times[idx] - t) <= TIME_MATCH_TOL
    return np.stack([rec["dense"][idx] for rec in records], axis=1)


@pytest.mark.parametrize("init_box", [None, [(0.5, 1.0), (-2.0, -1.0), (3.0, 4.0)]])
@pytest.mark.parametrize("noise_std", [0.0, 0.01])
@pytest.mark.parametrize("schedules", [multirate_schedules(), single_state_schedules()])
def test_samples_match_loop(schedules, noise_std, init_box):
    ensemble = sample_ensemble(
        lorenz_field(), schedules, 25, init_box=init_box, seed=7, noise_std=noise_std
    )
    records, dense_times = reference_records(
        lorenz_field(), schedules, 25, 7, noise_std, init_box=init_box
    )
    np.testing.assert_array_equal(ensemble.dense_times, dense_times)
    for k, rec in enumerate(records):
        np.testing.assert_array_equal(ensemble.x0[k], rec["x0"])
        np.testing.assert_array_equal(ensemble.dense_states[:, k], rec["dense"])
        for s in schedules:
            series = rec["series"][s.component]
            np.testing.assert_array_equal(ensemble.times[s.component], series.times)
            np.testing.assert_array_equal(ensemble.values[s.component][k], series.values)
            np.testing.assert_array_equal(ensemble[k].series[s.component].values, series.values)


@pytest.mark.parametrize("schedules", [multirate_schedules(), single_state_schedules()])
def test_hankel_matrices_match_loop(schedules):
    ensemble = sample_ensemble(lorenz_field(), schedules, 40, seed=3, noise_std=0.01)
    records, _ = reference_records(lorenz_field(), schedules, 40, 3, noise_std=0.01)
    for s in schedules:
        h = hankel.build_hankel_matrices(ensemble, s)
        ref = reference_hankel(records, s)
        np.testing.assert_array_equal(h.p_x, ref.p_x)
        np.testing.assert_array_equal(h.p_y, ref.p_y)
        assert h.p_x.flags.c_contiguous and h.p_y.flags.c_contiguous


@pytest.mark.parametrize(
    "schedules, step, first_target, extra",
    [
        (multirate_schedules(), 0.1, 0.1, (0.1, 0.2)),
        (multirate_schedules(), 1.2, 0.0, (0.1, 0.2, 1.2)),
        (single_state_schedules(), 0.1, 0.3, (0.3, 0.4)),
    ],
    ids=["multirate", "lcm", "single_state"],
)
def test_reconstructed_pairs_match_loop(schedules, step, first_target, extra):
    ensemble = sample_ensemble(lorenz_field(), schedules, 120, seed=5, extra_times=extra)
    records, _ = reference_records(lorenz_field(), schedules, 120, 5, extra_times=extra)
    needed = hankel.estimated_components(schedules, (first_target, first_target + step))
    operators = hankel.fit_component_operators(ensemble, schedules, needed)
    pairs = hankel.reconstruct_states(
        ensemble, schedules, operators, step, first_target=first_target
    )
    ref_x, ref_y = reference_pairs(records, schedules, step, first_target)
    np.testing.assert_array_equal(pairs.x, ref_x)
    np.testing.assert_array_equal(pairs.y, ref_y)


def test_ideal_pairs_match_loop():
    schedules = multirate_schedules()
    ensemble = sample_ensemble(lorenz_field(), schedules, 30, seed=11, extra_times=(0.1, 0.2))
    records, dense_times = reference_records(
        lorenz_field(), schedules, 30, 11, extra_times=(0.1, 0.2)
    )
    pairs = _pairs_from_dense(ensemble, 0.1, 0.1)
    np.testing.assert_array_equal(pairs.x, reference_dense_at(records, dense_times, 0.1))
    np.testing.assert_array_equal(pairs.y, reference_dense_at(records, dense_times, 0.2))
    assert pairs.x.flags.c_contiguous and pairs.y.flags.c_contiguous


def test_prefix_of_larger_ensemble():
    # sampling is bit-identical per trajectory regardless of the batch size
    small = sample_ensemble(lorenz_field(), multirate_schedules(), 7, seed=2, noise_std=0.01)
    large = sample_ensemble(lorenz_field(), multirate_schedules(), 30, seed=2, noise_std=0.01)
    np.testing.assert_array_equal(small.x0, large.x0[:7])
    np.testing.assert_array_equal(small.dense_states, large.dense_states[:, :7])
    for comp in small.values:
        np.testing.assert_array_equal(small.values[comp], large.values[comp][:7])

"""The array-native ensemble, batched prediction and report files against the
per-trajectory loops and the ``csv.writer`` rendering they replaced.

The loop versions below are the reference. They draw from the same
per-trajectory substreams and do the same arithmetic, so every comparison
is exact (``np.array_equal``), and data matrices must keep their memory
layout because BLAS results depend on it.
"""

import csv
import io
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mredmd import edmd, hankel
from mredmd.dynamics import (
    SamplingSchedule,
    TIME_MATCH_TOL,
    common_micro_step,
    integrate,
    lorenz_field,
    sample_ensembles,
)
from mredmd.errors import DivergenceWarning
from mredmd.experiments import (
    _NOISE_FLOOR_STREAM,
    ExperimentConfig,
    _full_state,
    derive_schedules,
    emit_comparison,
    emit_report,
    evaluate_prediction,
    ideal_noise_floor,
    run,
)
from mredmd.linalg import koopman_fit, spectrum_distance
from mredmd.observables import monomial_dictionary


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


def reference_records(fld, schedules, n_traj, seed, extra_times=(), init_box=None):
    """Sample trajectory by trajectory on the whole micro-grid, which also
    holds ``extra_times``: a list of dicts with ``x0``, ``series``
    ({component: sampled values}) and ``dense`` (S, n), and the micro-grid
    times (S,)."""
    h = common_micro_step(schedules, extra_times)
    end = max([s.dead_time + s.count * s.period for s in schedules] + [0.0, *extra_times])
    n_steps = math.ceil(Fraction(end).limit_denominator(10**9) / h)
    box = np.array(init_box if init_box is not None else [(-1.0, 1.0)] * fld.dim)
    entropy = list(seed) if isinstance(seed, tuple) else [seed]
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy + [k])) for k in range(n_traj)]
    x0s = np.stack([rng.uniform(box[:, 0], box[:, 1]) for rng in rngs])
    dense = integrate(fld, x0s, float(h), n_steps)
    records = []
    for k in range(n_traj):
        series = {}
        for s in schedules:
            grid = np.rint(s.instants() / float(h)).astype(int)
            series[s.component] = dense[grid, k, s.component]
        records.append({"x0": x0s[k], "series": series, "dense": dense[:, k, :]})
    return records, np.arange(n_steps + 1) * float(h)


def reference_hankel(records, schedule):
    m = schedule.count
    p_x = np.empty((m, len(records)))
    p_y = np.empty((m, len(records)))
    for k, rec in enumerate(records):
        values = rec["series"][schedule.component]
        p_x[:, k] = values[:m]
        p_y[:, k] = values[1 : m + 1]
    return p_x, p_y


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
                    out[s.component, k] = rec["series"][s.component][l]
            else:
                p_x, p_y = reference_hankel(records, s)
                k_mat, l_complex = koopman_fit(p_x, p_y, s.period)
                op = hankel.ComponentOperator(schedule=s, k_mat=k_mat, l_complex=l_complex)
                out[s.component] = hankel._estimate_sets([op], p_x[None], t)[0]
    return x, y


def reference_dense_at(records, dense_times, t):
    idx = int(round(t / (dense_times[1] - dense_times[0])))
    assert abs(dense_times[idx] - t) <= TIME_MATCH_TOL
    return np.stack([rec["dense"][idx] for rec in records], axis=1)


@pytest.mark.parametrize("init_box", [None, [(0.5, 1.0), (-2.0, -1.0), (3.0, 4.0)]])
@pytest.mark.parametrize("full_dead_time", [0.0, 0.05])
@pytest.mark.parametrize("schedules", [multirate_schedules(), single_state_schedules()])
def test_samples_match_loop(schedules, full_dead_time, init_box):
    # a full-state layout sampled next to the partial one; a dead time of
    # 0.05 s halves the grid that both share
    full_state = [SamplingSchedule(i, full_dead_time, 0.1, 2) for i in range(3)]
    ((ensemble, full),) = sample_ensembles(
        lorenz_field(), [schedules, full_state], 25, [7], init_box=init_box
    )
    extra = [t for s in full_state for t in (s.dead_time, s.period)]
    records, dense_times = reference_records(
        lorenz_field(), schedules, 25, 7, extra_times=extra, init_box=init_box
    )
    for k, rec in enumerate(records):
        for s in schedules:
            np.testing.assert_array_equal(ensemble.times[s.component], s.instants())
            np.testing.assert_array_equal(ensemble.values[s.component][k], rec["series"][s.component])
        for s in full_state:
            grid = np.rint(s.instants() / dense_times[1]).astype(int)
            np.testing.assert_array_equal(full.values[s.component][k], rec["dense"][grid, s.component])
    if full_dead_time == 0.0:
        # a layout on the partial one's own grid changes none of its bits
        ((alone,),) = sample_ensembles(lorenz_field(), [schedules], 25, [7], init_box)
        for s in schedules:
            np.testing.assert_array_equal(alone.values[s.component], ensemble.values[s.component])


@pytest.mark.filterwarnings("ignore::mredmd.errors.IllConditionedWarning")
@pytest.mark.parametrize("schedules", [multirate_schedules(), single_state_schedules()])
def test_hankel_matrices_match_loop(schedules):
    ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], 40, [3])
    records, _ = reference_records(lorenz_field(), schedules, 40, 3)
    for s in schedules:
        ref_x, ref_y = reference_hankel(records, s)
        # the operator is the fit of the loop-built matrices, bit for bit
        (op,) = hankel._fit_operators([ensemble], s)
        (k_mat,), (l_complex,) = koopman_fit(ref_x[None], ref_y[None], s.period)
        assert np.array_equal(op.k_mat, k_mat) and np.array_equal(op.l_complex, l_complex)
        (window,) = hankel._windows([ensemble], s)
        p_x, p_y = window[:-1], window[1:]
        np.testing.assert_array_equal(p_x, ref_x)
        np.testing.assert_array_equal(p_y, ref_y)
        assert p_x.flags.c_contiguous and p_y.flags.c_contiguous


@pytest.mark.parametrize(
    "schedules, step, first_target",
    [
        (multirate_schedules(), 0.1, 0.1),
        (multirate_schedules(), 1.2, 0.0),
        (single_state_schedules(), 0.1, 0.3),
    ],
    ids=["multirate", "lcm", "single_state"],
)
def test_reconstructed_pairs_match_loop(schedules, step, first_target):
    ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], 120, [5])
    records, _ = reference_records(lorenz_field(), schedules, 120, 5)
    (operators,) = hankel.fit_component_operators(
        [ensemble], schedules, (first_target, first_target + step)
    )
    (pairs,) = hankel.reconstruct_states(
        [ensemble], schedules, [operators], step, first_target=first_target
    )
    ref_x, ref_y = reference_pairs(records, schedules, step, first_target)
    np.testing.assert_array_equal(pairs.x, ref_x)
    np.testing.assert_array_equal(pairs.y, ref_y)


def test_ideal_pairs_match_loop():
    # the ideal pairs: the full-state layout sampled next to the run's own,
    # through the reconstruction that the partial pairs take
    schedules, full_state = multirate_schedules(), _full_state(3, 0.1)
    ((_, full),) = sample_ensembles(lorenz_field(), [schedules, full_state], 30, [11])
    records, dense_times = reference_records(lorenz_field(), schedules, 30, 11)
    (pairs,) = hankel.reconstruct_states([full], full_state, [{}], 0.1)
    assert pairs.x_estimated == pairs.y_estimated == (False, False, False)
    np.testing.assert_array_equal(pairs.x, reference_dense_at(records, dense_times, 0.1))
    np.testing.assert_array_equal(pairs.y, reference_dense_at(records, dense_times, 0.2))
    assert pairs.x.flags.c_contiguous and pairs.y.flags.c_contiguous


def reference_noise_floor_pairs(cfg, half):
    """The noise floor's ideal pairs read trajectory by trajectory off the
    micro-grid of the config's own schedules, as the floor first computed
    them; the floor now samples the full state at 0, T_s and 2 T_s instead."""
    records, dense_times = reference_records(
        lorenz_field(),
        derive_schedules(cfg),
        cfg.K,
        (cfg.seed, _NOISE_FLOOR_STREAM, half),
        extra_times=(cfg.T_s, 2 * cfg.T_s),
        init_box=cfg.init_box,
    )
    return edmd.StatePairEnsemble(
        x=reference_dense_at(records, dense_times, cfg.T_s),
        y=reference_dense_at(records, dense_times, 2 * cfg.T_s),
        step=cfg.T_s,
    )


NOISE_FLOOR_CONFIGS = [
    dict(seed=seed, K=100) for seed in range(5)
] + [
    dict(seed=3, K=40, init_box=[(0.5, 1.0), (-2.0, -1.0), (3.0, 4.0)], T_s=0.05),
    dict(seed=1, K=40, T_s=0.013),
    dict(seed=2, K=40, T_s=0.123),
]


@pytest.mark.parametrize("overrides", NOISE_FLOOR_CONFIGS, ids=str)
def test_noise_floor_matches_sampled_ensemble(overrides):
    cfg = ExperimentConfig(
        **{"system": "lorenz", "mode": "single_state", "T_s": 0.1, "state_dim": 3, **overrides}
    )
    dictionary = monomial_dictionary(3, cfg.degree, cfg.include_constant)
    spectra = []
    for half in (1, 2):
        ref = reference_noise_floor_pairs(cfg, half)
        spectra += edmd.generator_spectra(edmd.fit_models([ref], dictionary))
    assert ideal_noise_floor(cfg, [cfg.seed]) == [spectrum_distance(*spectra)]


def test_prefix_of_larger_ensemble():
    # sampling is bit-identical per trajectory regardless of the batch size
    ((small,),) = sample_ensembles(lorenz_field(), [multirate_schedules()], 7, [2])
    ((large,),) = sample_ensembles(lorenz_field(), [multirate_schedules()], 30, [2])
    for comp in small.values:
        np.testing.assert_array_equal(small.values[comp], large.values[comp][:7])


# plain ints of one, two and three 32-bit words, and the noise-floor tuples
SEED_FORMS = [0, 7, 12345, 2**31 - 1, 2**33 + 5, 2**64 + 3]
SEED_FORMS += [(7, 2**40 + 2, 1), (7, 2**40 + 2, 2), (2**40, 3)]


@pytest.mark.parametrize("n_traj", [1, 3000])
@pytest.mark.parametrize("init_box", [None, [(0.5, 1.0), (-2.0, -1.0), (3.0, 4.0)]])
@pytest.mark.parametrize("seed", SEED_FORMS, ids=str)
def test_initial_conditions_match_substreams(seed, init_box, n_traj):
    # the whole-array seed kernel against one Generator per trajectory; every
    # component is measured at t=0, the initial state
    schedules = [SamplingSchedule(i, dead_time=0.0, period=0.1, count=1) for i in range(3)]
    ((ensemble,),) = sample_ensembles(lorenz_field(), [schedules], n_traj, [seed], init_box)
    x0 = np.stack([ensemble.values[i][:, 0] for i in range(3)], axis=1)
    box = init_box if init_box is not None else [(-1.0, 1.0)] * 3
    entropy = list(seed) if isinstance(seed, tuple) else [seed]
    expected = np.array(
        [
            [rng.uniform(lo, hi) for lo, hi in box]
            for rng in (
                np.random.default_rng(np.random.SeedSequence(entropy + [k])) for k in range(n_traj)
            )
        ]
    )
    assert np.array_equal(x0, expected)


def reference_predict(model, x0, steps, mode):
    """One initial state, lifted and advanced on its own."""
    out = np.full((steps, model.dictionary.dim), np.nan)
    readout = edmd.coordinate_readout(model.dictionary)
    z = model.dictionary.evaluate_columns(x0[:, None])[:, 0]
    for j in range(steps):
        z = model.k_mat @ z
        x = readout @ z
        if not np.all(np.isfinite(x)):
            warnings.warn(
                f"prediction diverged at step {j + 1} of {steps}; output truncated",
                DivergenceWarning,
            )
            break
        out[j] = x
        if mode == "relift":
            z = model.dictionary.evaluate_columns(x[:, None])[:, 0]
    return out


def _divergence_messages(caught):
    return [str(w.message) for w in caught if w.category is DivergenceWarning]


def _lorenz_model(degree, seed=12):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(3, 300))
    y = integrate(lorenz_field(), x.T, 0.01, 10)[-1].T
    pairs = edmd.StatePairEnsemble(x=x, y=y, step=0.1)
    return edmd.fit_models([pairs], monomial_dictionary(3, degree))[0]


def _scalar_model(k_mat, degree, include_constant):
    d = monomial_dictionary(1, degree, include_constant=include_constant)
    k_mat = np.asarray(k_mat, dtype=float)
    return edmd.KoopmanModel(
        dictionary=d,
        k_mat=k_mat,
        l_complex=np.zeros(k_mat.shape),
        step=1.0,
    )


@pytest.mark.parametrize(
    "model, x0s",
    [
        (_lorenz_model(2), np.random.default_rng(1).uniform(-1, 1, size=(50, 3))),
        (_lorenz_model(3), np.random.default_rng(2).uniform(-1, 1, size=(20, 3))),
        # rollout: row 0 diverges at step 2, row 2 at step 4, row 1 never
        (_scalar_model([[1e200]], 1, False), np.array([[1.0], [0.0], [1e-300]])),
        # relift squares the state: rows 0 and 2 diverge, the later row first
        (
            _scalar_model([[1, 0, 0], [0, 0, 1], [0, 0, 1]], 2, True),
            np.array([[10.0], [0.5], [1e5], [1.0]]),
        ),
    ],
    ids=["lorenz-deg2", "lorenz-deg3", "scalar-overflow", "scalar-squaring"],
)
@pytest.mark.parametrize("mode", ["rollout", "relift"])
def test_batched_predict_matches_loop(model, x0s, mode):
    with warnings.catch_warnings(record=True) as expected_warnings:
        warnings.simplefilter("always")
        expected = np.stack([reference_predict(model, x0, 30, mode) for x0 in x0s])
    with warnings.catch_warnings(record=True) as single_warnings:
        warnings.simplefilter("always")
        single = np.stack([edmd.predict_models([model], x0, 30, mode=mode)[0] for x0 in x0s])
    with warnings.catch_warnings(record=True) as batch_warnings:
        warnings.simplefilter("always")
        (batch,) = edmd.predict_models([model], x0s, 30, mode=mode)
    np.testing.assert_array_equal(batch, expected)
    np.testing.assert_array_equal(single, expected)
    messages = _divergence_messages(expected_warnings)
    assert _divergence_messages(batch_warnings) == messages
    assert _divergence_messages(single_warnings) == messages


def test_batched_predict_divergence_order():
    model = _scalar_model([[1, 0, 0], [0, 0, 1], [0, 0, 1]], 2, True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (out,) = edmd.predict_models([model], [[10.0], [0.5], [1e5], [1.0]], 12, mode="relift")
    # x0 = 10 overflows at step 9 and x0 = 1e5 at step 6; warnings follow rows
    assert _divergence_messages(caught) == [
        "prediction diverged at step 9 of 12; output truncated",
        "prediction diverged at step 6 of 12; output truncated",
    ]
    assert np.all(np.isnan(out[0, 8:])) and np.all(np.isfinite(out[0, :8]))
    assert np.all(np.isnan(out[2, 5:])) and np.all(np.isfinite(out[2, :5]))
    assert np.all(np.isfinite(out[[1, 3]]))


def reference_rmse(preds, truth):
    per_traj = []
    for k in range(preds.shape[0]):
        finite = np.all(np.isfinite(preds[k]), axis=1)
        prefix = int(np.argmax(~finite)) if not finite.all() else preds.shape[1]
        if prefix == 0:
            per_traj.append(float("inf"))
        else:
            err = preds[k, :prefix] - truth[k, :prefix]
            per_traj.append(float(np.sqrt(np.mean(err**2))))
    return per_traj


def test_evaluate_prediction_matches_loop():
    blowup = edmd.KoopmanModel(
        dictionary=monomial_dictionary(3, 1, include_constant=False),
        k_mat=np.diag([1e200, 1.0, 1.0]),
        l_complex=np.zeros((3, 3)),
        step=0.1,
    )
    models = {"deg2": _lorenz_model(2), "deg3": _lorenz_model(3, seed=4), "blowup": blowup}
    x0s = np.random.default_rng(3).uniform(-1, 1, size=(40, 3))
    # rows far outside the fitted box diverge at different steps; row 30 at
    # the first step (infinite RMSE)
    x0s[[5, 8, 17, 30]] = [
        [25.0, -25.0, 25.0],
        [1e-100, 0.5, 0.5],
        [40.0, -40.0, 40.0],
        [1e200, 0.0, 0.0],
    ]
    # the states of a zero vector field stay put
    truth = np.repeat(x0s[:, None], 40, axis=1)
    predictions, rmse = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # one call per model: the models of one call share their dictionary
        for name, model in models.items():
            ((preds, errs),) = evaluate_prediction([({name: model}, x0s, truth)], "relift")
            predictions[name], rmse[name] = preds[name], errs[name]
            expected = np.stack([reference_predict(model, x0, 40, "relift") for x0 in x0s])
            np.testing.assert_array_equal(predictions[name], expected)
            assert rmse[name] == reference_rmse(expected, truth)
    assert np.isnan(predictions["deg2"][5]).any() and math.isinf(rmse["blowup"][30])


def reference_prediction_rows(report):
    rows = []
    for method in report.methods:
        if method not in report.predictions:
            continue
        preds = report.predictions[method]
        for k in range(preds.shape[0]):
            for j, t in enumerate(report.eval_times):
                for comp in range(preds.shape[2]):
                    rows.append(
                        [
                            method,
                            str(k),
                            repr(float(t)),
                            str(comp),
                            repr(float(report.eval_truth[k, j, comp])),
                            repr(float(preds[k, j, comp])),
                        ]
                    )
    return rows


def reference_csv(rows):
    """The bytes ``csv.writer`` writes for ``rows``, with ``\n`` line ends."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode()


def test_prediction_csv_matches_loop(tmp_path):
    cfg = ExperimentConfig(
        system="lorenz", mode="multirate", T_s=0.1, K=300, rates=(1, 4, 3), eval_trajectories=7
    )
    report = run(cfg)
    report.predictions["ideal"][2, 5:] = np.nan  # a truncated row writes "nan"
    emit_report(report, tmp_path)
    header = ["method", "trajectory", "t", "component", "truth", "predicted"]
    expected = reference_csv([header, *reference_prediction_rows(report)])
    assert (tmp_path / "prediction.csv").read_bytes() == expected


#: Float cells whose text must not change: non-finite, signed zero, the
#: smallest subnormal and the ends of the fixed and exponent notations.
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-300, 0.1]


def complex_cells(real, imag):
    """``real + 1j * imag`` without the NaN that ``0 * inf`` puts in it."""
    cells = np.empty(np.shape(real), dtype=complex)
    cells.real, cells.imag = real, imag
    return cells


def reference_matrix_rows(matrix):
    return [[repr(float(v)) for v in row] for row in np.atleast_2d(matrix)]


def test_report_csv_bytes_match_csv_writer(tmp_path):
    cfg = ExperimentConfig(
        system="lorenz", mode="multirate", T_s=0.1, K=300, rates=(1, 4, 3), horizon=2,
        eval_trajectories=1,
    )
    report = run(cfg)
    special = np.array(SPECIAL)
    report.spectra["lcm"] = complex_cells(special, special[::-1])
    model = report.models["lcm"]
    cells = np.resize(special, model.k_mat.shape)
    report.models["lcm"] = replace(model, k_mat=cells, l_complex=complex_cells(cells, cells.T))
    ops = report.component_operators
    corner = cells[:3, :3]
    ops[1] = replace(ops[1], k_mat=corner, l_complex=complex_cells(corner, corner))
    ops[2] = replace(ops[2], l_complex=complex_cells(ops[2].l_mat, 5e-324))
    emit_report(report, tmp_path)

    spectrum = [["method", "index", "real", "imag"]]
    for method in report.methods:
        for idx, lam in enumerate(report.spectra[method]):
            spectrum.append([method, idx, repr(float(lam.real)), repr(float(lam.imag))])
    assert (tmp_path / "spectrum.csv").read_bytes() == reference_csv(spectrum)
    residuals = [["component", "imag_residual"]]
    residuals += [[comp, repr(float(op.imag_residual))] for comp, op in sorted(ops.items())]
    assert residuals[1:] == [[1, "nan"], [2, "5e-324"]]
    assert (tmp_path / "hankel_residuals.csv").read_bytes() == reference_csv(residuals)
    matrices = {
        "K_lcm.csv": report.models["lcm"].k_mat,
        "L_lcm.csv": report.models["lcm"].l_mat,
        "K_multirate.csv": report.models["multirate"].k_mat,
        "hankel_K_1.csv": ops[1].k_mat,
        "hankel_L_1.csv": ops[1].l_mat,
        "hankel_L_2.csv": ops[2].l_mat,
    }
    for name, matrix in matrices.items():
        assert (tmp_path / name).read_bytes() == reference_csv(reference_matrix_rows(matrix)), name

    # a method with a mean RMSE but no distance writes "nan"; NumPy scalars
    # write as Python floats
    rows = [
        {"seed": 3, "spectrum_distances": {"ideal": np.float64(0.0), "multirate": -0.0},
         "mean_rmse": {"ideal": 1e16, "multirate": np.float64(5e-324), "lcm": 1e-300}},
        {"seed": 4, "spectrum_distances": {"multirate": math.nan, "lcm": math.inf},
         "mean_rmse": {"multirate": math.inf, "lcm": -math.inf}},
    ]
    # a comparison refuses the report's directory, so it gets its own
    emit_comparison({"rows": rows, "stage_errors": []}, tmp_path / "compare")
    compare = [["seed", "method", "spectrum_distance_to_ideal", "mean_rmse"]]
    for row in rows:
        dist, rmse = row["spectrum_distances"], row["mean_rmse"]
        for method in sorted(set(dist) | set(rmse)):
            compare.append(
                [row["seed"], method, repr(float(dist.get(method, math.nan))),
                 repr(float(rmse.get(method, math.nan)))]
            )
    assert compare[2][:3] == [3, "lcm", "nan"]
    assert (tmp_path / "compare" / "compare.csv").read_bytes() == reference_csv(compare)

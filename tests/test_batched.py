"""Batched kernels against their one-item calls, bit for bit.

A stack given to ``matrix_log``, ``matrix_exp``, ``koopman_fit`` or
``eigenvalues``, a multi-key ``_substream_uniform``, a grouped
``predict_models``, a sweep group's component fits, reconstruction, lifts,
spectra and evaluation must give each item the bits, the warnings and the
errors of its own call, in item order. The stacks mix root counts,
squaring counts, pinv ranks and matrix sizes, and some hold an item that
warns or fails, which makes the whole stack run again one item at a time.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mredmd import dynamics, edmd, experiments, hankel, linalg
from mredmd.edmd import KoopmanModel, StatePairEnsemble, fit_models, predict_models
from mredmd.errors import (
    DataError,
    DimensionMismatchError,
    DivergenceWarning,
    ImaginaryResidualWarning,
    MredmdError,
    NumericalError,
)
from mredmd.observables import monomial_dictionary

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Scales of exp(scale * A): near I (no root) up to far from I (several
#: roots).
SCALES = (1e-7, 1e-4, 1e-2, 0.1, 0.4, 1.0, 2.5)


def outcome(call):
    """What ``call()`` did: its warnings as (category, message), then its
    result, or the type and message of the error it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except MredmdError as exc:
            result = (type(exc), str(exc))
    return [(w.category, str(w.message)) for w in caught], result


def assert_same(a, b):
    (warned_a, result_a), (warned_b, result_b) = a, b
    assert warned_a == warned_b
    assert type(result_a) is type(result_b)
    if isinstance(result_a, tuple) and isinstance(result_a[0], type):
        assert result_a == result_b
    elif isinstance(result_a, tuple):
        for x, y in zip(result_a, result_b):
            np.testing.assert_array_equal(x, y, strict=True)
    else:
        np.testing.assert_array_equal(result_a, result_b, strict=True)


def one_by_one(kernel, *stacks):
    """A loop of 2-D calls, stacked the way the batched call stacks."""
    parts = [kernel(*items) for items in zip(*stacks)]
    if isinstance(parts[0], tuple):
        return tuple(np.stack(p) for p in zip(*parts))
    return np.stack(parts)


def on_axis_matrix(rng, n):
    """A real matrix with the eigenvalue -2, on the logarithm's branch cut."""
    q = rng.normal(size=(n, n)) + 3 * np.eye(n)
    return q @ np.diag([-2.0, *rng.uniform(0.5, 2.0, n - 1)]) @ np.linalg.inv(q)


@st.composite
def log_stacks(draw):
    n = draw(st.sampled_from([2, 10]))
    scales = draw(st.lists(st.sampled_from(SCALES), min_size=2, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = [linalg.matrix_exp(scale * rng.normal(size=(n, n))) for scale in scales]
    if draw(st.booleans()):
        stack[draw(st.integers(0, len(stack) - 1))] = on_axis_matrix(rng, n)
    return np.stack(stack)


@SETTINGS
@given(log_stacks())
def test_matrix_log_stack_is_each_matrix_alone(stack):
    assert_same(
        outcome(lambda: linalg.matrix_log(stack)),
        outcome(lambda: one_by_one(linalg.matrix_log, stack)),
    )


def test_matrix_log_stack_mixes_roots_and_degrees(monkeypatch):
    # the stack above really takes different root counts
    roots = []
    sqrt_minus_identity = linalg._sqrt_minus_identity

    def count_roots(r):
        roots.append(len(r))
        return sqrt_minus_identity(r)

    monkeypatch.setattr(linalg, "_sqrt_minus_identity", count_roots)
    rng = np.random.default_rng(5)
    stack = np.stack([linalg.matrix_exp(s * rng.normal(size=(10, 10))) for s in SCALES])
    linalg.matrix_log(stack)
    assert len(set(roots)) >= 3  # root rounds over shrinking subsets


#: 1-norm bands of each squaring count of ``matrix_exp``: none up to
#: theta_13, then one more per doubling of the norm.
EXP_BANDS = {
    0: (1e-6, 5.37),
    1: (5.38, 10.7),
    2: (10.8, 21.4),
    3: (21.5, 42.9),
    4: (43.0, 60.0),
}


@st.composite
def exp_stacks(draw):
    """A (B, N, N) stack of real or complex matrices, each scaled to a
    1-norm drawn log-uniformly from the band of a drawn squaring count, and
    whether to add the zero matrix, whose solve a test makes fail."""
    n = draw(st.sampled_from([2, 10]))
    dtype = draw(st.sampled_from([float, complex]))
    bands = draw(st.lists(st.sampled_from(sorted(EXP_BANDS)), min_size=2, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for band in bands:
        a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if dtype is complex else 0)
        norm = np.exp(rng.uniform(*np.log(EXP_BANDS[band])))
        stack.append(a * (norm / np.abs(a).sum(axis=0).max()))
    failing = draw(st.booleans())
    if failing:
        stack.insert(draw(st.integers(0, len(stack))), np.zeros((n, n), dtype))
    return np.stack(stack), failing


def failing_solve(solve):
    """``np.linalg.solve`` that fails on a stack holding I, the Pade
    denominator of the zero matrix."""

    def fail_on_zero(a, b):
        if np.any(np.all(a == np.eye(a.shape[-1]), axis=(-2, -1))):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    return fail_on_zero


@SETTINGS
@given(exp_stacks())
def test_matrix_exp_stack_is_each_matrix_alone(case):
    stack, failing = case
    with pytest.MonkeyPatch.context() as mp:
        if failing:
            mp.setattr(np.linalg, "solve", failing_solve(np.linalg.solve))
        stacked = outcome(lambda: linalg.matrix_exp(stack))
        alone = outcome(lambda: one_by_one(linalg.matrix_exp, stack))
    assert_same(stacked, alone)
    if failing:
        assert stacked[1] == (NumericalError, "Pade solve failed: Singular matrix")
    else:
        assert stacked[1].tobytes() == alone[1].tobytes()  # signed zeros too


def test_matrix_exp_one_pade_solve_per_stack_squarings_per_matrix(monkeypatch):
    # 1-norms from 1e-6 to 60 take one Pade solve of the whole stack; then
    # each matrix is squared its own count: 4 at 60, 2 at 20, none below
    rng = np.random.default_rng(3)
    stack = []
    for norm in (1e-6, 60.0, 1e-2, 0.2, 0.5, 5.37, 1.0, 20.0):
        a = rng.normal(size=(4, 4))
        stack.append(a * (norm / np.abs(a).sum(axis=0).max()))
    stack = np.stack(stack)
    solves, squared, solve = [], [], np.linalg.solve

    class Squares(np.ndarray):
        def __matmul__(self, other):
            squared.append(len(self))
            return np.ndarray.__matmul__(self, other)

    def record(a, b):
        solves.append(a.shape)
        return solve(a, b).view(Squares)

    monkeypatch.setattr(np.linalg, "solve", record)
    linalg.matrix_exp(stack)
    assert solves == [stack.shape]
    assert squared == [2, 2, 1, 1]


@st.composite
def fit_stacks(draw):
    m = draw(st.sampled_from([2, 10]))
    k = draw(st.sampled_from([m, 3 * m, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_xs, p_ys = [], []
    for scale in draw(st.lists(st.sampled_from(SCALES[1:]), min_size=2, max_size=5)):
        p_x = rng.normal(size=(m, k))
        p_xs.append(p_x)
        p_ys.append(linalg.matrix_exp(scale * rng.normal(size=(m, m))) @ p_x)
    # a P_x with nearly collinear rows warns; a rank-deficient one keeps a
    # lower pinv rank, warns, and its K is singular
    spread = draw(st.sampled_from([None, 1e-13, 0.0]))
    if spread is not None:
        low = p_xs[draw(st.integers(0, len(p_xs) - 1))]
        low[-1] = low[0] + spread * rng.normal(size=k)
    return np.stack(p_xs), np.stack(p_ys) + 1e-9 * rng.normal(size=(len(p_ys), m, k))


@SETTINGS
@given(fit_stacks())
def test_koopman_fit_stack_is_each_fit_alone(stacks):
    p_xs, p_ys = stacks
    assert_same(
        outcome(lambda: linalg.koopman_fit(p_xs, p_ys, 0.1)),
        outcome(lambda: one_by_one(lambda x, y: linalg.koopman_fit(x, y, 0.1), p_xs, p_ys)),
    )


def test_pinv_keeps_each_rank():
    rng = np.random.default_rng(8)
    full, low = rng.normal(size=(4, 9)), rng.normal(size=(4, 9))
    low[3] = low[0] + low[1]
    # a wide stack, factored through its transpose, and a tall one
    for stack in (np.stack([full, low, full]), np.stack([full.T, low.T, full.T])):
        pinvs, sigma = linalg._pinv_svd(stack)
        for a, p in zip(stack, pinvs):
            (alone,), _ = linalg._pinv_svd(a[None])
            np.testing.assert_array_equal(p, alone)
        assert sigma.shape == (3, 4)


KEYS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40 + 2, 2**64 + 5]),
    st.tuples(st.integers(0, 2**33), st.just(2**40 + 2), st.integers(1, 2)),
    st.lists(st.integers(0, 2**70), min_size=0, max_size=3),
)


@SETTINGS
@given(st.lists(KEYS, min_size=1, max_size=8), st.integers(1, 5))
def test_substream_keys_are_each_key_alone(keys, n_traj):
    box = np.array([(-1.0, 1.0), (0.5, 3.0), (-4.0, -2.0)])
    stacked = dynamics._substream_uniform(keys, n_traj, box)
    assert stacked.shape == (len(keys), n_traj, 3)
    for key, draws in zip(keys, stacked):
        np.testing.assert_array_equal(draws, dynamics._substream_uniform([key], n_traj, box)[0])


@pytest.mark.parametrize("key", [0, 2**32, (7, 2**40 + 2, 1)])
def test_substream_key_is_numpys_substream(key):
    box = np.array([(-1.0, 1.0)] * 3)
    (draws,) = dynamics._substream_uniform([key], 4, box)
    entropy = list(key) if isinstance(key, tuple) else [key]
    for k, row in enumerate(draws):
        rng = np.random.default_rng(np.random.SeedSequence([*entropy, k]))
        np.testing.assert_array_equal(row, rng.uniform(box[:, 0], box[:, 1]))


def lorenz_models(count):
    dictionary = monomial_dictionary(3, 2)
    models = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=(3, 200))
        y = dynamics.integrate(dynamics.lorenz_field(), x.T, 0.01, 10)[-1].T
        models += fit_models([StatePairEnsemble(x=x, y=y, step=0.1)], dictionary)
    return models


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["relift", "rollout"]))
def test_grouped_predict_is_each_model_and_row_alone(seed, mode):
    models = lorenz_models(3)
    # a model that diverges, on the same dictionary
    models.append(
        KoopmanModel(models[0].dictionary, models[0].k_mat * 1e30, models[0].l_complex, 0.1)
    )
    rng = np.random.default_rng(seed)
    x0s = rng.uniform(-1, 1, size=(len(models), 6, 3))
    x0s[1, 2] *= 1e60
    # NumPy's overflow warnings come per call, not per model
    with np.errstate(all="ignore"):
        grouped = outcome(lambda: predict_models(models, x0s, 20, mode))
        alone = outcome(
            lambda: np.concatenate(
                [predict_models([m], x0, 20, mode) for m, x0 in zip(models, x0s)]
            )
        )
    assert_same(grouped, alone)
    assert {category for category, _ in grouped[0]} == {DivergenceWarning}


SINGLE_STATE = experiments.ExperimentConfig(
    system="lorenz", mode="single_state", T_s=0.1, state_dim=3, K=100
)


def test_group_reconstruction_runs_one_exp_per_estimate(monkeypatch):
    # single-state estimates 4 components at targets; 10 seeds stack into each exp
    shapes = []
    matrix_exp = linalg.matrix_exp

    def count(l):
        shapes.append(np.shape(l))
        return matrix_exp(l)

    monkeypatch.setattr(linalg, "matrix_exp", count)
    experiments.run_sweep(SINGLE_STATE, range(10))
    assert shapes == [(10, 2, 2)] * 4


def test_group_reconstruction_is_the_per_seed_loop(monkeypatch):
    # an estimate of seed 3 alone warns: the group's fits are clean, its
    # stacked estimates are not, and each seed runs the stage again alone
    ((ensemble, _),) = experiments.simulate(SINGLE_STATE, [3])
    flagged = ensemble.values[1][0, 0]
    estimate_sets, stacked = hankel._estimate_sets, []

    def warn_for_seed_3(operators, p_xs, t):
        stacked.append(len(operators))
        estimates = estimate_sets(operators, p_xs, t)
        for p_x in p_xs:
            if p_x[0, 0] == flagged:
                warnings.warn(f"flagged at t={t:.6g}", ImaginaryResidualWarning)
        return estimates

    monkeypatch.setattr(hankel, "_estimate_sets", warn_for_seed_3)
    group = experiments._run_seeds(SINGLE_STATE, range(10))
    # component 0 at t=0.3, then component 1 at t=0.3 warns; 4 estimates per seed alone
    assert stacked == [10, 10] + [1] * 40
    alone = [experiments.run(replace(SINGLE_STATE, seed=seed)) for seed in range(10)]
    for seed, (report, expected) in enumerate(zip(group, alone)):
        assert report.warnings == expected.warnings
        assert report.errors == expected.errors == []
        assert bool(report.warnings) == (seed == 3)
        for name, model in expected.models.items():
            assert report.models[name].k_mat.tobytes() == model.k_mat.tobytes()
            assert report.models[name].l_complex.tobytes() == model.l_complex.tobytes()
    assert [w["message"] for w in group[3].warnings] == ["flagged at t=0.3", "flagged at t=0.4"]


def test_group_reconstruction_sets_equal_their_loop():
    # the public group call, with no replay: each ensemble's pairs bit for bit
    cfg = SINGLE_STATE
    schedules, targets = experiments.derive_schedules(cfg), experiments._targets(cfg)
    ensembles = [ensemble for ensemble, _ in experiments.simulate(cfg, range(4))]
    operator_sets = hankel.fit_component_operators(ensembles, schedules, targets)
    group = hankel.reconstruct_states(
        ensembles, schedules, operator_sets, cfg.T_s, first_target=targets[0]
    )
    for ensemble, operators, pairs in zip(ensembles, operator_sets, group):
        (alone,) = hankel.reconstruct_states(
            [ensemble], schedules, [operators], cfg.T_s, first_target=targets[0]
        )
        assert pairs.x.tobytes() == alone.x.tobytes()
        assert pairs.y.tobytes() == alone.y.tobytes()
        assert (pairs.x_estimated, pairs.y_estimated) == (alone.x_estimated, alone.y_estimated)


def component_fits(ensembles, schedules, targets):
    """The loop that :func:`hankel.fit_component_operators` stands for: per
    needed component, in schedule order, one one-ensemble
    :func:`hankel._fit_operators` call per ensemble, as one dict per
    ensemble."""
    needed = hankel.estimated_components(schedules, targets)
    sets = [{} for _ in ensembles]
    for s in schedules:
        if s.component in needed:
            for operators, ensemble in zip(sets, ensembles):
                (operators[s.component],) = hankel._fit_operators([ensemble], s)
    return sets


def assert_same_operator_sets(group, loop):
    assert [list(operators) for operators in group] == [list(operators) for operators in loop]
    for operators, expected in zip(group, loop):
        for comp, operator in operators.items():
            assert operator.schedule == expected[comp].schedule
            for name in ("k_mat", "l_complex"):
                a, b = getattr(operator, name), getattr(expected[comp], name)
                assert a.tobytes() == b.tobytes() and a.shape == b.shape


#: Single-state with four delay observables per component on K=6: component
#: 0 of seed 1 warns, so its stacked fit runs again one matrix at a time.
SMALL_M4 = replace(SINGLE_STATE, K=6, M=(4, 4, 4))


@pytest.mark.parametrize("cfg, seeds", [(SINGLE_STATE, range(4)), (SMALL_M4, range(10))])
def test_component_fit_stacks_are_each_ensemble_alone(cfg, seeds):
    schedules, targets = experiments.derive_schedules(cfg), experiments._targets(cfg)
    ensembles = [ensemble for ensemble, _ in experiments.simulate(cfg, seeds)]
    group = outcome(lambda: hankel.fit_component_operators(ensembles, schedules, targets))
    loop = outcome(lambda: component_fits(ensembles, schedules, targets))
    assert group[0] == loop[0]  # warnings: text, label and order
    assert_same_operator_sets(group[1], loop[1])
    if cfg is SMALL_M4:
        assert [message.split(":")[0] for _, message in group[0]] == ["component 0"] * 2


def test_component_fit_checks_each_ensemble_before_stacking():
    cfg = SINGLE_STATE
    schedules, targets = experiments.derive_schedules(cfg), experiments._targets(cfg)
    (ensemble, _), (other, _) = experiments.simulate(cfg, range(2))
    fewer = dynamics.Ensemble(
        times=ensemble.times, values={c: v[:50] for c, v in ensemble.values.items()},
        indices=range(50),
    )
    with pytest.raises(DataError, match="component 0: ensembles of different sizes"):
        hankel.fit_component_operators([ensemble, fewer], schedules, targets)
    shifted = dynamics.Ensemble(
        times={c: t + 0.01 for c, t in ensemble.times.items()}, values=ensemble.values,
        indices=ensemble.indices,
    )
    missing = dynamics.Ensemble(
        times={c: t for c, t in ensemble.times.items() if c}, indices=ensemble.indices,
        values={c: v for c, v in ensemble.values.items() if c},
    )
    # the first ensemble at fault names the error, as in a loop of one-ensemble fits
    for group, message in (
        ([other, shifted, missing], "component 0: sample times do not match"),
        ([other, missing, shifted], "component 0: no samples in the ensemble"),
    ):
        with pytest.raises(DataError, match=message):
            hankel.fit_component_operators(group, schedules, targets)


def test_component_fit_warns_for_the_components_before_a_data_error():
    # component 0 of seed 1 warns; component 1 is missing from seed 2, so
    # its error comes after component 0's fit and warnings, as in the loop
    cfg = SMALL_M4
    schedules, targets = experiments.derive_schedules(cfg), experiments._targets(cfg)
    ensembles = [ensemble for ensemble, _ in experiments.simulate(cfg, range(3))]
    ensembles[2] = dynamics.Ensemble(
        times={c: t for c, t in ensembles[2].times.items() if c != 1},
        values={c: v for c, v in ensembles[2].values.items() if c != 1},
        indices=ensembles[2].indices,
    )
    group = outcome(lambda: hankel.fit_component_operators(ensembles, schedules, targets))
    loop = outcome(lambda: component_fits(ensembles, schedules, targets))
    assert group == loop
    assert group[1] == (DataError, "component 1: no samples in the ensemble")
    assert [message.split(":")[0] for _, message in group[0]] == ["component 0"] * 2


def real_and_complex_generators():
    """Generators (2x2) with a complex pair, a real pair, a repeated
    eigenvalue and a Jordan block, in one stack."""
    rng = np.random.default_rng(4)
    q = rng.normal(size=(2, 2))
    return [
        np.array([[-0.1, 2.0], [-2.0, -0.1]]),
        q @ np.diag([-0.5, 0.3]) @ np.linalg.inv(q),
        -0.7 * np.eye(2),
        np.array([[0.2, 1.0], [0.0, 0.2]]),
    ]


def as_models(generators):
    dictionary = monomial_dictionary(len(generators[0]), 1, include_constant=False)
    return [KoopmanModel(dictionary, linalg.matrix_exp(0.1 * g), g + 0j, 0.1) for g in generators]


@pytest.mark.parametrize(
    "generators",
    [real_and_complex_generators(), [np.array([[-0.3]]), np.array([[1.5]])]],
    ids=["complex_pairs_and_repeats", "one_by_one"],
)
def test_generator_spectra_are_each_models_eigenvalues(generators):
    models = as_models(generators)
    spectra = edmd.generator_spectra(models)
    assert len(spectra) == len(models)
    for spectrum, model in zip(spectra, models):
        np.testing.assert_array_equal(spectrum, linalg.eigenvalues(model.l_mat), strict=True)
        assert spectrum.tobytes() == linalg.eigenvalues(model.l_mat).tobytes()
    assert spectra[0].dtype == complex


def test_generator_spectra_refuse_a_non_finite_generator_as_eigenvalues_does():
    models = as_models(real_and_complex_generators())
    models[2] = replace(models[2], l_complex=np.full((2, 2), np.nan + 0j))
    with pytest.raises(DimensionMismatchError) as alone:
        linalg.eigenvalues(models[2].l_mat)
    with pytest.raises(DimensionMismatchError) as group:
        edmd.generator_spectra(models)
    assert str(group.value) == str(alone.value)
    assert edmd.generator_spectra([]) == []


def test_sampled_ensembles_pass_the_public_validation(monkeypatch):
    checked = []
    post_init = dynamics.Ensemble.__post_init__

    def count(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(dynamics.Ensemble, "__post_init__", count)
    samples = experiments.simulate(SINGLE_STATE, range(10))
    assert checked == []  # the sampling path validates nothing again
    for ensemble in (e for pair in samples for e in pair):
        validated = dynamics.Ensemble(
            times=dict(ensemble.times), values=dict(ensemble.values), indices=ensemble.indices
        )
        for comp in ensemble.times:
            assert validated.times[comp].tobytes() == ensemble.times[comp].tobytes()
            assert validated.values[comp].tobytes() == ensemble.values[comp].tobytes()
            assert ensemble.values[comp].flags.c_contiguous
        np.testing.assert_array_equal(validated.indices, np.arange(100), strict=True)
    assert len(checked) == 20


@pytest.mark.parametrize(
    "times, values, indices, message",
    [
        ({0: [0.0, 0.1]}, {0: [[1.0, 2.0]]}, [], "nonempty 1-D"),
        ({0: [0.0, 0.1]}, {0: [[1.0, 2.0]] * 2}, [1, 1], "unique"),
        ({0: [0.0, 0.1]}, {1: [[1.0, 2.0]]}, [0], "same components"),
        ({0: [0.0, 0.1]}, {0: [[1.0, 2.0, 3.0]]}, [0], r"do not form \(M\+1,\)"),
        ({0: [0.0, np.inf]}, {0: [[1.0, 2.0]]}, [0], "non-finite"),
        ({0: [0.0, 0.1]}, {0: [[1.0, np.nan]]}, [0], "non-finite"),
        ({0: [0.1, 0.1]}, {0: [[1.0, 2.0]]}, [0], "strictly increasing"),
    ],
)
def test_public_ensemble_still_validates(times, values, indices, message):
    with pytest.raises(DataError, match=message):
        dynamics.Ensemble(times=times, values=values, indices=indices)


def test_evaluate_prediction_sets_are_each_set_alone():
    base = lorenz_models(3)
    # models that diverge after a few steps, at different steps per row
    fast = KoopmanModel(base[0].dictionary, base[0].k_mat * 3.0, base[0].l_complex, 0.1)
    slow = KoopmanModel(base[1].dictionary, base[1].k_mat * 1.5, base[1].l_complex, 0.1)
    rng = np.random.default_rng(21)
    sets = []
    for models in ({"a": base[0], "fast": fast}, {"a": base[1]}, {"slow": slow, "b": base[2]}):
        x0s = rng.uniform(-1, 1, size=(5, 3))
        x0s[1] *= 1e3
        x0s[3] *= 1e20
        sets.append((models, x0s, rng.uniform(-1, 1, size=(5, 12, 3))))
    with np.errstate(all="ignore"):
        group = outcome(lambda: experiments.evaluate_prediction(sets, "relift"))
        alone = outcome(lambda: [experiments.evaluate_prediction([s], "relift")[0] for s in sets])
    assert group[0] == alone[0] and group[0]
    prefixes = set()
    for (preds, rmse), (preds_alone, rmse_alone) in zip(group[1], alone[1]):
        assert list(preds) == list(preds_alone) and list(rmse) == list(rmse_alone)
        for name in preds:
            assert preds[name].tobytes() == preds_alone[name].tobytes()
            assert rmse[name] == rmse_alone[name]
            finite = np.isfinite(preds[name]).all(axis=2)
            prefixes |= set(np.where(finite.all(axis=1), 12, np.argmax(~finite, axis=1)).tolist())
    assert len(prefixes) >= 4  # rows end at several different steps, or run the horizon


def count_calls(monkeypatch, owner, name):
    """Record the shape of the first argument of each call of ``owner.name``."""
    shapes, original = [], getattr(owner, name)

    def record(*args, **kwargs):
        shapes.append(np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return shapes


def test_sweep_group_runs_one_call_per_stage(monkeypatch):
    fits = count_calls(monkeypatch, linalg, "koopman_fit")
    spectra = count_calls(monkeypatch, linalg, "eigenvalues")
    experiments.run_sweep(SINGLE_STATE, range(10))
    # one fit per component, then the EDMD fits of the model, the ideal
    # baseline and the noise floors
    assert fits == [(10, 2, 100)] * 3 + [(10, 10, 100), (10, 10, 100), (20, 10, 100)]
    # the spectra of the group's 20 models, then of its 20 noise-floor models
    assert spectra == [(20, 10, 10), (20, 10, 10)]


@pytest.mark.parametrize("seed_base", [0, 955635186, 1985716063])
def test_sweep_stages_run_joined(monkeypatch, seed_base):
    # the benchmark's sweep (K = 100, 10 seeds) runs each per-seed stage once
    # for the group: a stage that warned for one seed would replay it seed
    # by seed, 11 calls instead of 1, with no error to show for it
    clean_flags, quiet = [], experiments.quiet

    def record(call):
        clean, result = quiet(call)
        clean_flags.append(clean)
        return clean, result

    monkeypatch.setattr(experiments, "quiet", record)
    result = experiments.run_sweep(SINGLE_STATE, range(seed_base, seed_base + 10))
    assert clean_flags and all(clean_flags)
    assert result["seeds_scored"] == 10 and not result["stage_errors"]


def test_fit_models_lifts_all_x_in_one_call_and_all_y_in_another(monkeypatch):
    dictionary = monomial_dictionary(3, 2)
    rng = np.random.default_rng(2)
    pair_sets = [
        StatePairEnsemble(x=x, y=0.9 * x, step=0.1) for x in rng.uniform(-1, 1, size=(10, 3, 50))
    ]
    lifts, evaluate_columns = [], type(dictionary).evaluate_columns

    def record(self, states):
        lifts.append(evaluate_columns(self, states))
        return lifts[-1]

    monkeypatch.setattr(type(dictionary), "evaluate_columns", record)
    models = fit_models(pair_sets, dictionary)
    assert [lift.shape for lift in lifts] == [(10, 500)] * 2
    lifts.clear()
    for pairs, model in zip(pair_sets, models):
        (alone,) = fit_models([pairs], dictionary)
        assert alone.k_mat.tobytes() == model.k_mat.tobytes()
        assert alone.l_complex.tobytes() == model.l_complex.tobytes()
    assert len(lifts) == 2 * len(pair_sets)


def test_one_set_fit_takes_its_lifts_without_a_copy(monkeypatch):
    dictionary = monomial_dictionary(3, 2)
    x = np.random.default_rng(6).uniform(-1, 1, size=(3, 40))
    lifts, evaluate_columns = [], type(dictionary).evaluate_columns

    def record(self, states):
        lifts.append(evaluate_columns(self, states))
        return lifts[-1]

    stacks, koopman_fit = [], linalg.koopman_fit

    def keep(p_x, p_y, step):
        stacks.append((p_x, p_y))
        return koopman_fit(p_x, p_y, step)

    monkeypatch.setattr(type(dictionary), "evaluate_columns", record)
    monkeypatch.setattr(linalg, "koopman_fit", keep)
    fit_models([StatePairEnsemble(x=x, y=0.9 * x, step=0.1)], dictionary)
    ((p_x, p_y),) = stacks
    assert p_x.shape == p_y.shape == (1, 10, 40)
    assert np.shares_memory(p_x, lifts[0]) and np.shares_memory(p_y, lifts[1])

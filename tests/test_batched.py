"""Batched kernels against their one-item calls, bit for bit.

A stack given to ``matrix_log`` or ``koopman_fit``, a multi-key
``_substream_uniform`` and a grouped ``predict_models`` must give each item
the bits, the warnings and the errors of its own call, in item order. The
stacks mix root counts, Pade degrees, pinv ranks and matrix sizes, and some
hold an item that warns or fails, which makes the whole stack run again one
item at a time.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mredmd import dynamics, linalg
from mredmd.edmd import KoopmanModel, StatePairEnsemble, fit_model, predict, predict_models
from mredmd.errors import DivergenceWarning, MredmdError
from mredmd.observables import monomial_dictionary

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Scales of exp(scale * A): near I (no root, low degree) up to far from I
#: (several roots, degree 6 or 7).
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
    # the stack above really takes different root counts and Pade degrees
    degrees, roots = [], []
    gauss_legendre, sqrt_minus_identity = linalg._gauss_legendre, linalg._sqrt_minus_identity

    def count_degree(m):
        degrees.append(m)
        return gauss_legendre(m)

    def count_roots(r):
        roots.append(len(r))
        return sqrt_minus_identity(r)

    monkeypatch.setattr(linalg, "_gauss_legendre", count_degree)
    monkeypatch.setattr(linalg, "_sqrt_minus_identity", count_roots)
    rng = np.random.default_rng(5)
    stack = np.stack([linalg.matrix_exp(s * rng.normal(size=(10, 10))) for s in SCALES])
    linalg.matrix_log(stack)
    assert len(degrees) >= 4  # one Pade solve per degree
    assert len(set(roots)) >= 3  # root rounds over shrinking subsets


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
    pinvs, sigma = linalg._pinv_svd(np.stack([full, low, full]))
    for a, p in zip((full, low, full), pinvs):
        np.testing.assert_array_equal(p, linalg.pinv(a))
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
        models.append(fit_model(StatePairEnsemble(x=x, y=y, step=0.1), dictionary))
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
        alone = outcome(lambda: np.stack([predict(m, x0, 20, mode) for m, x0 in zip(models, x0s)]))
    assert_same(grouped, alone)
    assert {category for category, _ in grouped[0]} == {DivergenceWarning}

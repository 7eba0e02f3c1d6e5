"""Tests for EDMD fitting, spectra, and lifted-space prediction."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from mredmd import edmd, linalg
from mredmd.dynamics import integrate, lorenz_field
from mredmd.edmd import (
    StatePairEnsemble,
    fit_models,
    generator_spectra,
    predict_models,
)
from mredmd.experiments import evaluate_prediction
from mredmd.errors import (
    ConfigurationError,
    DivergenceWarning,
    IllConditionedWarning,
    ImaginaryResidualWarning,
    NegativeRealAxisWarning,
    RankDeficiencyWarning,
    SingularMatrixError,
    labelled,
)
from mredmd.observables import coordinate_readout, monomial_dictionary


def linear_pairs(a, t_s, n_traj, seed=0, scale=1.0):
    """Exact pairs (x, e^{A T_s} x) for the linear system dx = A x."""
    a = np.asarray(a, dtype=float)
    rng = np.random.default_rng(seed)
    x = scale * rng.uniform(-1, 1, size=(a.shape[0], n_traj))
    y = scipy.linalg.expm(a * t_s) @ x
    return StatePairEnsemble(x=x, y=y, step=t_s)


def collinear_pairs(delta, n_traj=40):
    """Pairs (x, 0.9 x) whose two coordinates differ by at most ``delta``, so
    the lifted rows x1 and x2 are nearly collinear."""
    rng = np.random.default_rng(3)
    x1 = rng.uniform(-1, 1, n_traj)
    x = np.stack([x1, x1 + delta * rng.uniform(-1, 1, n_traj)])
    return StatePairEnsemble(x=x, y=0.9 * x, step=0.1)


def lifted(monkeypatch, pairs, dictionary):
    """The (P_x, P_y) that ``fit_models`` hands to the Koopman fit, as the
    one matrix of each one-set stack."""
    seen = []

    def record(p_xs, p_ys, step):
        ((p_x,), (p_y,)) = p_xs, p_ys
        seen.append((p_x, p_y))
        return np.eye(len(p_x))[None], np.zeros((1,) + (len(p_x),) * 2, dtype=complex)

    monkeypatch.setattr(linalg, "koopman_fit", record)
    fit_models([pairs], dictionary)
    (matrices,) = seen
    return matrices


class TestBuildEdmdMatrices:
    def test_univariate_single_pair(self, monkeypatch):
        d = monomial_dictionary(1, 1)
        ens = StatePairEnsemble(x=[[1.0]], y=[[2.0]], step=0.5)
        with pytest.warns(RankDeficiencyWarning):
            p_x, p_y = lifted(monkeypatch, ens, d)
        np.testing.assert_array_equal(p_x, [[1.0], [1.0]])
        np.testing.assert_array_equal(p_y, [[1.0], [2.0]])

    def test_benchmark_shapes(self, monkeypatch):
        d = monomial_dictionary(3, 2)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(3, 300))
        ens = StatePairEnsemble(x=x, y=x, step=0.1)
        p_x, p_y = lifted(monkeypatch, ens, d)
        assert p_x.shape == (10, 300)
        assert p_y.shape == (10, 300)

    def test_identical_pairs_give_equal_matrices(self, monkeypatch):
        d = monomial_dictionary(2, 2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 20))
        p_x, p_y = lifted(monkeypatch, StatePairEnsemble(x=x, y=x, step=1.0), d)
        np.testing.assert_array_equal(p_x, p_y)


class TestFitKoopman:
    def test_identity_dynamics(self):
        d = monomial_dictionary(3, 2)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(3, 100))
        (model,) = fit_models([StatePairEnsemble(x=x, y=x, step=0.1)], d)
        np.testing.assert_allclose(model.k_mat, np.eye(10), atol=1e-10)

    def test_scalar_decay(self):
        d = monomial_dictionary(1, 1, include_constant=False)
        x = np.array([[1.0, 2.0, -1.0, 0.5]])
        (model,) = fit_models([StatePairEnsemble(x=x, y=0.5 * x, step=0.1)], d)
        np.testing.assert_allclose(model.k_mat, [[0.5]], atol=1e-12)
        np.testing.assert_allclose(model.l_mat, [[np.log(0.5) / 0.1]], atol=1e-10)

    def test_rotation_flow(self):
        omega = 1.3
        a = np.array([[0.0, -omega], [omega, 0.0]])
        d = monomial_dictionary(2, 1, include_constant=False)
        (model,) = fit_models([linear_pairs(a, 0.1, 50, seed=3)], d)
        theta = omega * 0.1
        np.testing.assert_allclose(
            model.k_mat,
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            atol=1e-6,
        )
        np.testing.assert_allclose(model.l_mat, a, atol=1e-6)

    def test_recovers_generator_of_linear_system(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            r = rng.normal(size=(3, 3))
            a = r / np.linalg.norm(r, 2)
            d = monomial_dictionary(3, 1, include_constant=False)
            (model,) = fit_models([linear_pairs(a, 0.1, 60, seed=5)], d)
            assert np.linalg.norm(model.l_mat - a) <= 1e-6

    def test_constant_observable_decouples(self):
        rng = np.random.default_rng(6)
        r = rng.normal(size=(2, 2))
        a = r / np.linalg.norm(r, 2)
        ens = linear_pairs(a, 0.1, 40, seed=7)
        (bare,) = fit_models([ens], monomial_dictionary(2, 1, include_constant=False))
        (full,) = fit_models([ens], monomial_dictionary(2, 1, include_constant=True))
        # the constant row keeps eigenvalue one and does not pollute coordinates
        np.testing.assert_allclose(full.k_mat[0], [1.0, 0.0, 0.0], atol=1e-9)
        x0 = np.array([0.3, -0.8])
        np.testing.assert_allclose(
            predict_models([full], x0, 5)[0], predict_models([bare], x0, 5)[0], atol=1e-9
        )

    def test_column_permutation_invariance(self):
        d = monomial_dictionary(2, 2)
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(2, 30))
        y = rng.uniform(-1, 1, size=(2, 30))
        perm = rng.permutation(30)
        (m1,) = fit_models([StatePairEnsemble(x=x, y=y, step=0.1)], d)
        (m2,) = fit_models([StatePairEnsemble(x=x[:, perm], y=y[:, perm], step=0.1)], d)
        np.testing.assert_allclose(m1.k_mat, m2.k_mat, atol=1e-8)

    def test_generator_consistency(self):
        d = monomial_dictionary(3, 2)
        records_x = np.random.default_rng(9).uniform(-1, 1, size=(3, 200))
        fld = lorenz_field()
        dense = integrate(fld, records_x.T, 0.01, 20)
        ens = StatePairEnsemble(x=dense[10].T, y=dense[20].T, step=0.1)
        (model,) = fit_models([ens], d)
        assert model.imag_residual < 1e-8
        back = scipy.linalg.expm(model.l_mat * model.step)
        rel = np.linalg.norm(back - model.k_mat) / np.linalg.norm(model.k_mat)
        assert rel <= 1e-6

    def test_singular_fit_names_its_counts(self):
        # 9 pairs cannot span 10 observables: K = P_y P_x^+ is singular
        d = monomial_dictionary(3, 2)
        pairs = linear_pairs(-np.eye(3), 0.1, 9)
        with pytest.warns(RankDeficiencyWarning), pytest.raises(SingularMatrixError) as info:
            fit_models([pairs], d)
        assert str(info.value) == (
            "EDMD fit (9 pairs, 10 observables): matrix is singular to working "
            "precision; logarithm undefined"
        )

    def test_warnings_name_their_counts(self):
        # K = -I has no real logarithm: both of its warnings carry the label
        x = np.random.default_rng(0).uniform(-1, 1, size=(2, 40))
        pairs = StatePairEnsemble(x=x, y=-x, step=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_models([pairs], monomial_dictionary(2, 1, include_constant=False))
        assert [(w.category, str(w.message).split(": ")[0]) for w in caught] == [
            (NegativeRealAxisWarning, "EDMD fit (40 pairs, 2 observables)"),
            (ImaginaryResidualWarning, "EDMD fit (40 pairs, 2 observables)"),
        ]

    def test_ill_conditioning_warns_with_its_counts(self):
        # both steps share one conditioning check, read off the pseudo-inverse's SVD
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_models([collinear_pairs(1e-13)], monomial_dictionary(2, 1))
        assert [w.category for w in caught] == [IllConditionedWarning]
        assert str(caught[0].message) == (
            "EDMD fit (40 pairs, 3 observables): P_x condition number 2.493e+13 "
            "exceeds 1e12; its rows are nearly collinear"
        )

    def test_ill_conditioning_warns_before_a_singular_error(self):
        # the collinear rows are truncated, so K is singular: the warning is
        # emitted before the labelled error propagates, not lost
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SingularMatrixError, match=r"^EDMD fit \(40 pairs"):
                fit_models([collinear_pairs(0.0)], monomial_dictionary(2, 1))
        assert [w.category for w in caught] == [IllConditionedWarning]
        assert str(caught[0].message).startswith(
            "EDMD fit (40 pairs, 3 observables): P_x condition number "
        )

    def test_shape_mismatch(self):
        # fit_models takes its pairs from a StatePairEnsemble, which rejects these
        with pytest.raises(ConfigurationError, match="matching"):
            StatePairEnsemble(x=np.ones((2, 3)), y=np.ones((3, 2)), step=0.1)
        with pytest.raises(ConfigurationError, match="step"):
            StatePairEnsemble(x=np.ones((2, 3)), y=np.ones((2, 3)), step=0.0)


class TestPredict:
    def test_identity_model_constant(self):
        d = monomial_dictionary(2, 1)
        model = edmd.KoopmanModel(
            dictionary=d,
            k_mat=np.eye(3),
            l_complex=np.zeros((3, 3)),
            step=0.1,
        )
        (out,) = predict_models([model], [0.4, -0.2], 7)
        np.testing.assert_array_equal(out, np.tile([0.4, -0.2], (7, 1)))

    def test_scalar_geometric(self):
        d = monomial_dictionary(1, 1, include_constant=False)
        model = edmd.KoopmanModel(
            dictionary=d,
            k_mat=np.array([[0.5]]),
            l_complex=np.array([[np.log(0.5)]]),
            step=1.0,
        )
        (out,) = predict_models([model], [3.0], 4)
        np.testing.assert_allclose(out[:, 0], 3.0 * 0.5 ** np.arange(1, 5))

    def test_single_step_exact_composition(self):
        d = monomial_dictionary(3, 2)
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, size=(3, 100))
        fld = lorenz_field()
        y = integrate(fld, x.T, 0.01, 10)[-1].T
        (model,) = fit_models([StatePairEnsemble(x=x, y=y, step=0.1)], d)
        x0 = rng.uniform(-1, 1, size=3)
        readout = coordinate_readout(model.dictionary)
        expected = readout @ (model.k_mat @ model.dictionary.evaluate(x0))
        np.testing.assert_array_equal(predict_models([model], x0, 1)[0][0], expected)

    def test_lorenz_bounded_rmse(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, size=(3, 200))
        fld = lorenz_field()
        y = integrate(fld, x.T, 0.01, 10)[-1].T
        (model,) = fit_models(
            [StatePairEnsemble(x=x, y=y, step=0.1)], monomial_dictionary(3, 2)
        )
        x0 = np.array([0.5, -0.5, 0.5])
        steps = 10
        (pred,) = predict_models([model], x0, steps)
        truth = integrate(fld, x0, 0.01, steps * 10)[10::10]
        rmse = np.sqrt(np.mean((pred - truth) ** 2))
        assert np.all(np.isfinite(pred))
        assert rmse < 0.05

    def test_relift_mode_runs(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, size=(3, 200))
        fld = lorenz_field()
        y = integrate(fld, x.T, 0.01, 10)[-1].T
        (model,) = fit_models(
            [StatePairEnsemble(x=x, y=y, step=0.1)], monomial_dictionary(3, 2)
        )
        x0 = np.array([0.5, -0.5, 0.5])
        (out,) = predict_models([model], x0, 5, mode="relift")
        np.testing.assert_array_equal(predict_models([model], x0, 1)[0][0], out[0])

    def test_divergence_truncates_with_flag(self):
        d = monomial_dictionary(1, 1, include_constant=False)
        model = edmd.KoopmanModel(
            dictionary=d,
            k_mat=np.array([[1e200]]),
            l_complex=np.array([[np.log(1e200)]]),
            step=1.0,
        )
        with pytest.warns(DivergenceWarning):
            (out,) = predict_models([model], [1.0], 5)
        assert np.isfinite(out[0, 0])
        assert np.isnan(out[-1, 0])

    def test_requires_coordinates(self):
        d = monomial_dictionary(2, 0)
        model = edmd.KoopmanModel(
            dictionary=d,
            k_mat=np.eye(1),
            l_complex=np.zeros((1, 1)),
            step=1.0,
        )
        with pytest.raises(ConfigurationError, match="no coordinate observables"):
            predict_models([model], [1.0, 2.0], 3)


def _lorenz_fit(degree, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(3, 300))
    y = integrate(lorenz_field(), x.T, 0.01, 10)[-1].T
    return fit_models([StatePairEnsemble(x=x, y=y, step=0.1)], monomial_dictionary(3, degree))[0]


class TestPredictModels:
    """Stacked prediction of the models of one report: each model's rows
    are bit for bit its own one-model call, NaN tails and warnings included."""

    @staticmethod
    def _models():
        first, last = _lorenz_fit(2, seed=30), _lorenz_fit(2, seed=31)
        # shares the dictionary; its rows blow up at different steps
        diverging = edmd.KoopmanModel(
            dictionary=first.dictionary,
            k_mat=first.k_mat * 1e30,
            l_complex=first.l_complex,
            step=0.1,
        )
        return {"first": first, "diverging": diverging, "last": last}

    @staticmethod
    def _x0s():
        x0s = np.random.default_rng(32).uniform(-1, 1, size=(12, 3))
        x0s[[2, 7]] *= [[1e-60], [1e60]]
        return x0s

    @pytest.mark.parametrize("mode", ["relift", "rollout"])
    def test_rows_and_warnings_equal_each_model_alone(self, mode):
        models, x0s = self._models(), self._x0s()
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            expected = np.stack([predict_models([m], x0s, 40, mode)[0] for m in models.values()])
        with warnings.catch_warnings(record=True) as stacked:
            warnings.simplefilter("always")
            out = predict_models(models.values(), x0s, 40, mode)
        np.testing.assert_array_equal(out, expected)
        messages = [str(w.message) for w in stacked if w.category is DivergenceWarning]
        assert messages == [str(w.message) for w in alone if w.category is DivergenceWarning]
        # the diverging model's rows leave at different steps; a stable model
        # keeps all its rows but the one far outside the fitted box
        assert len(set(messages)) > 1
        assert np.isnan(out[1]).all(axis=(1, 2)).sum() == 0 and np.isnan(out[1]).any()
        assert np.isfinite(np.delete(out[[0, 2]], 7, axis=1)).all()
        # model then row: the warnings follow the NaN tails in that order
        tails = np.isnan(out).any(axis=3)
        assert messages == [
            f"prediction diverged at step {int(np.argmax(tails[m, row])) + 1} of 40; "
            "output truncated"
            for m, row in np.argwhere(tails.any(axis=2)).tolist()
        ]

    def test_one_state_and_other_dictionaries(self):
        models = list(self._models().values())
        x0 = np.array([0.3, -0.2, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = predict_models(models, x0, 15, "relift")
            expected = np.stack([predict_models([m], x0, 15, "relift")[0] for m in models])
        assert out.shape == (3, 15, 3)
        np.testing.assert_array_equal(out, expected)
        # models on another dictionary are predicted apart
        with pytest.raises(ConfigurationError, match="share one dictionary"):
            predict_models([*models, _lorenz_fit(3, seed=33)], x0, 15, "relift")

    def test_evaluate_prediction_rmse_unchanged(self):
        models, x0s = self._models(), self._x0s()
        truth = np.random.default_rng(34).uniform(-1, 1, size=(len(x0s), 40, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ((predictions, rmse),) = evaluate_prediction([(models, x0s, truth)], "relift")
            for name, model in models.items():
                (preds,) = predict_models([model], x0s, 40, "relift")
                np.testing.assert_array_equal(predictions[name], preds)
                expected = []
                for row, row_truth in zip(preds, truth):
                    finite = np.isfinite(row).all(axis=1)
                    prefix = len(row) if finite.all() else int(np.argmax(~finite))
                    err = row[:prefix] - row_truth[:prefix]
                    expected.append(float(np.sqrt(np.mean(err**2))) if prefix else np.inf)
                assert rmse[name] == expected

    def test_needs_a_model(self):
        with pytest.raises(ConfigurationError, match="no models"):
            predict_models([], np.zeros(3), 5)


class TestGeneratorSpectrum:
    def test_scalar_decay(self):
        d = monomial_dictionary(1, 1, include_constant=False)
        x = np.array([[1.0, 2.0, -1.0]])
        (model,) = fit_models([StatePairEnsemble(x=x, y=0.5 * x, step=0.1)], d)
        np.testing.assert_allclose(
            generator_spectra([model])[0], [np.log(0.5) / 0.1], atol=1e-10
        )

    def test_identity_model_zero(self):
        d = monomial_dictionary(2, 1)
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, size=(2, 50))
        (model,) = fit_models([StatePairEnsemble(x=x, y=x, step=0.1)], d)
        np.testing.assert_allclose(generator_spectra([model])[0], np.zeros(3), atol=1e-8)

    def test_closed_under_conjugation(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, size=(3, 200))
        fld = lorenz_field()
        y = integrate(fld, x.T, 0.01, 10)[-1].T
        (model,) = fit_models(
            [StatePairEnsemble(x=x, y=y, step=0.1)], monomial_dictionary(3, 2)
        )
        (w,) = generator_spectra([model])
        from mredmd.linalg import spectrum_distance

        assert spectrum_distance(w, np.conj(w)) < 1e-10


def test_labelled_reemits_warnings_before_a_singular_error():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SingularMatrixError) as info:
            with labelled("fit"):
                warnings.warn("first", IllConditionedWarning)
                warnings.warn("second", ImaginaryResidualWarning)
                raise SingularMatrixError("singular")
    assert [(w.category, str(w.message)) for w in caught] == [
        (IllConditionedWarning, "fit: first"),
        (ImaginaryResidualWarning, "fit: second"),
    ]
    assert str(info.value) == "fit: singular"
    assert str(info.value.__cause__) == "singular"

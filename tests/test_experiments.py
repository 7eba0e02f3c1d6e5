"""Tests for the experiment pipelines, config handling, and report files."""

import ast
import csv
import json
import math
import re
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from mredmd import errors, experiments, hankel
from mredmd.dynamics import linear_field
from mredmd.edmd import StatePairEnsemble, fit_models
from mredmd.errors import ConfigurationError, MredmdWarning
from mredmd.experiments import (
    ExperimentConfig,
    derive_schedules,
    emit_report,
    evaluate_prediction,
    ideal_noise_floor,
    lcm_of_rates,
    run,
    run_sweep,
)
from mredmd.observables import monomial_dictionary


def multirate_config(**overrides):
    base = dict(
        system="lorenz", mode="multirate", T_s=0.1, K=60, seed=0, rates=(1, 4, 3)
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def single_state_config(**overrides):
    base = dict(
        system="lorenz", mode="single_state", T_s=0.1, K=60, seed=0, state_dim=3
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestLcmOfRates:
    def test_benchmark_rates(self):
        assert lcm_of_rates((1, 4, 3)) == 12

    def test_table_rates(self):
        assert lcm_of_rates((1, 2, 3)) == 6

    def test_uniform(self):
        assert lcm_of_rates((1, 1, 1)) == 1

    def test_permutation_invariant(self):
        assert lcm_of_rates((3, 4, 1)) == lcm_of_rates((1, 4, 3))
        assert lcm_of_rates((5, 1)) == lcm_of_rates((5,))

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigurationError):
            lcm_of_rates(())
        with pytest.raises(ConfigurationError):
            lcm_of_rates((0, 2))

    @pytest.mark.parametrize(
        "rates, message",
        [
            ([True, 2], "rates[0] must be an integer >= 1, got True"),
            ([2.0, 3], "rates[0] must be an integer >= 1, got 2.0"),
            (["a"], "rates[0] must be an integer >= 1, got 'a'"),
            ([2, None], "rates[1] must be an integer >= 1, got None"),
            ([3, -4], "rates[1] must be an integer >= 1, got -4"),
        ],
    )
    def test_rejects_non_integer_rates(self, rates, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            lcm_of_rates(rates)

    def test_numpy_rates(self):
        lcm = lcm_of_rates(np.array([1, 4, 3]))
        assert lcm == 12 and type(lcm) is int


class TestDeriveSchedules:
    def test_multirate_benchmark(self):
        schedules = derive_schedules(multirate_config())
        assert [s.dead_time for s in schedules] == [0.0, 0.0, 0.0]
        np.testing.assert_allclose([s.period for s in schedules], [0.1, 0.4, 0.3])
        assert [s.count for s in schedules] == [12, 3, 4]

    def test_multirate_explicit_counts(self):
        schedules = derive_schedules(multirate_config(M=(12, 4, 5)))
        assert [s.count for s in schedules] == [12, 4, 5]

    def test_multirate_uniform_rates_cover_two_steps(self):
        schedules = derive_schedules(multirate_config(rates=(1, 1, 1)))
        assert [s.count for s in schedules] == [2, 2, 2]

    def test_single_state_pattern(self):
        schedules = derive_schedules(single_state_config())
        np.testing.assert_allclose([s.dead_time for s in schedules], [0.1, 0.2, 0.3])
        np.testing.assert_allclose([s.period for s in schedules], [0.3, 0.3, 0.3])
        assert [s.count for s in schedules] == [2, 2, 2]


class TestExperimentConfig:
    def test_from_dict_roundtrip(self):
        cfg = ExperimentConfig.from_dict(
            {
                "system": "lorenz",
                "mode": "multirate",
                "T_s": 0.1,
                "K": 10,
                "seed": 4,
                "rates": [1, 2, 3],
            }
        )
        assert cfg.rates == (1, 2, 3)
        echo = cfg.to_dict()
        assert echo["seed"] == 4
        assert ExperimentConfig.from_dict(
            {k: v for k, v in echo.items() if v is not None}
        ) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            ExperimentConfig.from_dict(
                {
                    "system": "lorenz",
                    "mode": "multirate",
                    "T_s": 0.1,
                    "K": 10,
                    "rates": [1, 1, 1],
                    "noise": 0.1,
                }
            )

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigurationError, match="missing"):
            ExperimentConfig.from_dict({"system": "lorenz", "mode": "multirate"})

    def test_mode_requirements(self):
        with pytest.raises(ConfigurationError, match="rates"):
            ExperimentConfig(system="lorenz", mode="multirate", T_s=0.1, K=10)
        with pytest.raises(ConfigurationError, match="state_dim"):
            ExperimentConfig(system="lorenz", mode="single_state", T_s=0.1, K=10)

    def test_dimension_checks(self):
        with pytest.raises(ConfigurationError):
            multirate_config(rates=(1, 2))
        with pytest.raises(ConfigurationError):
            single_state_config(state_dim=2)
        with pytest.raises(ConfigurationError):
            multirate_config(init_box=[(-1, 1)])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("K", "300"),
            ("K", 300.7),
            ("K", True),
            ("K", 0),
            ("degree", -1),
            ("seed", 1.5),
            ("seed", -1),
            ("degree", "2"),
            ("horizon", False),
            ("eval_trajectories", 10.0),
            ("state_dim", True),
            ("T_s", math.nan),
            ("T_s", math.inf),
            ("T_s", "0.1"),
            ("T_s", True),
            ("T_s", 0.0),
            ("T_s", -0.1),
            ("rates", [1, "x", 3]),
            ("rates", [1, 4.5, 3]),
            ("M", ["a", 3, 4]),
            ("M", [12.7, 3, 4]),
            ("init_box", 3),
            ("system", []),
            ("include_constant", "no"),
            ("output_dir", 5),
            # ints beyond the float range
            ("T_s", 10**400),
            ("T_s", -(10**400)),
            ("init_box", [[0, 10**400], [0, 1], [0, 1]]),
            ("init_box", [[-(10**400), 0], [0, 1], [0, 1]]),
        ],
    )
    def test_field_types_rejected(self, field, value):
        data = {"system": "lorenz", "mode": "multirate", "T_s": 0.1, "K": 10, "rates": [1, 4, 3]}
        data[field] = value
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig.from_dict(data)

    def test_shared_count_wording(self):
        with pytest.raises(ConfigurationError, match=r"^K must be an integer >= 1, got 0$"):
            multirate_config(K=0)
        with pytest.raises(ConfigurationError, match=r"^seed must be an integer >= 0, got 1.5$"):
            multirate_config(seed=1.5)

    def test_numpy_scalars_stored_as_python_numbers(self, tmp_path):
        # NumPy scalars pass the same checks as Python numbers; the config
        # keeps the Python number, so its echo is JSON and its reports the
        # plain config's bytes
        cfg = multirate_config(
            K=np.int64(300), rates=(np.int64(1), 4, 3), T_s=np.float64(0.1), degree=np.int32(2)
        )
        plain = multirate_config(K=300)
        assert cfg == plain
        assert [type(getattr(cfg, name)) for name in ("K", "T_s", "degree")] == [int, float, int]
        assert all(type(p) is int for p in cfg.rates)
        assert json.dumps(cfg.to_dict()) == json.dumps(plain.to_dict())
        trees = []
        for name, config in (("numpy", cfg), ("plain", plain)):
            out = emit_report(run(config), tmp_path / name)
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert trees[0] == trees[1]

    def test_prediction_mode_validated(self):
        with pytest.raises(ConfigurationError):
            multirate_config(prediction_mode="extrapolate")

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "system": "lorenz",
                    "mode": "single_state",
                    "T_s": 0.1,
                    "K": 20,
                    "state_dim": 3,
                }
            )
        )
        cfg = ExperimentConfig.from_json(path)
        assert cfg.mode == "single_state"
        path.write_text("{broken")
        with pytest.raises(ConfigurationError, match="JSON"):
            ExperimentConfig.from_json(path)


class TestEvaluatePrediction:
    def test_exact_scalar_linear_fit(self):
        a = -0.8
        d = monomial_dictionary(1, 1, include_constant=False)
        x = np.linspace(0.2, 1.5, 10)[None, :]
        (model,) = fit_models(
            [StatePairEnsemble(x=x, y=np.exp(a * 0.1) * x, step=0.1)], d
        )
        x0s = np.array([[1.0], [0.5]])
        truth = x0s[:, None, :] * np.exp(a * 0.1 * np.arange(1, 21))[None, :, None]
        ((preds, rmse),) = evaluate_prediction([({"exact": model}, x0s, truth)])
        assert rmse["exact"][0] < 1e-6
        assert rmse["exact"][1] < 1e-6
        assert preds["exact"].shape == (2, 20, 1)

    def test_identity_system_zero_rmse(self):
        d = monomial_dictionary(3, 2)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(3, 100))
        (model,) = fit_models([StatePairEnsemble(x=x, y=x, step=0.1)], d)
        x0s = rng.uniform(-1, 1, size=(5, 3))
        ((_, rmse),) = evaluate_prediction(
            [({"id": model}, x0s, np.repeat(x0s[:, None], 10, axis=1))]
        )
        assert max(rmse["id"]) < 1e-10

    def test_divergent_model_flagged(self):
        # second mode blows up at step 3; RMSE must come from the finite prefix
        d = monomial_dictionary(2, 1, include_constant=False)
        import mredmd.edmd as edmd_mod

        model = edmd_mod.KoopmanModel(
            dictionary=d,
            k_mat=np.diag([0.5, 1e155]),
            l_complex=np.zeros((2, 2)),
            step=0.1,
        )
        x0s = np.array([[1.0, 5e-157]])
        with pytest.warns(Warning):
            ((_, rmse),) = evaluate_prediction(
                [({"bad": model}, x0s, np.repeat(x0s[:, None], 10, axis=1))], mode="rollout"
            )
        assert np.isfinite(rmse["bad"][0])  # finite-prefix RMSE
        assert rmse["bad"][0] > 1.0

    @pytest.mark.parametrize("shape", [(4, 10, 3), (5, 0, 3), (5, 10, 2), (50, 3)])
    def test_truth_of_another_shape_named(self, shape):
        d = monomial_dictionary(3, 1)
        x = np.random.default_rng(0).uniform(-1, 1, size=(3, 20))
        (model,) = fit_models([StatePairEnsemble(x=x, y=x, step=0.1)], d)
        x0s = np.zeros((5, 3))
        both = re.escape(f"truth has shape {shape}, expected (5, horizon >= 1, 3)")
        with pytest.raises(errors.DimensionMismatchError, match=both):
            evaluate_prediction([({"id": model}, x0s, np.zeros(shape))])

    def test_sets_of_another_shape_named(self):
        d = monomial_dictionary(3, 1)
        x = np.random.default_rng(0).uniform(-1, 1, size=(3, 20))
        (model,) = fit_models([StatePairEnsemble(x=x, y=x, step=0.1)], d)
        sets = [({"id": model}, np.zeros((5, 3)), np.zeros((5, 10, 3)))]
        sets.append(({"id": model}, np.zeros((4, 3)), np.zeros((4, 10, 3))))
        with pytest.raises(errors.DimensionMismatchError, match=r"\(5, 10, 3\) and \(4, 10, 3\)"):
            evaluate_prediction(sets)

    def test_report_scores_against_its_own_truth(self):
        cfg = multirate_config(K=30, horizon=7, eval_trajectories=3)
        report = run(cfg)
        assert np.array_equal(report.eval_times, np.arange(1, 8) * 0.1)
        x0s = experiments._eval_initial_conditions(cfg, cfg.seed, 3)
        (truth,) = experiments._eval_truths(experiments.system_field("lorenz"), [x0s], 7, 0.1)
        assert np.array_equal(report.eval_truth, truth)
        ((predictions, rmse),) = evaluate_prediction(
            [(report.models, x0s, truth)], cfg.prediction_mode
        )
        assert report.rmse == rmse
        for name in report.methods:
            assert np.array_equal(report.predictions[name], predictions[name])


class TestRunMultirate:
    def test_benchmark_config_report(self):
        report = run(multirate_config(K=300))
        assert report.errors == []
        assert report.methods == ["multirate", "lcm", "ideal"]
        assert set(report.models) == {"multirate", "lcm", "ideal"}
        for name in report.methods:
            assert report.spectra[name].shape == (10,)
            assert len(report.rmse[name]) == 10
        assert report.distances["ideal"] == 0.0
        assert report.distances["multirate"] < report.distances["lcm"]
        assert list(report.component_operators) == [1, 2]

    def test_uniform_rates_reduce_to_ideal(self):
        report = run(multirate_config(rates=(1, 1, 1)))
        assert report.errors == []
        np.testing.assert_array_equal(
            report.models["multirate"].k_mat, report.models["ideal"].k_mat
        )
        np.testing.assert_array_equal(
            report.models["multirate"].l_mat, report.models["ideal"].l_mat
        )
        assert report.distances["multirate"] == 0.0

    def test_wrong_counts_give_partial_report(self):
        # M too small to cover the lcm instant: the lcm stage fails, the
        # rest of the report is still produced
        report = run(multirate_config(M=(2, 1, 1)))
        assert any(e["stage"] == "fit_lcm" for e in report.errors)
        # the check runs before any reconstruction, so nothing was estimated
        assert not any(w["stage"] == "fit_lcm" for w in report.warnings)
        assert "multirate" in report.models
        assert "ideal" in report.models

    def test_failed_estimate_still_writes_hankel_operators(self, monkeypatch, tmp_path):
        def diverge(operators, p_xs, t):
            raise errors.DivergenceError(f"component {operators[0].schedule.component}: diverged")

        monkeypatch.setattr(hankel, "_estimate_sets", diverge)
        report = run(multirate_config(K=30))
        assert report.errors == [{"stage": "reconstruct", "message": "component 1: diverged"}]
        emit_report(report, tmp_path)
        written = sorted(p.name for p in tmp_path.glob("hankel_K_*.csv"))
        assert written == ["hankel_K_1.csv", "hankel_K_2.csv"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert list(summary["component_residuals"]) == ["1", "2"]

    @pytest.mark.parametrize("k", [5, 9])
    def test_too_few_pairs_name_the_fit(self, k):
        # K pairs for 10 observables: each EDMD fit is singular and says so
        message = (
            f"EDMD fit ({k} pairs, 10 observables): matrix is singular to working "
            "precision; logarithm undefined"
        )
        report = run(multirate_config(K=k))
        assert report.errors == [
            {"stage": stage, "message": message}
            for stage in ("reconstruct", "fit_lcm", "fit_ideal")
        ]


class TestRunSingleState:
    def test_benchmark_config_report(self):
        report = run(single_state_config(K=100))
        assert report.errors == []
        assert report.methods == ["single_state", "ideal"]
        assert report.spectra["single_state"].shape == (10,)
        assert list(report.component_operators) == [0, 1, 2]
        assert report.distances["single_state"] > 0.0

    def test_measured_values_pass_through(self):
        cfg = single_state_config(K=30)
        report = run(cfg)
        assert report.errors == []
        # estimation happened for the components of Table-2's blue cells only
        ops = report.component_operators
        assert set(ops) == {0, 1, 2}


class TestWarningCollection:
    def test_warnings_recorded_once_with_stage(self):
        # rank-deficient hankel fit: K < M_1 forces a warning in reconstruct
        report = run(multirate_config(K=10, M=(12, 11, 11)))
        recon = [w for w in report.warnings if w["stage"] == "reconstruct"]
        assert any(w["category"] == "RankDeficiencyWarning" for w in recon)
        keys = [(w["stage"], w["category"], w["message"]) for w in report.warnings]
        assert len(keys) == len(set(keys))

    def test_lcm_complex_log_recorded(self):
        report = run(multirate_config(K=300))
        lcm_warnings = [w for w in report.warnings if w["stage"] == "fit_lcm"]
        assert any(w["category"] == "NegativeRealAxisWarning" for w in lcm_warnings)
        assert report.residuals["lcm"] > 1e-6
        # only package warnings are recorded, never a third-party category
        for w in report.warnings:
            assert issubclass(getattr(errors, w["category"], type(None)), MredmdWarning), w

    def test_foreign_warning_passes_through(self):
        report = experiments.ExperimentReport(
            schema="s", mode="multirate", seed=0, config={}, methods=[]
        )
        with pytest.warns(RuntimeWarning, match="foreign"):
            with experiments._stage(report, "sample"):
                warnings.warn("foreign", RuntimeWarning)
                warnings.warn("ours", errors.ExtrapolationWarning)
        assert [w["message"] for w in report.warnings] == ["ours"]


    def test_ill_conditioning_recorded_before_a_singular_fit(self):
        # identical coordinates: P_x has two equal rows and K is singular
        report = experiments.ExperimentReport(
            schema="s", mode="multirate", seed=0, config={}, methods=[]
        )
        x = np.random.default_rng(3).uniform(-1, 1, (1, 40)).repeat(2, axis=0)
        pairs = StatePairEnsemble(x=x, y=0.9 * x, step=0.1)
        with experiments._stage(report, "fit_ideal"):
            fit_models([pairs], monomial_dictionary(2, 1))
        label = "EDMD fit (40 pairs, 3 observables): "
        assert [(w["stage"], w["category"]) for w in report.warnings] == [
            ("fit_ideal", "IllConditionedWarning")
        ]
        assert report.warnings[0]["message"].startswith(label + "P_x condition number ")
        assert report.errors == [
            {
                "stage": "fit_ideal",
                "message": label + "matrix is singular to working precision; logarithm undefined",
            }
        ]


class TestIdealNoiseFloor:
    def test_positive_and_deterministic(self):
        cfg = single_state_config(K=40)
        (floor1,) = ideal_noise_floor(cfg, [cfg.seed])
        (floor2,) = ideal_noise_floor(cfg, [cfg.seed])
        assert floor1 == floor2
        assert 0.0 < floor1 < 1.0


class TestEmitReport:
    def test_file_schemas(self, tmp_path):
        report = run(multirate_config(K=40))
        emit_report(report, tmp_path)
        with open(tmp_path / "spectrum.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "index", "real", "imag"]
        assert len(rows) == 1 + 3 * 10  # three methods, ten eigenvalues each
        with open(tmp_path / "prediction.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "trajectory", "t", "component", "truth", "predicted"]
        assert len(rows) == 1 + 3 * 10 * 50 * 3
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schema"] == experiments.SCHEMA_ID
        assert summary["config"]["K"] == 40
        assert set(summary["spectrum_distances"]) == {"multirate", "lcm", "ideal"}
        assert (tmp_path / "dictionary.txt").read_text().splitlines()[0] == "0 0 0"
        for name in ("multirate", "lcm", "ideal"):
            assert (tmp_path / f"K_{name}.csv").exists()
            assert (tmp_path / f"L_{name}.csv").exists()
        assert (tmp_path / "hankel_K_1.csv").exists()
        assert (tmp_path / "hankel_L_2.csv").exists()

    def test_model_files_written(self, tmp_path):
        d = monomial_dictionary(2, 1)
        rng = np.random.default_rng(15)
        x = rng.uniform(-1, 1, size=(2, 30))
        (model,) = fit_models([StatePairEnsemble(x=x, y=x, step=0.25)], d)
        report = experiments.ExperimentReport(
            schema=experiments.SCHEMA_ID,
            mode="multirate",
            seed=0,
            config={},
            methods=["ideal"],
            models={"ideal": model},
        )
        emit_report(report, tmp_path)
        k = np.loadtxt(tmp_path / "K_ideal.csv", delimiter=",")
        np.testing.assert_array_equal(k, model.k_mat)
        l_mat = np.loadtxt(tmp_path / "L_ideal.csv", delimiter=",")
        np.testing.assert_array_equal(l_mat, model.l_mat)
        manifest = (tmp_path / "model_ideal.txt").read_text()
        assert "step: 0.25" in manifest
        assert "1 0" in manifest

    def test_empty_report_headers_only(self, tmp_path):
        report = experiments.ExperimentReport(
            schema=experiments.SCHEMA_ID,
            mode="multirate",
            seed=0,
            config={},
            methods=[],
        )
        emit_report(report, tmp_path)
        assert (tmp_path / "spectrum.csv").read_text() == "method,index,real,imag\n"
        assert (
            tmp_path / "prediction.csv"
        ).read_text() == "method,trajectory,t,component,truth,predicted\n"

    @pytest.mark.parametrize("mode", ["relift", "rollout"])
    def test_prediction_csv_is_the_joined_lines(self, tmp_path, mode):
        # the streamed writer against the whole-file list it replaced, with
        # NaN predictions and truths and a method that has no predictions
        report = run(multirate_config(K=30, horizon=4, eval_trajectories=3, prediction_mode=mode))
        report.predictions["lcm"][1, 2:] = np.nan
        report.predictions["ideal"][0, 0, 1] = np.nan
        report.eval_truth[2, 3] = np.nan
        del report.predictions["multirate"]
        times = list(map(repr, report.eval_times.tolist()))
        truth = report.eval_truth
        prefixes = [
            f"{k},{times[j]},{comp},{obs!r},"
            for (k, j, comp), obs in zip(product(*map(range, truth.shape)), truth.ravel().tolist())
        ]
        lines = ["method,trajectory,t,component,truth,predicted"]
        for method in report.methods:
            if method in report.predictions:
                preds = report.predictions[method].ravel().tolist()
                lines += [f"{method},{prefix}{pred!r}" for prefix, pred in zip(prefixes, preds)]
        emit_report(report, tmp_path)
        text = (tmp_path / "prediction.csv").read_bytes()
        assert text == ("\n".join(lines) + "\n").encode()
        # predicted: 2 steps x 3 components of lcm's row 1, one of ideal's;
        # truth: the 3 components of row 2's last step, for lcm and ideal
        assert (text.count(b",nan\n"), text.count(b",nan,")) == (2 * 3 + 1, 2 * 3)

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = multirate_config(K=30, seed=7)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_report(run(cfg), d1)
        emit_report(run(cfg), d2)
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


    def test_bytes_independent_of_global_rng(self, tmp_path):
        # ill-conditioned fits: two rank-deficient Hankel operators with an
        # eigenvalue on the negative real axis; SciPy's randomized 1-norm
        # estimate made their logs depend on the global RNG state
        cfg = multirate_config(K=10, M=(12, 11, 11))
        state = np.random.get_state()
        trees = []
        try:
            for seed in range(5):
                np.random.seed(seed)
                out = emit_report(run(cfg), tmp_path / str(seed))
                trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        finally:
            np.random.set_state(state)
        assert all(tree == trees[0] for tree in trees[1:])


def _importers():
    """Top-level module name -> the package files that import it."""
    importers = {}
    for path in sorted(Path(experiments.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                importers.setdefault(name.split(".")[0], []).append(path.name)
    return importers


def test_only_experiments_imports_csv():
    # every CSV goes through experiments._write_csv; only the ensemble
    # import reads with csv, and dynamics, which samples, touches no file
    importers = _importers()
    assert importers["csv"] == ["experiments.py"]
    assert "dynamics.py" not in importers.get("re", []) + importers.get("pathlib", [])


def test_only_errors_imports_numbers():
    # the rules for an integer count and a finite number are written once,
    # in errors.check_integer and errors.check_number; an entry that checks
    # its scalars calls them instead of growing its own copy
    assert _importers()["numbers"] == ["errors.py"]


class TestRunSweep:
    @pytest.mark.parametrize("seed", [1.5, "3", True, -1, None])
    def test_bad_seed_rejected_before_any_work(self, seed, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a seed ran before the seeds were checked")

        monkeypatch.setattr(experiments, "_run_seeds", forbidden)
        with pytest.raises(ConfigurationError, match=re.escape(f"got {seed!r}")):
            run_sweep(multirate_config(K=10), [0, seed])

    def test_numpy_integer_seeds(self):
        cfg = multirate_config(K=20)
        result = run_sweep(cfg, np.arange(1, 3))
        assert result["seeds"] == [1, 2] and all(type(s) is int for s in result["seeds"])
        assert json.dumps(result) == json.dumps(run_sweep(cfg, [1, 2]))

    def test_multirate_sweep_summary(self, tmp_path):
        cfg = multirate_config(K=40)
        result = run_sweep(cfg, range(3))
        assert result["seeds"] == [0, 1, 2]
        assert result["seeds_scored"] == 3
        assert 0 <= result["spectrum_wins"] <= 3
        experiments.emit_comparison(result, tmp_path)
        with open(tmp_path / "compare.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "method", "spectrum_distance_to_ideal", "mean_rmse"]
        assert len(rows) == 1 + 3 * 3
        data = json.loads((tmp_path / "compare.json").read_text())
        assert data["primary_method"] == "multirate"

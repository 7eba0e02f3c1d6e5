"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance. Run with

    pytest tests/test_acceptance.py -v -s

to get one pass/fail line per criterion.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import mredmd
from mredmd import cli, hankel, linalg
from mredmd.dynamics import Ensemble, SamplingSchedule
from mredmd.edmd import StatePairEnsemble, fit_models
from mredmd.experiments import (
    ExperimentConfig,
    derive_schedules,
    emit_report,
    ideal_noise_floor,
    run,
    system_field,
)
from mredmd.observables import monomial_dictionary

SEEDS = range(10)


def benchmark_multirate_config(seed=0, **overrides):
    base = dict(
        system="lorenz", mode="multirate", T_s=0.1, K=300, seed=seed, rates=(1, 4, 3)
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def benchmark_single_state_config(seed=0, **overrides):
    base = dict(
        system="lorenz", mode="single_state", T_s=0.1, K=100, seed=seed, state_dim=3
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def multirate_sweep():
    """Reports and per-seed wall times for the benchmark multirate config."""
    reports, elapsed = [], []
    for seed in SEEDS:
        start = time.perf_counter()
        reports.append(run(benchmark_multirate_config(seed=seed)))
        elapsed.append(time.perf_counter() - start)
    return reports, elapsed


@pytest.fixture(scope="module")
def single_state_sweep():
    """Reports plus noise-floor references for the single-state config."""
    reports, floors = [], []
    for seed in SEEDS:
        cfg = benchmark_single_state_config(seed=seed)
        reports.append(run(cfg))
        floors += ideal_noise_floor(cfg, [cfg.seed])
    return reports, floors


def test_criterion_1_linear_system_oracle():
    start = time.perf_counter()
    t_s = 0.1
    for a in (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag([-0.5, -1.0])):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, size=(2, 50))
        y = scipy.linalg.expm(a * t_s) @ x  # exact pairs, independent of the fit path
        d = monomial_dictionary(2, 1, include_constant=False)
        (model,) = fit_models([StatePairEnsemble(x=x, y=y, step=t_s)], d)
        err = np.linalg.norm(model.l_mat - a)
        assert err <= 1e-6, f"generator error {err:.3e} for A={a.tolist()}"
    runtime = time.perf_counter() - start
    assert runtime < 1.0, f"runtime {runtime:.2f}s exceeds 1s"
    print(f"ACCEPTANCE 1 PASS: linear-system oracle, |L_N - A|_F <= 1e-6 ({runtime:.2f}s)")


def test_criterion_2_hankel_scalar_oracle():
    rho, t_i = 0.9, 0.1
    schedule = SamplingSchedule(component=0, dead_time=0.0, period=t_i, count=1)
    x0 = np.linspace(0.5, 2.0, 10)
    ensemble = Ensemble(
        times={0: schedule.instants()},
        values={0: np.column_stack([x0, x0 * rho])},
        indices=np.arange(x0.size),
    )
    (op,) = hankel._fit_operators([ensemble], schedule)
    l_err = abs(op.l_mat[0, 0] - np.log(rho) / t_i)
    assert l_err <= 1e-9, f"L_i error {l_err:.3e}"
    (est,) = hankel._estimate_sets([op], hankel._windows([ensemble], schedule)[:, :-1], 0.05)
    est_err = np.max(np.abs(est - x0 * rho**0.5))
    assert est_err <= 1e-9, f"fractional estimate error {est_err:.3e}"
    print("ACCEPTANCE 2 PASS: Hankel scalar oracle, L_i and half-period estimate to 1e-9")


def test_criterion_3_matrix_function_suite():
    rng = np.random.default_rng(1)
    # Moore-Penrose axioms on random matrices up to 50x50
    for _ in range(10):
        m, n = rng.integers(1, 51, size=2)
        a = rng.normal(size=(m, n))
        (ap,), _ = linalg._pinv_svd(a[None])
        assert np.max(np.abs(a @ ap @ a - a)) <= 1e-8
        assert np.max(np.abs(ap @ a @ ap - ap)) <= 1e-8
        assert np.max(np.abs(a @ ap - (a @ ap).T)) <= 1e-8
        assert np.max(np.abs(ap @ a - (ap @ a).T)) <= 1e-8
    # exp(log(K)) roundtrip for spectra off the closed negative real axis
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        r = rng.normal(size=(dim, dim))
        k = np.eye(dim) + 0.6 * r / np.linalg.norm(r, 2)
        eigs = np.linalg.eigvals(k)
        assert not np.any((eigs.real <= 0) & (np.abs(eigs.imag) < 1e-12))
        back = linalg.matrix_exp(linalg.matrix_log(k))
        rel = np.linalg.norm(back - k) / np.linalg.norm(k)
        assert rel <= 1e-8
    # principal log of a rotation
    theta = np.pi / 6
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    expected = np.array([[0.0, -theta], [theta, 0.0]])
    out = linalg.matrix_log(rot)
    assert np.max(np.abs(out - expected)) <= 1e-10
    print("ACCEPTANCE 3 PASS: pinv axioms (1e-8), exp-log roundtrip (1e-8), rotation log (1e-10)")


def test_criterion_4_passthrough_reduction():
    report = run(benchmark_multirate_config(K=60, rates=(1, 1, 1)))
    assert report.errors == []
    mr, ideal = report.models["multirate"], report.models["ideal"]
    assert np.array_equal(mr.k_mat, ideal.k_mat), "K_N differs bitwise"
    assert np.array_equal(mr.l_mat, ideal.l_mat), "L_N differs bitwise"
    assert mr.imag_residual == ideal.imag_residual
    print("ACCEPTANCE 4 PASS: multirate with p=(1,1,1) is bit-identical to the ideal model")


def test_criterion_5_measured_instant_exactness():
    cfg = benchmark_multirate_config()
    schedules = derive_schedules(cfg)
    ((ensemble,),) = mredmd.sample_ensembles(
        system_field(cfg.system), [schedules], cfg.K, [cfg.seed]
    )
    (fitted,) = hankel.fit_component_operators([ensemble], schedules, (cfg.T_s, 2 * cfg.T_s))
    assert list(fitted) == [1, 2]
    for comp, op in fitted.items():
        p_xs = hankel._windows([ensemble], op.schedule)[:, :-1]
        (est,) = hankel._estimate_sets([op], p_xs, op.schedule.dead_time)
        err = np.max(np.abs(est - p_xs[0, 0]))
        assert err <= 1e-12, f"component {comp}: first-sample error {err:.3e}"
    print("ACCEPTANCE 5 PASS: estimates at t=r_i reproduce measured first samples to 1e-12")


def test_criterion_6_spectrum_comparison(multirate_sweep):
    reports, elapsed = multirate_sweep
    wins = sum(
        r.distances["multirate"] < r.distances["lcm"] for r in reports
    )
    worst = max(elapsed)
    for r in reports:
        assert r.errors == []
        assert r.spectra["multirate"].shape == (10,)
    assert worst < 10.0, f"slowest seed took {worst:.1f}s"
    assert wins >= 8, f"multirate spectrum closer to ideal on only {wins}/10 seeds"
    print(
        f"ACCEPTANCE 6 PASS: spectrum_distance(multirate) < spectrum_distance(lcm) "
        f"on {wins}/10 seeds (slowest seed {worst:.2f}s)"
    )


def test_criterion_7_prediction_comparison(multirate_sweep):
    reports, _ = multirate_sweep
    wins = sum(r.mean_rmse["multirate"] < r.mean_rmse["lcm"] for r in reports)
    assert wins >= 8, f"multirate mean RMSE below lcm on only {wins}/10 seeds"
    print(f"ACCEPTANCE 7 PASS: multirate 50-step RMSE below lcm on {wins}/10 seeds")


def test_criterion_8_single_state_comparison(single_state_sweep):
    reports, floors = single_state_sweep
    dist_ok = sum(
        r.distances["single_state"] <= 3.0 * floor
        for r, floor in zip(reports, floors)
    )
    rmse_ok = sum(
        r.mean_rmse["single_state"] <= 3.0 * r.mean_rmse["ideal"] for r in reports
    )
    for r in reports:
        assert r.errors == []
    assert dist_ok >= 8, f"spectrum within 3x noise floor on only {dist_ok}/10 seeds"
    assert rmse_ok >= 8, f"RMSE within 3x ideal on only {rmse_ok}/10 seeds"
    print(
        f"ACCEPTANCE 8 PASS: single-state spectrum within 3x noise floor on "
        f"{dist_ok}/10 seeds, RMSE within 3x ideal on {rmse_ok}/10 seeds"
    )


def test_criterion_9_determinism(tmp_path):
    def tree_bytes(directory):
        return {
            p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
        }

    # library-level double run
    cfg = benchmark_multirate_config(K=40, seed=11)
    a, b = tmp_path / "lib_a", tmp_path / "lib_b"
    emit_report(run(cfg), a)
    emit_report(run(cfg), b)
    assert tree_bytes(a) == tree_bytes(b)

    # every CLI subcommand, run twice with identical config and seed
    cfg_mr = tmp_path / "mr.json"
    cfg_mr.write_text(
        json.dumps(
            {
                "system": "lorenz", "mode": "multirate", "T_s": 0.1,
                "K": 30, "seed": 2, "rates": [1, 4, 3],
            }
        )
    )
    cfg_ss = tmp_path / "ss.json"
    cfg_ss.write_text(
        json.dumps(
            {
                "system": "lorenz", "mode": "single_state", "T_s": 0.1,
                "K": 30, "seed": 2, "state_dim": 3,
            }
        )
    )
    runs = [
        ("multirate", cfg_mr, []),
        ("single-state", cfg_ss, []),
        ("simulate", cfg_mr, []),
        ("compare", cfg_mr, ["--num-seeds", "2"]),
    ]
    for name, cfg_path, extra in runs:
        d1, d2 = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        for d in (d1, d2):
            code = cli.main(
                [name, "--config", str(cfg_path), "--out", str(d)] + extra
            )
            assert code == 0, f"{name} exited {code}"
        assert tree_bytes(d1) == tree_bytes(d2), f"{name} output differs between runs"
    print("ACCEPTANCE 9 PASS: byte-identical reports for repeated runs of every subcommand")

"""The stage-by-stage seed sweep against the per-seed loop it replaced.

The loop below is the reference: it runs each seed on its own, with its own
RK4 integrations, and scores it as the sweep always has. The sweep groups
seeds and integrates each stage of a group in one batch; the Lorenz field
acts on each row alone, so every comparison is exact, down to the bytes of
``compare.csv`` and ``compare.json``.
"""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mredmd import dynamics, experiments
from mredmd.cli import main
from mredmd.errors import MredmdError
from mredmd.experiments import (
    ExperimentConfig,
    emit_comparison,
    ideal_noise_floor,
    run,
    run_sweep,
)

LORENZ = dict(system="lorenz", T_s=0.1)
MULTIRATE = dict(LORENZ, mode="multirate", rates=(1, 4, 3))
SINGLE_STATE = dict(LORENZ, mode="single_state", state_dim=3)

#: Where samples diverge for some seeds (+-320) or in every stage (+-340).
DIVERGENT_30 = dict(SINGLE_STATE, K=30, init_box=[(-320.0, 320.0)] * 3)
DIVERGENT_12 = dict(SINGLE_STATE, K=12, eval_trajectories=30, init_box=[(-340.0, 340.0)] * 3)


def reference_sweep(cfg, seeds):
    """One-seed runs in a loop, each scored as it finishes; a single-state
    seed against 3 times its noise floor, unscored if that floor fails."""
    multirate = cfg.mode == "multirate"
    primary, baseline = cfg.mode, "lcm" if multirate else "ideal"
    rows, stage_errors = [], []
    spectrum_wins = rmse_wins = scored = 0
    for seed in seeds:
        report = run(replace(cfg, seed=seed))
        dist, rmse = report.distances, report.mean_rmse
        if all(m in dist and m in rmse for m in (primary, baseline)):
            if multirate:
                scored += 1
                spectrum_wins += dist[primary] < dist[baseline]
                rmse_wins += rmse[primary] < rmse[baseline]
            else:
                try:
                    (floor,) = ideal_noise_floor(cfg, [seed])
                except (MredmdError, np.linalg.LinAlgError) as exc:
                    report.errors.append({"stage": "noise_floor", "message": str(exc)})
                else:
                    scored += 1
                    spectrum_wins += dist[primary] <= 3.0 * max(floor, 0.0)
                    rmse_wins += rmse[primary] <= 3.0 * rmse[baseline]
        rows.append(
            {
                "seed": seed,
                "spectrum_distances": dict(dist),
                "mean_rmse": dict(rmse),
                "n_errors": len(report.errors),
            }
        )
        stage_errors += [{"seed": seed, **err} for err in report.errors]
    return {
        "schema": experiments.SCHEMA_ID,
        "mode": cfg.mode,
        "seeds": list(seeds),
        "primary_method": primary,
        "baseline_method": baseline,
        "spectrum_wins": int(spectrum_wins),
        "rmse_wins": int(rmse_wins),
        "seeds_scored": scored,
        "rows": rows,
        "stage_errors": stage_errors,
    }


def comparison_bytes(result, directory):
    emit_comparison(result, directory)
    return {name: (directory / name).read_bytes() for name in ("compare.csv", "compare.json")}


def count_passes(monkeypatch):
    """Each RK4 pass as (batch shape, states it starts from, states it
    keeps, and per rider its shape and the states it keeps, or None)."""
    calls = []
    rk4 = dynamics._rk4

    def counted(field, kept, step, n_steps, every, riders=()):
        out, own = rk4(field, kept, step, n_steps, every, riders)
        rode = [(x0.shape, None if o is None else len(o)) for (x0, _), o in zip(riders, own)]
        calls.append((kept.shape[1:], len(kept), len(out), rode))
        return out, own

    monkeypatch.setattr(dynamics, "_rk4", counted)
    return calls


SWEEPS = {
    # the benchmark workloads; at K=10000 each seed exceeds the row budget
    "single_state_sweep": (dict(SINGLE_STATE, K=100), range(10)),
    "multirate_large": (dict(MULTIRATE, K=10000, degree=2, eval_trajectories=50), range(3)),
    "multirate_K300": (dict(MULTIRATE, K=300), range(10)),
    # groups of 4, 4 and 2 seeds whose joint lcm fits run clean
    "multirate_K1000": (dict(MULTIRATE, K=1000), range(10)),
    "divergent_samples": (DIVERGENT_30, range(10)),
    "divergent_every_stage": (DIVERGENT_12, range(10)),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_matches_per_seed_loop(name, tmp_path):
    config, seeds = SWEEPS[name]
    cfg = ExperimentConfig(**config)
    with np.errstate(all="ignore"):
        result = run_sweep(cfg, seeds)
        expected = reference_sweep(cfg, seeds)
    assert result == expected
    assert comparison_bytes(result, tmp_path / "sweep") == comparison_bytes(
        expected, tmp_path / "loop"
    )


def test_divergent_seed_fails_alone():
    with np.errstate(all="ignore"):
        result = run_sweep(ExperimentConfig(**DIVERGENT_30), range(10))
    assert result["stage_errors"] == [
        {
            "seed": 0,
            "stage": "sample",
            "message": "trajectory diverged (non-finite state) at step 15, t=0.15",
        }
    ]
    assert [row["n_errors"] for row in result["rows"]] == [1] + [0] * 9
    assert result["seeds_scored"] == 9


def test_every_stage_fallback_keeps_its_stage():
    with np.errstate(all="ignore"):
        result = run_sweep(ExperimentConfig(**DIVERGENT_12), range(10))
    stages = {err["seed"]: err["stage"] for err in result["stage_errors"]}
    assert stages == {
        0: "evaluate", 1: "sample", 3: "sample", 4: "sample", 5: "sample",
        6: "evaluate", 7: "sample", 8: "sample", 9: "noise_floor",
    }
    assert result["seeds_scored"] == 1


def test_ten_seeds_one_sampling_pass(monkeypatch):
    calls = count_passes(monkeypatch)
    run_sweep(ExperimentConfig(**SINGLE_STATE, K=100), range(10))
    # one pass of the samples (the 0.1 s grid to 0.9 s: 10 states), the
    # noise-floor halves (t = 0, T_s, 2 T_s) and the evaluation states,
    # handed over at 0.9 s; the evaluate stage continues them to 50 steps
    assert calls == [
        ((1000, 3), 1, 10, [((2000, 3), 3), ((100, 3), 10)]),
        ((100, 3), 10, 51, []),
    ]


def test_every_pass_is_an_integrate_call(monkeypatch):
    # a tracer that rebinds the public integrate sees every pass of the sweep
    shapes = []
    integrate = dynamics.integrate

    def traced(field, x0, step, n_steps, every=1):
        out = integrate(field, x0, step, n_steps, every)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(dynamics, "integrate", traced)
    run_sweep(ExperimentConfig(**SINGLE_STATE, K=100), range(10))
    assert shapes == [(10, 1000, 3), (51, 100, 3)]


#: Sweeps and the stages that integrate their riders from t = 0, alone:
#: the clean benchmark sweep, three whose evaluation truths or floor halves
#: diverge for some seeds, and a T_s whose micro-step 0.07 / 10 is not the
#: float of the grid's 7/1000. Samples diverge too in the first two, so each
#: seed samples alone, and its riders diverge with it; floor halves that
#: diverge in the group's pass take every rider of it with them.
STANDALONE = {
    "clean": (dict(SINGLE_STATE, K=100), set()),
    "single_eval_diverging": (
        dict(SINGLE_STATE, K=12, eval_trajectories=40, init_box=[(-330.0, 330.0)] * 3),
        {"evaluate"},
    ),
    "multirate_eval_diverging": (
        dict(MULTIRATE, K=12, eval_trajectories=40, init_box=[(-330.0, 330.0)] * 3),
        {"evaluate"},
    ),
    "single_floor_diverging": (
        dict(SINGLE_STATE, K=12, eval_trajectories=1, init_box=[(-325.0, 325.0)] * 3),
        {"evaluate", "noise_floor"},
    ),
    "single_ts007": (dict(SINGLE_STATE, K=100, T_s=0.07), {"evaluate"}),
}


@pytest.mark.parametrize("name", STANDALONE)
def test_riders_left_to_their_own_stage(monkeypatch, name):
    config, expected = STANDALONE[name]
    taken = set()
    eval_truths, floor_halves = experiments._eval_truths, experiments._floor_halves

    def truths_from_t0(fld, starts, horizon, step):
        if any(np.ndim(x0) == 2 for x0 in starts):
            taken.add("evaluate")
        return eval_truths(fld, starts, horizon, step)

    def halves_alone(cfg, seeds):
        taken.add("noise_floor")
        return floor_halves(cfg, seeds)

    monkeypatch.setattr(experiments, "_eval_truths", truths_from_t0)
    monkeypatch.setattr(experiments, "_floor_halves", halves_alone)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_sweep(ExperimentConfig(**config), range(10))
    assert taken == expected


def test_floor_halves_never_change_the_sample_stage_error():
    # the seed's draw with its floor halves cannot be held, nor the seed's
    # own: the error names the seed's draw alone, as a one-seed run does
    result = run_sweep(ExperimentConfig(**SINGLE_STATE, K=2**60), [0])
    (error,) = result["stage_errors"]
    assert error["stage"] == "sample"
    assert error["message"].startswith(f"cannot allocate the initial states: 1 x K={2**60} ")


#: Configs whose joint fits warn or fail for some seeds, so that their stages
#: run again one seed at a time.
FALLBACKS = {
    "multirate_k10_m12": dict(MULTIRATE, K=10, M=(12, 11, 11)),
    "single_state_k5": dict(SINGLE_STATE, K=5),
    "single_state_k10_m3": dict(SINGLE_STATE, K=10, M=(3, 3, 3)),
    "divergent_samples": DIVERGENT_30,
    # the lcm baseline is refused for every seed, inside the group's stage
    "multirate_m211": dict(MULTIRATE, K=300, M=(2, 1, 1)),
}


@pytest.mark.parametrize("name", FALLBACKS)
def test_fallback_reports_warn_and_fail_as_one_seed_runs(name):
    cfg = ExperimentConfig(**FALLBACKS[name])
    with np.errstate(all="ignore"):
        reports, _ = experiments._run_seeds(cfg, range(10))
        alone = [run(replace(cfg, seed=seed)) for seed in range(10)]
    assert any(report.warnings or report.errors for report in alone)
    for report, expected in zip(reports, alone):
        assert report.warnings == expected.warnings
        assert report.errors == expected.errors


@pytest.fixture(scope="module")
def single_state_sweep():
    cfg = ExperimentConfig(**SINGLE_STATE, K=100)
    return cfg, run_sweep(cfg, range(10))


@pytest.mark.parametrize("budget, groups", [(150, 10), (700, 5), (1000, 4)])
def test_row_budget_counts_every_row_of_the_pass(
    monkeypatch, single_state_sweep, budget, groups
):
    # a seed's pass holds 3 K + E = 310 rows: its samples, its two floor
    # halves and its evaluation states; one over the budget runs alone
    cfg, expected = single_state_sweep
    monkeypatch.setattr(experiments, "_BATCH_ROWS", budget)
    calls = count_passes(monkeypatch)
    assert run_sweep(cfg, range(10)) == expected
    passes = [(batch, rode) for batch, _, _, rode in calls if rode]
    assert len(passes) == groups and len(calls) == 2 * groups
    rows = [batch[0] + sum(shape[0] for shape, _ in rode) for batch, rode in passes]
    assert max(rows) <= max(budget, 310)


def test_riders_that_cannot_be_held_leave_the_sweep_as_it_is(monkeypatch, single_state_sweep):
    # the group's 3,100 joined rows cannot be held: its 1,000 sample rows
    # pass alone, and the evaluate and noise_floor stages take their own
    cfg, expected = single_state_sweep
    stepper = dynamics._stepper

    def at_most_2000_rows(field, state, step):
        if len(state) > 2000:
            raise MemoryError
        return stepper(field, state, step)

    monkeypatch.setattr(dynamics, "_stepper", at_most_2000_rows)
    calls = count_passes(monkeypatch)
    assert run_sweep(cfg, range(10)) == expected
    assert calls == [
        ((1000, 3), 1, 10, [((2000, 3), None), ((100, 3), None)]),
        ((100, 3), 1, 51, []),
        ((2000, 3), 1, 3, []),
    ]


@pytest.mark.parametrize(
    "config", [dict(SINGLE_STATE, K=100), dict(MULTIRATE, K=300)], ids=["single_state", "multirate"]
)
def test_run_matches_sweep_row(config):
    cfg = ExperimentConfig(**config)
    rows = run_sweep(cfg, range(4, 8))["rows"]
    for seed, row in zip(range(4, 8), rows):
        report = run(replace(cfg, seed=seed))
        assert row == {
            "seed": seed,
            "spectrum_distances": report.distances,
            "mean_rmse": report.mean_rmse,
            "n_errors": len(report.errors),
        }


def test_noise_floor_failure_is_recorded(tmp_path, capsys):
    # seed 0 runs, but a half of its noise floor diverges; the sweep goes on
    config = dict(SINGLE_STATE, K=20, init_box=[[-340, 340]] * 3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "cmp"
    with np.errstate(all="ignore"):
        code = main(["compare", "--config", str(path), "--out", str(out), "--num-seeds", "10"])
    assert code == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("seed ")]
    assert errors[0] == (
        "seed 0: error in stage noise_floor: trajectory diverged (non-finite state) "
        "at step 12, t=0.12"
    )
    data = json.loads((out / "compare.json").read_text())
    assert [row["seed"] for row in data["rows"]] == list(range(10))
    assert data["rows"][0]["n_errors"] == 1 and data["seeds_scored"] == 0
    assert "stage_errors" not in data
    assert (out / "compare.csv").read_text().startswith("seed,method,")

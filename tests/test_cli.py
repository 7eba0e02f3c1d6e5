"""CLI smoke tests: subcommands, exit codes, determinism."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mredmd
from mredmd import experiments, hankel
from mredmd.cli import main
from mredmd.errors import ConfigurationError, MredmdWarning
from mredmd.experiments import ExperimentConfig, run_sweep


def write_config(path, **overrides):
    cfg = {
        "system": "lorenz",
        "mode": "multirate",
        "T_s": 0.1,
        "K": 30,
        "seed": 0,
        "rates": [1, 4, 3],
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_multirate_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "report"
    assert main(["multirate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "summary.json").exists()
    stdout = capsys.readouterr().out
    assert "spectrum distance to ideal" in stdout


def test_single_state_subcommand(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", mode="single_state", state_dim=3, rates=None
    )
    out = tmp_path / "report"
    assert main(["single-state", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "single_state"


def test_mode_mismatch_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["single-state", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("num_seeds", ["0", "-2"])
def test_compare_needs_a_seed(tmp_path, num_seeds):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--num-seeds", num_seeds, "--out", str(out)]) == 2
    assert not out.exists()


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "report"
    main(["multirate", "--config", str(cfg), "--seed", "9", "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 9


#: Configs that no grid can sample, each with the text of its error: a T_s
#: below the grid's resolution, a grid or a draw of initial states beyond
#: the address space (NumPy refuses its shape, so no size that an allocator
#: could grant lazily), and periods of 1001, 1002 and 1003 T_s, which share
#: only T_s, a grid finer than the limit (the ideal baseline's period T_s
#: must not lift it).
HOSTILE = {
    "tiny_T_s": ({"T_s": 1e-14}, "schedule time 1e-14 is not representable"),
    "huge_M": ({"M": [10**18, 3, 4]}, "cannot allocate the RK4 grid"),
    "huge_K": ({"K": 10**18}, "cannot allocate the initial states: 1 x K=10"),
    "rates_1001": ({"rates": [1001, 1002, 1003]}, "sampling times share no common micro-step"),
}

#: How each command reports a failed sampling: its exit code and the start
#: of its one stderr line.
FAILED_SAMPLING = {
    "multirate": (1, "error in stage sample: "),
    "compare": (1, "seed 0: error in stage sample: "),
    "simulate": (2, "configuration error: "),
}


@pytest.mark.parametrize(
    "case, command",
    [(case, command) for case in HOSTILE for command in FAILED_SAMPLING],
    ids=[f"{case}-{command}" for case in HOSTILE for command in FAILED_SAMPLING],
)
def test_hostile_configs_fail_in_one_line(tmp_path, capsys, case, command):
    # any exception but a MredmdError would propagate out of main: the
    # traceback the command line would print
    overrides, message = HOSTILE[case]
    cfg = write_config(tmp_path / "cfg.json", **{"K": 2, **overrides})
    out = tmp_path / "r"
    extra = ["--num-seeds", "1"] if command == "compare" else []
    start = time.perf_counter()
    code = main([command, "--config", str(cfg), *extra, "--out", str(out)])
    assert time.perf_counter() - start < 10.0
    expected_code, prefix = FAILED_SAMPLING[command]
    assert code == expected_code
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(prefix + message)
    if command == "multirate":
        (error,) = json.loads((out / "summary.json").read_text())["errors"]
        assert error["stage"] == "sample" and message in error["message"]
    elif command == "simulate":
        assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"T_s": 10**400}, "T_s must be a finite number > 0, got 1000"),
        ({"init_box": [[0, 10**400], [0, 1], [0, 1]]}, "init_box must be 3 (low, high) pairs"),
        # counts and sizes beyond sys.maxsize
        ({"K": 10**400}, f"K must be <= {sys.maxsize}, got 1000"),
        ({"M": [10**400, 3, 4]}, f"M must be <= {sys.maxsize} each, got [1000"),
        ({"rates": [1, 10**400, 3]}, f"rates must be <= {sys.maxsize} each, got [1, 1000"),
        ({"degree": 10**400}, f"degree must be <= {sys.maxsize}, got 1000"),
        ({"horizon": 10**400}, f"horizon must be <= {sys.maxsize}, got 1000"),
        ({"eval_trajectories": 10**400}, f"eval_trajectories must be <= {sys.maxsize}, got 1000"),
    ],
    ids=["T_s", "init_box", "K", "M", "rates", "degree", "horizon", "eval_trajectories"],
)
@pytest.mark.parametrize("command", ["multirate", "compare", "simulate"])
def test_ints_beyond_float_range_are_configuration_errors(
    tmp_path, capsys, overrides, message, command
):
    # json writes 10**400 as an integer literal, which json reads back as an int
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "r"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: " + message)
    assert not out.exists()


@pytest.mark.parametrize("command", ["multirate", "compare"])
def test_eval_states_beyond_the_address_space_are_a_configuration_error(
    tmp_path, capsys, monkeypatch, command
):
    # 2**62 rows pass the config's bound, but NumPy refuses the shape of
    # their draw outright; they are drawn before any sampling, and nothing
    # is written
    def forbidden(*args, **kwargs):
        raise AssertionError("the ensembles were sampled before the evaluation states")

    monkeypatch.setattr(experiments, "sample_ensembles", forbidden)
    cfg = write_config(tmp_path / "cfg.json", eval_trajectories=2**62)
    out = tmp_path / "r"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: cannot allocate the evaluation states: "
        f"eval_trajectories={2**62} requests {2**62 * 3 * 8 / 2**30:.3g} GiB"
    ]
    assert not out.exists()


def test_simulate_subcommand(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "ensemble"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert len(files) == 30
    assert files[0] == "trajectory_00000.csv"


def test_simulate_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", K=3)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(cfg), "--out", str(a)])
    main(["simulate", "--config", str(cfg), "--out", str(b)])
    for pa, pb in zip(sorted(a.iterdir()), sorted(b.iterdir())):
        assert pa.read_bytes() == pb.read_bytes()


def test_simulate_bytes_pinned(tmp_path):
    # the export is a file format other tools read, so its bytes are pinned
    cfg = write_config(tmp_path / "cfg.json", K=3)
    out = tmp_path / "ensemble"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == (
        "d946d70df01a59000bd481f336c90211cb7ad0eb9c138da344aed498618771f9"
    )


def test_simulate_exports_what_run_fits(tmp_path, monkeypatch):
    # periods of 2, 4 and 6 T_s share 2 T_s, but the ideal baseline samples
    # at T_s, so a run samples on a grid of T_s; the export must come from it
    path = write_config(tmp_path / "cfg.json", K=50, rates=[2, 4, 6])
    out = tmp_path / "ensemble"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    exported = mredmd.import_ensemble(out)
    cfg = ExperimentConfig.from_json(path)
    ((ensemble, _),) = experiments.simulate(cfg, [cfg.seed])
    assert sorted(exported.values) == sorted(ensemble.values) == [0, 1, 2]
    for comp, values in ensemble.values.items():
        assert np.array_equal(exported.values[comp], values)
    runs_pairs, reconstruct = [], hankel.reconstruct_states

    def keep(*args, **kwargs):
        runs_pairs.append(reconstruct(*args, **kwargs))
        return runs_pairs[-1]

    monkeypatch.setattr(hankel, "reconstruct_states", keep)
    operators = experiments.run(cfg).component_operators
    monkeypatch.undo()
    assert sorted(operators) == [0, 1, 2]
    # step 1 fitted on the export is the run's, bit for bit, and so are its pairs
    schedules, targets = experiments.derive_schedules(cfg), experiments._targets(cfg)
    (fitted,) = mredmd.fit_component_operators([exported], schedules, targets)
    assert list(fitted) == list(operators)
    for comp, op in operators.items():
        assert fitted[comp].schedule == op.schedule
        assert fitted[comp].k_mat.tobytes() == op.k_mat.tobytes()
        assert fitted[comp].l_complex.tobytes() == op.l_complex.tobytes()
    (expected,) = runs_pairs[0]  # the run's first reconstruction: its partial pairs
    (pairs,) = mredmd.reconstruct_states(
        [exported], schedules, [fitted], cfg.T_s, first_target=targets[0]
    )
    assert pairs.x.tobytes() == expected.x.tobytes()
    assert pairs.y.tobytes() == expected.y.tobytes()
    assert (pairs.x_estimated, pairs.y_estimated) == (expected.x_estimated, expected.y_estimated)


def _forbid_runs(monkeypatch):
    """Make any pipeline run fail the test: a refusal must come first."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the pipeline ran before the output directory was refused")

    monkeypatch.setattr(experiments, "run", forbidden)
    monkeypatch.setattr(experiments, "run_sweep", forbidden)
    monkeypatch.setattr(experiments, "simulate", forbidden)


def test_reused_out_refuses_another_report(tmp_path, capsys, monkeypatch):
    single = write_config(tmp_path / "single.json", mode="single_state", state_dim=3, rates=None)
    multi = write_config(tmp_path / "multi.json")
    out = tmp_path / "r"
    assert main(["single-state", "--config", str(single), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # the same command into the same directory overwrites its own report
    assert main(["single-state", "--config", str(single), "--out", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    capsys.readouterr()
    _forbid_runs(monkeypatch)
    assert main(["multirate", "--config", str(multi), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    stale = [
        "K_single_state.csv",
        "L_single_state.csv",
        "hankel_K_0.csv",
        "hankel_L_0.csv",
        "model_single_state.txt",
    ]
    assert f"holds files of another report: {', '.join(stale)};" in err
    # nothing was written or deleted
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("first", ["multirate", "compare"])
def test_report_and_comparison_refuse_each_other(tmp_path, capsys, monkeypatch, first):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "r"
    commands = {
        "multirate": ["multirate", "--config", str(cfg), "--out", str(out)],
        "compare": ["compare", "--config", str(cfg), "--num-seeds", "2", "--out", str(out)],
    }
    second = "compare" if first == "multirate" else "multirate"
    assert main(commands[first]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # re-running the first command into its own directory still overwrites
    assert main(commands[first]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    capsys.readouterr()
    _forbid_runs(monkeypatch)
    assert main(commands[second]) == 2
    err = capsys.readouterr().err
    if first == "compare":
        stale = ["compare.csv", "compare.json"]
    else:
        stale = sorted(before)
        assert {"summary.json", "spectrum.csv", "K_multirate.csv", "hankel_K_1.csv"} <= set(stale)
    assert f"holds files of another report: {', '.join(stale)};" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize(
    "first, second",
    [
        ("simulate", "multirate"),
        ("simulate", "compare"),
        ("multirate", "simulate"),
        ("compare", "simulate"),
    ],
)
def test_ensemble_and_report_refuse_each_other(tmp_path, capsys, monkeypatch, first, second):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "r"
    commands = {
        "multirate": ["multirate", "--config", str(cfg), "--out", str(out)],
        "compare": ["compare", "--config", str(cfg), "--num-seeds", "2", "--out", str(out)],
        "simulate": ["simulate", "--config", str(cfg), "--out", str(out)],
    }
    assert main(commands[first]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # re-running the first command into its own directory still overwrites
    assert main(commands[first]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    capsys.readouterr()
    _forbid_runs(monkeypatch)
    assert main(commands[second]) == 2
    err = capsys.readouterr().err
    if first == "simulate":
        # 30 trajectory files; a refusal lists the first 20
        stale = ", ".join(f"trajectory_{k:05d}.csv" for k in range(20)) + " and 10 more"
    else:
        stale = ", ".join(sorted(before))
    assert err == (
        f"configuration error: {out} holds files of another report: {stale}; "
        "write to a new or empty directory\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_simulate_refuses_a_directory_with_other_trajectories(tmp_path, capsys):
    out = tmp_path / "ensemble"
    first = write_config(tmp_path / "first.json", K=5)
    second = write_config(tmp_path / "second.json", K=3, seed=7)
    assert main(["simulate", "--config", str(first), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["simulate", "--config", str(first), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(second), "--out", str(out)]) == 2
    stale = "trajectory_00003.csv, trajectory_00004.csv"
    assert f"holds files of another report: {stale};" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_huge_ensemble_refusal_reads_names_only(tmp_path, monkeypatch):
    # whether a trajectory file belongs to an export of K trajectories
    # follows from its name: five-digit padding and an index below K, so
    # the check costs nothing per trajectory, whatever K
    out = tmp_path / "ensemble"
    out.mkdir()
    owned = ["trajectory_00000.csv", "trajectory_00003.csv", "trajectory_123456.csv"]
    foreign = ["trajectory_0123456.csv", "trajectory_3.csv"]
    for name in owned + foreign:
        (out / name).write_text("component,time,value\n")
    cfg = ExperimentConfig.from_json(write_config(tmp_path / "cfg.json", K=10**18))
    cfg = replace(cfg, output_dir=str(out))
    monkeypatch.setattr(experiments, "_trajectory_names", _bounded(experiments._trajectory_names))
    with pytest.raises(ConfigurationError) as info:
        experiments.refuse_foreign_output(cfg, "ensemble")
    assert f"holds files of another report: {', '.join(sorted(foreign))};" in str(info.value)
    for name in foreign:
        (out / name).unlink()
    experiments.refuse_foreign_output(cfg, "ensemble")
    # below K only
    with pytest.raises(ConfigurationError, match=r": trajectory_00003\.csv, "):
        experiments.refuse_foreign_output(replace(cfg, K=3), "ensemble")


def _file_out(tmp_path, kind):
    """A file in ``tmp_path``, a dangling link for ``kind`` "link", an output
    path, and why the writers refuse it: the path is the file, or for
    "below" lies below it; for "long" its name is over NAME_MAX, so the
    OS can neither stat it nor, for "long_below", create it below a
    missing directory, and for "nul" it holds a NUL byte."""
    afile = tmp_path / "afile"
    if kind == "link":
        afile.symlink_to(tmp_path / "missing")
    else:
        afile.write_text("not a directory\n")
    if kind in ("long", "long_below"):
        below = "missing" if kind == "long_below" else ""
        return afile, tmp_path / below / ("x" * 300), "File name too long"
    if kind == "nul":
        return afile, tmp_path / "out\0put", "embedded null byte"
    return afile, afile / "sub" if kind == "below" else afile, f"{afile} is not a directory"


def _untouched(tmp_path, afile, kind):
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json"]
    assert afile.is_symlink() if kind == "link" else afile.read_text() == "not a directory\n"


_FILE_OUTS = ["file", "below", "link", "long", "long_below", "nul"]


@pytest.mark.parametrize("kind", _FILE_OUTS)
@pytest.mark.parametrize("command", ["multirate", "compare", "simulate"])
def test_out_that_is_a_file_is_refused(tmp_path, capsys, monkeypatch, command, kind):
    cfg = write_config(tmp_path / "cfg.json")
    afile, out, reason = _file_out(tmp_path, kind)
    _forbid_runs(monkeypatch)
    extra = ["--num-seeds", "2"] if command == "compare" else []
    assert main([command, "--config", str(cfg), *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: cannot write to {out}: {reason}\n"
    _untouched(tmp_path, afile, kind)


@pytest.mark.parametrize("kind", _FILE_OUTS)
def test_writers_refuse_a_file(tmp_path, kind):
    cfg = ExperimentConfig.from_json(write_config(tmp_path / "cfg.json"))
    afile, out, reason = _file_out(tmp_path, kind)
    ((ensemble, _),) = experiments.simulate(cfg, [0])
    writes = [
        lambda: experiments.emit_report(experiments.run(cfg), out),
        lambda: experiments.emit_comparison(run_sweep(cfg, [0, 1]), out),
        lambda: experiments.export_ensemble(ensemble, out),
    ]
    for write in writes:
        with pytest.raises(ConfigurationError) as info:
            write()
        assert str(info.value) == f"cannot write to {out}: {reason}"
    _untouched(tmp_path, afile, kind)


def _bounded(names):
    """``_trajectory_names`` that fails the test when asked for many names."""

    def bounded(indices):
        indices = list(itertools.islice(indices, 2))
        assert len(indices) < 2, "the refusal built a name per trajectory"
        return names(indices)

    return bounded


def test_compare_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", K=30)
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--config", str(cfg), "--out", str(out), "--num-seeds", "2"]
    )
    assert code == 0
    data = json.loads((out / "compare.json").read_text())
    assert data["seeds"] == [0, 1]
    assert "spectrum wins" in capsys.readouterr().out


def test_missing_output_dir(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["multirate", "--config", str(cfg)]) == 2
    assert "output directory" in capsys.readouterr().err


def test_bad_config_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["multirate", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xd0\xcf\x11 not utf-8")
    assert main(["multirate", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"configuration error: {path}: invalid JSON: ")


def test_config_int_past_the_digit_limit(tmp_path, capsys):
    # json refuses to convert an integer of more than 4300 digits
    path = tmp_path / "cfg.json"
    path.write_text('{"system": "lorenz", "mode": "multirate", "K": ' + "1" * 5000 + "}")
    assert main(["multirate", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"configuration error: {path}: invalid JSON: Exceeds the limit")


@pytest.mark.parametrize(
    "kind, reason", [("missing", "No such file or directory"), ("directory", "Is a directory")]
)
@pytest.mark.parametrize("command", ["multirate", "compare", "simulate"])
def test_unreadable_config_is_one_line(tmp_path, capsys, kind, reason, command):
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    out = tmp_path / "r"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"configuration error: {path}: cannot read: {reason}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["multirate", "single-state", "compare"])
def test_constant_only_dictionary_is_one_line(tmp_path, capsys, monkeypatch, command):
    # degree 0 with the constant fits, but no state can be read out of it
    _forbid_runs(monkeypatch)
    single = {"mode": "single_state", "state_dim": 3, "rates": None}
    cfg = write_config(
        tmp_path / "cfg.json", degree=0, include_constant=True,
        **(single if command == "single-state" else {}),
    )
    out = tmp_path / "r"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        "configuration error: degree 0 leaves only the constant observable, from which "
        "no state can be read out; use degree >= 1"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["multirate", "single-state", "compare"])
def test_empty_dictionary_is_one_line(tmp_path, capsys, monkeypatch, command):
    # degree 0 without the constant leaves no observable to lift
    _forbid_runs(monkeypatch)
    single = {"mode": "single_state", "state_dim": 3, "rates": None}
    cfg = write_config(
        tmp_path / "cfg.json", degree=0, include_constant=False,
        **(single if command == "single-state" else {}),
    )
    out = tmp_path / "r"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "configuration error: degree 0 with include_constant false leaves no observable"
    assert not out.exists()


@pytest.mark.parametrize("degree", [2000, 100000])
@pytest.mark.parametrize("command", ["multirate", "single-state", "compare", "simulate"])
def test_oversized_dictionary_is_one_line(tmp_path, capsys, monkeypatch, command, degree):
    # N = C(3 + degree, 3) observables: no address space holds an (N, N)
    # matrix, so the config is refused before the dictionary is enumerated
    _forbid_runs(monkeypatch)
    single = {"mode": "single_state", "state_dim": 3, "rates": None}
    cfg = write_config(
        tmp_path / "cfg.json", degree=degree, **(single if command == "single-state" else {})
    )
    out = tmp_path / "r"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    size = math.comb(3 + degree, 3)
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: cannot allocate the Koopman matrix: degree={degree} gives "
        f"N={size} observables, and an (N, N) matrix requests {size * size * 8 / 2**30:.3g} GiB"
    ]
    assert not out.exists()


def test_unknown_config_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "system": "lorenz",
                "mode": "multirate",
                "T_s": 0.1,
                "K": 5,
                "rates": [1, 1, 1],
                "bogus": True,
            }
        )
    )
    assert main(["multirate", "--config", str(path), "--out", str(tmp_path / "r")]) == 2


def test_output_dir_from_config(tmp_path):
    out = tmp_path / "from_config"
    cfg = write_config(tmp_path / "cfg.json", K=10, output_dir=str(out))
    assert main(["multirate", "--config", str(cfg)]) == 0
    assert (out / "summary.json").exists()


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


#: A single-state sweep whose seed 0 diverges while sampling; its seeds warn
#: 164 times at 7 distinct (category, text, file, line) locations, all of
#: them NumPy's: a sweep records its own warnings in each seed's report.
DIVERGENT = dict(mode="single_state", state_dim=3, rates=None, init_box=[[-320, 320]] * 3)


def _run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(mredmd.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, timeout=300,
    )


@pytest.fixture(scope="module")
def diverging_compare(tmp_path_factory):
    """The config of the K=30 ``DIVERGENT`` sweep and its CLI run."""
    tmp_path = tmp_path_factory.mktemp("diverging")
    cfg = write_config(tmp_path / "cfg.json", **DIVERGENT)
    out = str(tmp_path / "cmp")
    return cfg, _run_cli("-m", "mredmd.cli", "compare", "--config", str(cfg), "--out", out)


def test_diverging_compare_shows_each_warning_once(diverging_compare):
    cfg, proc = diverging_compare
    assert proc.returncode == 1
    shown = re.findall(r"^(.+):(\d+): (\w+Warning): (.*)$", proc.stderr, re.MULTILINE)
    assert len(shown) == len(set(shown))
    # every distinct warning of the same sweep run in-process still appears
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_sweep(ExperimentConfig.from_json(cfg), range(10))
    distinct = {(w.filename, str(w.lineno), w.category.__name__, str(w.message)) for w in caught}
    assert len(distinct) == 7
    assert set(shown) == distinct


def test_sweep_lets_no_package_warning_out(diverging_compare):
    # every stage, the noise floor's too, records its package warnings on
    # the seed's report, so none reaches the caller
    cfg, _ = diverging_compare
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_sweep(ExperimentConfig.from_json(cfg), range(10))
    assert caught
    assert not [w for w in caught if issubclass(w.category, MredmdWarning)]


def test_warnings_show_no_source_lines(diverging_compare):
    # one line per warning: the source text that warned is not echoed, so
    # stderr does not change when that line is rewritten
    cfg, proc = diverging_compare
    assert json.loads(cfg.read_text())["K"] == 30
    lines = proc.stderr.splitlines()
    assert not [line for line in lines if line[:1].isspace()]
    warned = [line for line in lines if re.match(r"^.+:\d+: \w+Warning: ", line)]
    errors = [line for line in lines if line.startswith("seed ")]
    assert warned and errors and len(warned) + len(errors) == len(lines)
    assert len(warned) == len(set(warned))


def test_warnings_as_errors_still_raise(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", **DIVERGENT)
    out = str(tmp_path / "cmp")
    proc = _run_cli("-W", "error", "-m", "mredmd.cli", "compare", "--config", str(cfg), "--out", out)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: RuntimeWarning: overflow encountered in multiply"]


def test_warnings_as_errors_leave_a_clean_run_alone(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", K=300)
    out = str(tmp_path / "report")
    proc = _run_cli("-W", "error", "-m", "mredmd.cli", "multirate", "--config", str(cfg), "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""

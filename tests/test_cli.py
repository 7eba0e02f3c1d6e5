"""CLI smoke tests: subcommands, exit codes, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import mredmd
from mredmd import experiments
from mredmd.cli import main
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


def test_rates_without_a_fine_enough_grid_fail_to_sample(tmp_path, capsys):
    # periods of 1001, 1002 and 1003 T_s share only T_s, a grid finer than
    # the limit; the ideal baseline's period T_s must not lift that limit
    cfg = write_config(tmp_path / "cfg.json", K=2, rates=[1001, 1002, 1003])
    start = time.perf_counter()
    assert main(["multirate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert time.perf_counter() - start < 10.0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    (error,) = summary["errors"]
    assert error["stage"] == "sample"
    assert "sampling times share no common micro-step" in error["message"]
    assert "error in stage sample: sampling times share no common micro-step" in (
        capsys.readouterr().err
    )


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


def _forbid_runs(monkeypatch):
    """Make any pipeline run fail the test: a refusal must come first."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the pipeline ran before the output directory was refused")

    monkeypatch.setattr(experiments, "run", forbidden)
    monkeypatch.setattr(experiments, "run_sweep", forbidden)


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


def test_simulate_refuses_a_directory_with_other_trajectories(tmp_path, capsys):
    out = tmp_path / "ensemble"
    first = write_config(tmp_path / "first.json", K=5)
    second = write_config(tmp_path / "second.json", K=3, seed=7)
    assert main(["simulate", "--config", str(first), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["simulate", "--config", str(first), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(second), "--out", str(out)]) == 2
    assert "lacks (indices 3, 4)" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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
#: 163 times at 22 distinct (category, text, file, line) locations.
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
    assert len(distinct) == 22
    assert set(shown) == distinct


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

"""CLI smoke tests: subcommands, exit codes, determinism."""

import hashlib
import json

import pytest

from mredmd.cli import main


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

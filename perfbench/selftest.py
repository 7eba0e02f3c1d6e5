"""Tests of the benchmark itself, at a smoke size.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test collection:
they start the benchmark in child processes and take about a minute.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics computed from argument and result shapes.
COMPUTED = [
    m["name"]
    for m in BENCHMARK["per_layer"]
    if m["name"].endswith((".calls", ".flops", "_bytes", ".columns"))
    or m["name"] in ("dynamics.rk4_state_steps", "dynamics.dense_use_ratio", "dynamics.records")
]

_runs = {}


def bench(workload, trace, repeat=0):
    """Last stdout line of one smoke run, parsed (cached per arguments)."""
    key = (workload, trace, repeat)
    if key not in _runs:
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke",
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=170,
            check=True,
        )
        _runs[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _runs[key]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 4
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float)) and math.isfinite(printed["value"])
        if trace == 0:
            assert printed["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_computed_counts_repeat_exactly(workload):
    first = bench(workload, 1)["metrics"]
    second = bench(workload, 1, repeat=1)["metrics"]
    assert COMPUTED
    for name in COMPUTED:
        assert first[name]["value"] == second[name]["value"], name
    assert first["dynamics.rk4_state_steps"]["value"] > 0


def test_set_up_probe_loads_no_numpy_or_scipy_before_mredmd(tmp_path):
    # Otherwise set-up time would not include these imports of the program.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.WORKLOADS["multirate_large"].config_for(smoke=True)))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "probe", "--root", str(ROOT), "--config", str(config)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(proc.stdout.strip().splitlines()[-1])["preloaded"] == []


def test_matched_distance_agrees_with_scipy():
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 56):
        for _ in range(5):
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            b = np.round(rng.normal(size=n) + 1j * rng.normal(size=n), 1)
            cost = np.abs(np.subtract.outer(a, b))
            rows, cols = linear_sum_assignment(cost)
            assert math.isclose(
                workloads._matched_distance(list(a), list(b)), cost[rows, cols].mean(), rel_tol=1e-12
            )


def _run_op(workload, tmp_path):
    from mredmd import cli

    wl = workloads.WORKLOADS[workload]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.config_for(smoke=True)))
    seed = 12345
    out = tmp_path / "out"
    code = cli.main(wl.argv(config, seed, out))
    return wl, out, code, seed


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def test_corrupted_multirate_report_fails(tmp_path):
    wl, out, code, seed = _run_op("multirate_large", tmp_path)
    assert wl.check(out, code, seed, smoke=True).ok
    assert not wl.check(out, 1, seed, smoke=True).ok

    summary = out / "summary.json"
    pristine = summary.read_text()
    corruptions = [
        lambda d: d["errors"].append({"stage": "fit_lcm", "message": "injected"}),
        lambda d: d["mean_rmse"].update(multirate=d["mean_rmse"]["multirate"] * 1.01),
        lambda d: d["spectrum_distances"].update(multirate=d["spectrum_distances"]["lcm"] * 2),
        lambda d: d["spectrum_distances"].update(multirate=d["spectrum_distances"]["multirate"] * 0.5),
        lambda d: d.update(seed=seed + 1),
        lambda d: d["mean_rmse"].pop("lcm"),
    ]
    for corrupt in corruptions:
        summary.write_text(pristine)
        _edit_json(summary, corrupt)
        assert not wl.check(out, code, seed, smoke=True).ok

    summary.write_text(pristine[: len(pristine) // 2])
    assert not wl.check(out, code, seed, smoke=True).ok

    summary.write_text(pristine)
    prediction = out / "prediction.csv"
    lines = prediction.read_text().splitlines()
    head, *rows = lines
    fields = rows[0].split(",")
    fields[-1] = repr(float(fields[-1]) + 0.5)
    prediction.write_text("\n".join([head, ",".join(fields), *rows[1:]]) + "\n")
    assert not wl.check(out, code, seed, smoke=True).ok


def test_corrupted_sweep_report_fails(tmp_path):
    wl, out, code, seed = _run_op("single_state_sweep", tmp_path)
    check = wl.check(out, code, seed, smoke=True)
    assert check.ok and check.scored == wl.num_seeds
    assert workloads.pooled_win_check([check]) == ""

    compare = out / "compare.json"
    pristine = compare.read_text()
    corruptions = [
        lambda d: d["rows"][3].update(n_errors=1),
        lambda d: d.update(seeds_scored=wl.num_seeds - 1),
        lambda d: d["rows"][0]["spectrum_distances"].pop("single_state"),
        lambda d: d.update(seeds=[s + 1 for s in d["seeds"]]),
    ]
    for corrupt in corruptions:
        compare.write_text(pristine)
        _edit_json(compare, corrupt)
        assert not wl.check(out, code, seed, smoke=True).ok

    compare.write_text(pristine)
    _edit_json(compare, lambda d: d.update(rmse_wins=0))
    lost = wl.check(out, code, seed, smoke=True)
    assert "criterion 8" in workloads.pooled_win_check([check, lost, lost])

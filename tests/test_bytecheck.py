"""The --rtol comparison of tools/bytecheck.py, on report file contents."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bytecheck.py"
_SPEC = importlib.util.spec_from_file_location("bytecheck", _PATH)
bytecheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bytecheck)


def diff(path, a, b):
    return bytecheck.numeric_difference(path, a.encode(), b.encode())


CSV = "method,index,real,imag\nmultirate,0,-0.5,1.25e-08\nideal,1,2.0,nan\n"


def test_csv_numbers_that_moved_give_their_normwise_difference():
    moved = CSV.replace("-0.5,", "-0.5000000000000001,")
    assert diff("spectrum.csv", CSV, moved) == pytest.approx(1e-16 / (0.25 + 4.0) ** 0.5, rel=0.2)
    assert diff("spectrum.csv", CSV, CSV) == 0.0


@pytest.mark.parametrize(
    "changed",
    [
        CSV.replace("multirate,", "lcm,"),  # a method name
        CSV.replace(",0,", ",3,"),  # an integer cell
        CSV.replace("nan", "0.0"),  # nan is text, not a number
        CSV + "lcm,2,1.0,0.0\n",  # one more row
        CSV.replace("2.0,", "2.0,1.0,"),  # one more cell
        CSV.replace("\n", "\r\n"),  # line endings
    ],
)
def test_csv_text_must_match(changed):
    assert diff("spectrum.csv", CSV, changed) is None


def test_model_manifest_numbers_compare_as_numbers():
    text = "step: 0.1\nimag_residual: 3.141592653589793\ndictionary:\nx0^2\n"
    moved = text.replace("3.141592653589793", "3.1415926535897936")
    assert 0.0 < diff("model_lcm.txt", text, moved) < 1e-15
    assert diff("model_lcm.txt", text, text.replace("x0^2", "x1^2")) is None


SUMMARY = {
    "seed": 3,
    "spectrum_distances": {"multirate": 0.012, "lcm": 0.5},
    "mean_rmse": {"multirate": float("nan")},
    "warnings": [{"stage": "fit_lcm", "message": "imaginary residual 3.142e+00"}],
    "errors": [],
}


def dumps(summary):
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def test_summary_float_leaves_compare_normwise():
    moved = {**SUMMARY, "spectrum_distances": {"multirate": 0.012000000000000002, "lcm": 0.5}}
    # about 1.7e-18 over the norm of (0.012, 0.5); nan and the ints are not numbers here
    assert 0.0 < diff("summary.json", dumps(SUMMARY), dumps(moved)) < 1e-17


@pytest.mark.parametrize(
    "changed",
    [
        {**SUMMARY, "warnings": [{"stage": "fit_lcm", "message": "imaginary residual 3.141e+00"}]},
        {**SUMMARY, "errors": [{"stage": "sample", "message": "diverged"}]},
        {**SUMMARY, "seed": 4},
        {**SUMMARY, "mean_rmse": {"multirate": 1.0}},
        {**SUMMARY, "spectrum_distances": {"multirate": 0.012}},
    ],
)
def test_summary_structure_warnings_and_errors_must_match(changed):
    assert diff("summary.json", dumps(SUMMARY), dumps(changed)) is None


def test_differences_use_rtol_and_keep_streams_exact():
    run = (0, "out\n", "", {"a.csv": b"x,1.0\n"})
    moved = (0, "out\n", "", {"a.csv": b"x,1.0000000000000002\n"})
    assert bytecheck._differences("cmd", run, moved) == (["cmd: a.csv differs"], [])
    diffs, notes = bytecheck._differences("cmd", run, moved, rtol=1e-12)
    assert diffs == [] and notes == ["cmd: a.csv within rtol, differs by 2.22e-16"]
    diffs, _ = bytecheck._differences("cmd", run, moved, rtol=1e-17)
    assert diffs == ["cmd: a.csv differs by 2.22e-16 > rtol 1e-17"]
    stderr = (0, "out\n", "warning\n", run[3])
    diffs, _ = bytecheck._differences("cmd", run, stderr, rtol=1.0)
    assert diffs == ["cmd: stderr differs from line 1 (0 vs 1 lines)"]

"""The README's Python example runs as written, and the names it cites exist."""

import importlib.util
import re
from pathlib import Path

import mredmd

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)


def test_readme_python_block_runs(capsys):
    (block,) = python_blocks()
    assert "K=300" in block
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert "(300, 4)" in out  # ensemble.values[1].shape
    assert "(3, 300) (False, False, False)" in out  # truth.x.shape, truth.x_estimated
    assert "(2, 10, 3)" in out  # batched predict


def test_readme_names_resolve():
    names = set(re.findall(r"\bmredmd\.(\w+)", README.read_text()))
    assert {"fit_models", "generator_spectra", "hankel"} <= names
    unresolved = [
        name
        for name in sorted(names)
        if not hasattr(mredmd, name) and importlib.util.find_spec(f"mredmd.{name}") is None
    ]
    assert unresolved == []

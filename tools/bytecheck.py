"""Byte check of two source trees: the same CLI commands must write the same
report bytes, exit with the same codes and print the same text.

Usage::

    python tools/bytecheck.py [--rtol R] PARENT_SRC CHANGE_SRC

Each argument is a source tree: a directory that holds the ``mredmd``
package, or a checkout whose ``src/`` holds it. Every command of
``COMMANDS`` runs once per tree, each in a fresh interpreter
(``python -m mredmd.cli``) with ``OPENBLAS_NUM_THREADS=1`` and
``PYTHONDONTWRITEBYTECODE=1``, its address space capped at 4 GiB so that
a tree which enumerates an oversized dictionary fails with a
``MemoryError`` instead of taking the machine's memory; the config files
live in a temporary directory. Every written file is compared byte for byte, and so is every
exit code; stdout and stderr are compared after each tree's output
directory is mapped to ``<OUT>`` and each ``.../mredmd/<file>.py:<line>``
to ``mredmd/<file>.py:<LINE>``. One summary line is printed, then each
difference; the exit code is 1 on any difference. This script does not
import ``mredmd``.

With ``--rtol R`` a report file whose bytes differ still passes if only its
numbers moved, by at most R normwise: ``||b - a||_2 <= R ||a||_2`` over the
file's float values. In a CSV or text file the text around the float
literals (cells, integers, ``nan``, names, line breaks) must be identical;
a JSON file must have the same structure, the same non-float leaves and
identical ``warnings`` and ``errors``. Each such file is printed with its
difference. Exit codes, stdout and stderr are still compared exactly.
"""

import argparse
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

_MULTIRATE = {"system": "lorenz", "mode": "multirate", "T_s": 0.1, "rates": [1, 4, 3]}
_SINGLE = {"system": "lorenz", "mode": "single_state", "T_s": 0.1, "state_dim": 3}
_SINGLE_FINE = {
    **_SINGLE, "T_s": 0.05, "K": 40, "init_box": [[0.5, 1.0], [-2.0, -1.0], [3.0, 4.0]]
}

#: Configs that are not a file: ``--config`` names no file, or a directory.
_MISSING, _DIRECTORY = "missing", "directory"

#: (name, subcommand, config, extra arguments); the expected exit code is
#: noted where it is not 0.
COMMANDS = [
    *[
        (f"multirate_k300_s{seed}", "multirate", {**_MULTIRATE, "K": 300}, ["--seed", str(seed)])
        for seed in range(3)
    ],
    (
        "multirate_large",
        "multirate",
        {**_MULTIRATE, "K": 10000, "degree": 2, "eval_trajectories": 50},
        ["--seed", "0"],
    ),
    *[
        (f"multirate_k10_m12_s{seed}", "multirate", {**_MULTIRATE, "K": 10, "M": [12, 11, 11]},
         ["--seed", str(seed)])
        for seed in (0, 3)
    ],
    ("multirate_k300_m211", "multirate", {**_MULTIRATE, "K": 300, "M": [2, 1, 1]}, []),  # 1
    # the only command that estimates from well-conditioned delay stacks
    # taller than 4 rows (8 and 10)
    ("multirate_k300_m8_10", "multirate", {**_MULTIRATE, "K": 300, "M": [12, 8, 10]}, []),
    ("multirate_k5", "multirate", {**_MULTIRATE, "K": 5}, []),  # 1
    ("multirate_rates246", "multirate", {**_MULTIRATE, "K": 200, "rates": [2, 4, 6]}, []),
    # lcm(p) = 1: the lcm baseline fits at T_s, and its model is still
    # re-expressed at T_s through its generator
    ("multirate_rates111", "multirate", {**_MULTIRATE, "K": 300, "rates": [1, 1, 1]}, []),
    *[
        (f"single_k100_s{seed}", "single-state", {**_SINGLE, "K": 100}, ["--seed", str(seed)])
        for seed in range(2)
    ],
    ("single_k5", "single-state", {**_SINGLE, "K": 5}, []),  # 1
    ("single_fine", "single-state", _SINGLE_FINE, []),
    # 0.07 / 10 is not the float of the grid's micro-step 7/1000, so the
    # evaluation truths take their own pass
    ("single_ts007", "single-state", {**_SINGLE, "T_s": 0.07, "K": 100}, []),
    ("compare_single_k100", "compare", {**_SINGLE, "K": 100}, ["--num-seeds", "10"]),
    ("compare_multirate_k300", "compare", {**_MULTIRATE, "K": 300}, ["--num-seeds", "10"]),
    # groups of 4, 4 and 2 seeds whose joint lcm fits run clean, so they are written
    ("compare_multirate_k1000", "compare", {**_MULTIRATE, "K": 1000}, ["--num-seeds", "10"]),
    # the lcm baseline refused for every seed of a group
    (
        "compare_multirate_m211",
        "compare",
        {**_MULTIRATE, "K": 300, "M": [2, 1, 1]},
        ["--num-seeds", "4"],
    ),  # 1
    (
        "compare_multirate_k10_m12",
        "compare",
        {**_MULTIRATE, "K": 10, "M": [12, 11, 11]},
        ["--num-seeds", "10"],
    ),
    (
        "compare_single_diverging",
        "compare",
        {**_SINGLE, "K": 30, "init_box": [[-320.0, 320.0]] * 3},
        ["--num-seeds", "10"],
    ),  # 1
    # seeds 0, 1, 4 and 9 fail only in stage evaluate: their evaluation
    # truths diverge, their samples do not
    (
        "compare_single_eval_diverging",
        "compare",
        {**_SINGLE, "K": 12, "eval_trajectories": 40, "init_box": [[-330.0, 330.0]] * 3},
        ["--num-seeds", "10"],
    ),  # 1
    (
        "compare_multirate_eval_diverging",
        "compare",
        {**_MULTIRATE, "K": 12, "eval_trajectories": 40, "init_box": [[-330.0, 330.0]] * 3},
        ["--num-seeds", "10"],
    ),  # 1
    # seeds 4, 6 and 7 fail only in stage noise_floor
    (
        "compare_single_floor_diverging",
        "compare",
        {**_SINGLE, "K": 12, "eval_trajectories": 1, "init_box": [[-325.0, 325.0]] * 3},
        ["--num-seeds", "10"],
    ),  # 1
    # the sampling stage's divergence message and the field's warning lines,
    # outside a sweep
    (
        "multirate_diverging",
        "multirate",
        {**_MULTIRATE, "K": 30, "init_box": [[-320.0, 320.0]] * 3},
        [],
    ),  # 1
    ("compare_single_fine", "compare", _SINGLE_FINE, ["--num-seeds", "10"]),
    ("compare_single_k5", "compare", {**_SINGLE, "K": 5}, ["--num-seeds", "4"]),  # 1
    # component 0 of seed 1 warns, and both EDMD fits of that seed fail
    ("single_k6_m4_s1", "single-state", {**_SINGLE, "K": 6, "M": [4, 4, 4]}, ["--seed", "1"]),  # 1
    # the only single-state command that estimates from delay stacks taller
    # than 2 rows and runs clean
    ("single_k100_m6", "single-state", {**_SINGLE, "K": 100, "M": [6, 6, 6]}, []),
    # seed 1 alone warns in the group
    (
        "compare_single_k6_m4",
        "compare",
        {**_SINGLE, "K": 6, "M": [4, 4, 4]},
        ["--num-seeds", "10"],
    ),
    # seeds 3 and 8 warn a negative eigenvalue and an imaginary residual in
    # the group's joint EDMD fit, the warnings whose stacked form is not
    # that of one fit, so the stage runs again seed by seed
    (
        "compare_single_k10_m3",
        "compare",
        {**_SINGLE, "K": 10, "M": [3, 3, 3]},
        ["--num-seeds", "10"],
    ),
    # seed 8 of that sweep alone: 4 warnings in its summary
    ("single_k10_m3_s8", "single-state", {**_SINGLE, "K": 10, "M": [3, 3, 3]}, ["--seed", "8"]),
    # degree 3 and 5: the only commands that lift a power above 2; degree 5
    # lifts 56 observables, whose order the enumeration fixes
    ("multirate_k300_deg3", "multirate", {**_MULTIRATE, "K": 300, "degree": 3}, []),
    ("multirate_k300_deg5", "multirate", {**_MULTIRATE, "K": 300, "degree": 5}, []),
    # the only command that predicts by rollout; every other one re-lifts
    (
        "multirate_k300_rollout",
        "multirate",
        {**_MULTIRATE, "K": 300, "prediction_mode": "rollout"},
        [],
    ),
    (
        "compare_single_k100_deg3",
        "compare",
        {**_SINGLE, "K": 100, "degree": 3},
        ["--num-seeds", "10"],
    ),
    ("simulate_k300", "simulate", {**_MULTIRATE, "K": 300}, []),
    ("simulate_single_k100", "simulate", {**_SINGLE, "K": 100}, []),
    ("simulate_rates246", "simulate", {**_MULTIRATE, "K": 200, "rates": [2, 4, 6]}, []),
    # configs no grid can sample: a T_s below the grid's resolution, and an
    # RK4 grid whose shape NumPy refuses outright
    ("multirate_tiny_ts", "multirate", {**_MULTIRATE, "K": 2, "T_s": 1e-14}, []),  # 1
    # a T_s that is a JSON integer beyond the float range
    ("multirate_huge_ts", "multirate", {**_MULTIRATE, "K": 2, "T_s": 10**400}, []),  # 2
    ("simulate_huge_m", "simulate", {**_MULTIRATE, "K": 2, "M": [10**18, 3, 4]}, []),  # 2
    # a count beyond sys.maxsize, and evaluation states whose shape NumPy
    # refuses outright
    ("multirate_huge_degree", "multirate", {**_MULTIRATE, "K": 30, "degree": 10**400}, []),  # 2
    (
        "multirate_huge_eval",
        "multirate",
        {**_MULTIRATE, "K": 30, "eval_trajectories": 2**62},
        [],
    ),  # 2
    # a dictionary with no observable left
    (
        "multirate_empty_dictionary",
        "multirate",
        {**_MULTIRATE, "K": 30, "degree": 0, "include_constant": False},
        [],
    ),  # 2
    # a dictionary of the constant alone, from which no state can be read out
    ("multirate_degree0_constant", "multirate", {**_MULTIRATE, "K": 30, "degree": 0}, []),  # 2
    # a dictionary whose (N, N) Koopman matrix no address space holds
    ("multirate_huge_dictionary", "multirate", {**_MULTIRATE, "K": 30, "degree": 100000}, []),  # 2
    # an initial-state draw whose shape NumPy refuses outright
    ("multirate_huge_k", "multirate", {**_MULTIRATE, "K": 10**18}, []),  # 1
    # a --config that names no file, and one that names a directory
    ("multirate_missing_config", "multirate", _MISSING, []),  # 2
    ("compare_config_directory", "compare", _DIRECTORY, []),  # 2
]

#: Address space of each command's interpreter, in bytes.
_ADDRESS_SPACE = 4 << 30

_SOURCE_LINE = re.compile(r"[^\s\"']*/mredmd/(\w+)\.py:\d+")

#: A float literal as ``repr(float)`` writes it: with a fraction or an
#: exponent, so that integer cells and indices stay part of the text.
_FLOAT = re.compile(
    r"(?<![\w.])-?(?:\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)(?![\w.])"
)


def _package_root(tree):
    tree = Path(tree).resolve()
    for root in (tree, tree / "src"):
        if (root / "mredmd" / "__init__.py").is_file():
            return root
    raise SystemExit(f"bytecheck: no mredmd package in {tree} or {tree / 'src'}")


def _cap_address_space():
    """Lower the soft address-space limit to ``_ADDRESS_SPACE``, or to the
    hard limit where that is lower."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = _ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(_ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _run(root, out_root, config_dir, command):
    """Run one command against the package under ``root``; returns its exit
    code, mapped stdout and stderr, and {relative path: bytes} of what it wrote."""
    name, subcommand, _, extra = command
    out = out_root / name
    argv = [subcommand, "--config", str(config_dir / f"{name}.json"), *extra, "--out", str(out)]
    env = {
        **os.environ,
        "PYTHONPATH": str(root),
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "mredmd.cli", *argv],
        env=env,
        cwd=out_root,
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
    )

    def mapped(text):
        return _SOURCE_LINE.sub(r"mredmd/\1.py:<LINE>", text.replace(str(out), "<OUT>"))

    files = {}
    if out.is_dir():
        files = {
            str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
    return proc.returncode, mapped(proc.stdout), mapped(proc.stderr), files


def _differences(name, parent, change, rtol=None):
    """Differences of one command's two runs, and notes on files that
    differ only within ``rtol``."""
    code_a, out_a, err_a, files_a = parent
    code_b, out_b, err_b, files_b = change
    diffs, notes = [], []
    if code_a != code_b:
        diffs.append(f"{name}: exit code {code_a} != {code_b}")
    for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
        if a != b:
            lines_a, lines_b = a.splitlines(), b.splitlines()
            first = next(
                (i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
                min(len(lines_a), len(lines_b)),
            )
            diffs.append(
                f"{name}: {stream} differs from line {first + 1} "
                f"({len(lines_a)} vs {len(lines_b)} lines)"
            )
    for path in sorted(set(files_a) | set(files_b)):
        if path not in files_b:
            diffs.append(f"{name}: {path} written by the parent only")
        elif path not in files_a:
            diffs.append(f"{name}: {path} written by the change only")
        elif files_a[path] != files_b[path]:
            moved = None if rtol is None else numeric_difference(path, files_a[path], files_b[path])
            if moved is None:
                diffs.append(f"{name}: {path} differs")
            elif moved > rtol:
                diffs.append(f"{name}: {path} differs by {moved:.3g} > rtol {rtol:g}")
            else:
                notes.append(f"{name}: {path} within rtol, differs by {moved:.3g}")
    return diffs, notes


def _json_floats(a, b, key=None):
    """Float leaves of two JSON values, paired; None if anything else differs."""
    if key in ("warnings", "errors") or type(a) is not type(b):
        return [] if a == b else None
    if isinstance(a, float) and math.isfinite(a) and math.isfinite(b):
        return [(a, b)]
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return None
        pairs = [_json_floats(a[k], b[k], k) for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return None
        pairs = [_json_floats(x, y) for x, y in zip(a, b)]
    else:
        return [] if repr(a) == repr(b) else None
    return None if None in pairs else [pair for sub in pairs for pair in sub]


def _text_floats(a, b):
    """Float literals of two texts, paired; None if the text around them differs."""
    if _FLOAT.split(a) != _FLOAT.split(b):
        return None
    return [(float(x), float(y)) for x, y in zip(_FLOAT.findall(a), _FLOAT.findall(b))]


def numeric_difference(path, a, b):
    """``||b - a||_2 / ||a||_2`` over the float values of two versions of a
    report file, or None if they differ in anything but those values."""
    try:
        text_a, text_b = a.decode(), b.decode()
        if path.endswith(".json"):
            pairs = _json_floats(json.loads(text_a), json.loads(text_b))
        else:
            pairs = _text_floats(text_a, text_b)
    except ValueError:
        return None
    if pairs is None:
        return None
    diff = math.sqrt(sum((y - x) ** 2 for x, y in pairs))
    scale = math.sqrt(sum(x * x for x, _ in pairs))
    return diff / scale if scale else (0.0 if diff == 0.0 else math.inf)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bytecheck", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent source tree")
    parser.add_argument("change", help="changed source tree")
    parser.add_argument(
        "--rtol",
        type=float,
        default=None,
        help="let the float values of a report file differ by this much, normwise",
    )
    args = parser.parse_args(argv)
    if args.rtol is not None and not args.rtol >= 0.0:
        parser.error(f"--rtol must be >= 0, got {args.rtol}")
    roots = [_package_root(tree) for tree in (args.parent, args.change)]
    diffs, notes, n_files = [], [], 0
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tmp = Path(tmp)
        config_dir = tmp / "configs"
        config_dir.mkdir()
        out_roots = [tmp / "parent", tmp / "change"]
        for out_root in out_roots:
            out_root.mkdir()
        for command in COMMANDS:
            config_path = config_dir / f"{command[0]}.json"
            if command[2] == _DIRECTORY:
                config_path.mkdir()
            elif command[2] != _MISSING:
                config_path.write_text(json.dumps(command[2]))
            parent, change = (
                _run(root, out_root, config_dir, command)
                for root, out_root in zip(roots, out_roots)
            )
            n_files += len(parent[3])
            command_diffs, command_notes = _differences(command[0], parent, change, args.rtol)
            diffs += command_diffs
            notes += command_notes
    within = f", {len(notes)} within rtol {args.rtol:g}" if args.rtol is not None else ""
    print(
        f"bytecheck: {len(COMMANDS)} commands, {n_files} report files of the parent, "
        f"{len(diffs)} differences{within}"
    )
    for line in diffs + notes:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

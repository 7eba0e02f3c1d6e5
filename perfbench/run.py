"""Benchmark of the mredmd CLI: one workload run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

The program under test is ``src/mredmd`` beside this directory; nothing is
built. Each run starts fresh interpreters (``worker.py``): with ``--trace 0``
a few set-up probes and one workload child, with ``--trace 1`` only the
workload child. The child drives the user path in-process, ``cli.main`` ->
``experiments.run``/``run_sweep`` -> ``emit_report``/``emit_comparison``,
as one closed-loop client: one op at a time, no threads. Every op's report
is checked (see ``workloads.py``); an op that fails a check counts in
``failed`` and in no timing.

Every op time and set-up time is given at a reference machine speed: a
fixed speed probe (``worker.speed_probe``) runs next to each op and in each
set-up probe, and a wall time is multiplied by ``REFERENCE_PROBE_S`` over
the probe's time next to it. The wall times are kept in the full record.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (``tracer.PER_LAYER``) plus ``tracing.overhead_s``, the traced minus
the untraced median op time. The last line of standard output is the JSON
result; the line before it records the environment. Spans of a traced run
go to ``.perfbench/spans-<workload>.npz`` and the full result of each run to
``.perfbench/result-<workload>-trace<k>.json``. ``--smoke`` shrinks ``K``
and the set-up probes for the benchmark's own tests.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: End-to-end metrics and their units.
END_TO_END = {
    "traj_per_s": "traj/s",
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "spectrum_dist": "1",
    "mean_rmse": "1",
}

#: Fresh interpreters started only to time set-up, besides the workload
#: child; half run before it and half after, to spread them over the run.
SETUP_PROBES = 6

#: The client is one thread, BLAS included. With two BLAS threads on two
#: cores the threads spin on small matrices: degree-5 multirate ops (56x56
#: kernels) ran 30% slower and single ops varied by up to 40%.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Time of ``worker.speed_probe`` at the reference machine speed. Timings
#: are reported as ``wall time * REFERENCE_PROBE_S / probe time`` next to
#: them. The 2-vCPU machine the README's figures come from runs the probe in
#: 29-33 ms at full speed, and in about 45 ms in the spells, up to a minute
#: long, when it runs 1.5x slower. The program slows with it, so its wall
#: times spread between runs by 0.2-0.33 of their median; their ratios to the
#: probe spread by about 0.06.
REFERENCE_PROBE_S = 0.030

#: A run must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run could not produce a result."""


def _spawn(argv, deadline):
    """Run the worker to completion; returns (set-up seconds, its JSON)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv],
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
            cwd=ROOT,
            env={**os.environ, **CHILD_ENV},
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv[0]} did not finish in {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {argv[0]} exited with code {proc.returncode}")
    data = json.loads(lines[-1])
    if data["preloaded"]:
        raise BenchError(f"worker loaded {data['preloaded']} before mredmd; set-up would read low")
    return data["ready"] - start, data


def measure(args):
    """Run one workload; returns the result record (see module docstring)."""
    deadline = time.monotonic() + DEADLINE_S
    workload = workloads.WORKLOADS[args.workload]
    if not (ROOT / "src" / "mredmd" / "__init__.py").is_file():
        raise BenchError(f"no mredmd sources under {ROOT / 'src'}")
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(workload.config_for(args.smoke)))
        common = ["--root", str(ROOT), "--config", str(config)]
        probes = 0 if args.trace else 2 if args.smoke else SETUP_PROBES
        spawned = [_spawn(["probe", *common], deadline) for _ in range(probes // 2)]
        run_argv = [
            "run", *common,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--work", str(work),
            "--spans", str(base / f"spans-{args.workload}.npz"),
        ]
        if args.smoke:
            run_argv.append("--smoke")
        spawned.append(_spawn(run_argv, deadline))
        child = spawned[-1][1]
        spawned += [_spawn(["probe", *common], deadline) for _ in range(probes - probes // 2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # The child's first probe is also its "speed_s".
    speeds = [data["speed_s"] for _, data in spawned] + child["speed_probes_s"][1:]
    setups = [setup * REFERENCE_PROBE_S / data["speed_s"] for setup, data in spawned]
    ops = child["ops"]
    for op in ops:
        op["reference_s"] = op["s"] * REFERENCE_PROBE_S / op["speed_s"]
    timed = [op for op in ops if op["index"] > 0 and op["ok"]]
    untraced = [op["reference_s"] for op in timed if not op["traced"]]
    if not untraced:
        reasons = sorted({op["reason"] for op in ops if not op["ok"]})
        raise BenchError(f"no operation passed its checks: {reasons}")
    passed = [op for op in ops if op["ok"]]
    op_s_p50 = statistics.median(untraced)
    failed = sum(not op["ok"] for op in ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": child["env"],
        "attempted": len(ops),
        "failed": failed,
        "failures": [op["reason"] for op in ops if not op["ok"]],
        "ops": ops,
        "setup_samples_s": [setup for setup, _ in spawned],
        "speed_probes_s": speeds,
        "info": {
            "fail_frac": failed / len(ops),
            "timed_ops": len(untraced),
            "warmup_ratio": ops[0]["reference_s"] / op_s_p50,
            "op_s_p50_wall": statistics.median(op["s"] for op in timed if not op["traced"]),
            "setup_s_wall": statistics.median(setup for setup, _ in spawned),
            "speed_probe_min_s": min(speeds),
            "speed_probe_p50_s": statistics.median(speeds),
        },
    }
    if args.trace:
        traced = [op["reference_s"] for op in timed if op["traced"]]
        if not traced:
            raise BenchError("no traced operation passed its checks")
        per_layer = dict(child["per_layer"])
        per_layer["tracing.overhead_s"] = statistics.median(traced) - op_s_p50
        record["info"]["traced_ops"] = len(traced)
        traced_wall = statistics.median(op["s"] for op in timed if op["traced"])
        record["info"]["layer_share"] = {
            layer: per_layer[f"{layer}.self_s"] / traced_wall for layer in tracer.LAYERS
        }
        record["metrics"] = per_layer
    else:
        record["metrics"] = {
            "traj_per_s": workload.trajectories_per_op(args.smoke) * len(untraced) / sum(untraced),
            "op_s_p50": op_s_p50,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
            "spectrum_dist": statistics.median(op["spectrum_dist"] for op in passed),
            "mean_rmse": statistics.median(op["mean_rmse"] for op in passed),
        }
    (base / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    return record


def units():
    """Unit of every metric either mode prints."""
    out = dict(END_TO_END)
    out.update({name: unit for name, (unit, _) in tracer.PER_LAYER.items()})
    out["tracing.overhead_s"] = "s"
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="small K, for the self-tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    # Children inherit one CPU. Left free to move between the two cores of a
    # small shared machine, the same op alternated between two speeds 1.5x
    # apart; pinned, its spread fell by about 3x.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    unit = units()
    info = record["info"]
    print(
        f"{record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['attempted']} ops attempted (1 warm-up), {record['failed']} failed, "
        f"fail_frac {info['fail_frac']:.3g}, {info['timed_ops']} timed untraced ops"
    )
    for reason in record["failures"]:
        print(f"  failed: {reason}")
    for name, value in record["metrics"].items():
        note = ""
        if name == "op_s_p50":
            note = f"  (wall time {info['op_s_p50_wall']:.4g} s)"
        elif name == "setup_s":
            note = (
                f"  (wall time {info['setup_s_wall']:.4g} s;"
                f" warm-up op took {info['warmup_ratio']:.3f}x op_s_p50)"
            )
        print(f"  {name} = {value:.6g} {unit[name]}{note}")
    if "layer_share" in info:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in info["layer_share"].items())
        print(f"  self time share of the traced op: {shares}")
    print(json.dumps({"env": record["env"]}, sort_keys=True))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": unit[name]} for name, value in record["metrics"].items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

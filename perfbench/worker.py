"""Child process of the benchmark: one set-up probe or one workload run.

    python3 perfbench/worker.py probe --root ROOT --config CONFIG.json
    python3 perfbench/worker.py run --root ROOT --config CONFIG.json \\
        --workload NAME --seed N --seconds S --trace 0|1 --work DIR \\
        [--spans FILE.npz] [--smoke]

Both modes first import ``mredmd`` from ``ROOT/src`` and parse the CLI
arguments and config the way ``mredmd.cli.main`` does, then note
``time.monotonic()`` (a system-wide clock on Linux, so the parent can
subtract its spawn time). The harness modules, which load NumPy, are
imported only after that, so that set-up time is the program's own. NumPy
and SciPy modules loaded before ``mredmd`` are reported as ``preloaded``,
and the parent refuses a run that has any. Both modes then time one
:func:`speed_probe`. ``probe`` stops there. ``run`` then makes one untimed
warm-up op and runs ops back to back, one at a time, until ``--seconds``
have passed, with a speed probe after each op. With ``--trace 1`` ops
alternate between untraced and traced, so the tracing overhead is measured
under the same conditions. The last line of standard output is one JSON object for the parent.
"""

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

#: Top-level packages the harness must not load before ``ready`` is noted:
#: an import of theirs made by the harness would hide the cost of the same
#: import in ``mredmd``.
_PROGRAM_DEPS = ("numpy", "scipy")


def _import_mredmd(root, config):
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import mredmd
    from mredmd import cli, experiments

    if Path(mredmd.__file__).resolve().parent.parent != src:
        raise SystemExit(f"mredmd imported from {mredmd.__file__}, not from {src}")
    # What cli.main does before it runs a pipeline; every subcommand parses
    # its arguments and config the same way.
    cli.build_parser().parse_args(["compare", "--config", config])
    experiments.ExperimentConfig.from_json(config)
    return cli


def speed_probe():
    """Seconds taken by a fixed task that uses nothing of ``mredmd``: a pure
    Python loop, small matrix products and dict updates, about 30 ms.

    The machine's speed drifts (see ``README.md``): for up to a minute at a
    time it can run 1.5x slower, and then the program and this task slow
    together. The parent scales each timing by the probe time next to it.
    """
    import numpy as np

    a = np.random.default_rng(0).normal(size=(64, 64))
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(200):
        a @ a
    table = {}
    for i in range(100_000):
        table[i % 1000] = i
    return time.perf_counter() - start


def _environment(seed):
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(ctypes.CDLL(lib), symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                threads = func()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def _run(args, cli):
    # Harness modules load numpy; they are imported after ``ready``.
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seeds = workloads.op_seeds(args.workload, args.seed)
    work = Path(args.work)
    tracer = tracing.Tracer() if args.trace else None
    ops, checks = [], []
    # One speed probe before the warm-up op and one after every op, all
    # outside the op timings; an op's speed is the mean of its two probes.
    speeds = [args.speed_s]

    def one_op(index, traced):
        op_seed = next(seeds)
        out = work / f"op{index}"
        argv = workload.argv(args.config, op_seed, out)
        # Start every op from the same heap state, so that a collection owed
        # to the previous op's garbage does not land in this op's timing.
        gc.collect()
        if traced:
            tracer.op = index
            tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                elapsed = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        check = workload.check(out, code, op_seed, args.smoke)
        shutil.rmtree(out, ignore_errors=True)
        checks.append(check)
        gc.collect()
        speeds.append(speed_probe())
        ops.append(
            {
                "index": index,
                "seed": op_seed,
                "s": elapsed,
                "traced": traced,
                "ok": check.ok,
                "reason": check.reason,
                "spectrum_dist": check.spectrum_dist,
                "mean_rmse": check.mean_rmse,
                "speed_s": (speeds[-2] + speeds[-1]) / 2,
            }
        )

    one_op(0, False)  # warm-up, untimed
    min_ops = 4 if args.trace else 3
    begin = time.perf_counter()
    index = 1
    while index <= min_ops or time.perf_counter() - begin < args.seconds:
        one_op(index, bool(args.trace) and index % 2 == 0)
        index += 1

    pooled = workloads.pooled_win_check(checks)
    if pooled:
        for op in ops:
            op.update(ok=False, reason=op["reason"] or pooled)
    result = {
        "env": _environment(args.seed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "speed_probes_s": speeds,
    }
    if tracer is not None:
        per_op = tracing.layer_metrics(tracer)
        result["per_layer"] = {
            name: statistics.median(values[name] for values in per_op.values())
            for name in tracing.PER_LAYER
        }
        tracer.save(args.spans)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work")
    parser.add_argument("--spans", help="where a traced run writes its spans (.npz)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    preloaded = sorted(
        name for name in sys.modules if name.split(".")[0] in _PROGRAM_DEPS
    )
    cli = _import_mredmd(args.root, args.config)
    ready = time.monotonic()
    args.speed_s = speed_probe()
    result = {"ready": ready, "preloaded": preloaded, "speed_s": args.speed_s}
    if args.mode == "run":
        result.update(_run(args, cli))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands
-----------
multirate     Run the multirate pipeline from a JSON config and emit a report.
single-state  Run the single-state pipeline.
simulate      Generate a sampled ensemble and export it as per-trajectory CSVs.
compare       Run the configured pipeline over a range of seeds and tabulate
              method comparisons.

Exit codes: 0 on success, 1 when a pipeline stage failed (the partial report
is still written) or a warning was raised as an error, 2 on configuration
errors.
"""

import argparse
import sys
import warnings
from dataclasses import replace

from . import experiments
from .dynamics import export_ensemble, sample_ensemble
from .errors import ConfigurationError, MredmdError


def _add_common(parser):
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the config output directory")


def _load_config(args, mode=None):
    cfg = experiments.ExperimentConfig.from_json(args.config)
    if mode is not None and cfg.mode != mode:
        raise ConfigurationError(
            f"config mode is {cfg.mode!r} but the {mode.replace('_', '-')} "
            "subcommand was invoked"
        )
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, output_dir=args.out)
    if cfg.output_dir is None:
        raise ConfigurationError("no output directory: set 'output_dir' or pass --out")
    return cfg


def _run_pipeline(args, mode):
    cfg = _load_config(args, mode)
    report = experiments.run(cfg)
    out = experiments.emit_report(report, cfg.output_dir)
    for name in report.methods:
        if name in report.distances:
            print(f"{name}: spectrum distance to ideal = {report.distances[name]:.6g}")
        if name in report.mean_rmse:
            print(f"{name}: mean prediction RMSE = {report.mean_rmse[name]:.6g}")
    print(f"report written to {out}")
    if report.errors:
        for err in report.errors:
            print(f"error in stage {err['stage']}: {err['message']}", file=sys.stderr)
        return 1
    return 0


def _run_simulate(args):
    cfg = _load_config(args)
    schedules = experiments.derive_schedules(cfg)
    fld = experiments.system_field(cfg.system)
    ensemble = sample_ensemble(
        fld, schedules, cfg.K, init_box=cfg.init_box, seed=cfg.seed
    )
    export_ensemble(ensemble, cfg.output_dir)
    print(f"{len(ensemble)} trajectories written to {cfg.output_dir}")
    return 0


def _run_compare(args):
    if args.num_seeds < 1:
        raise ConfigurationError(f"--num-seeds must be >= 1, got {args.num_seeds}")
    cfg = _load_config(args)
    seeds = range(args.seed_base, args.seed_base + args.num_seeds)
    result = experiments.run_sweep(cfg, seeds)
    out = experiments.emit_comparison(result, cfg.output_dir)
    print(
        f"{result['primary_method']} vs {result['baseline_method']} over "
        f"{len(result['seeds'])} seeds: spectrum wins {result['spectrum_wins']}, "
        f"rmse wins {result['rmse_wins']}"
    )
    print(f"comparison written to {out}")
    for err in result["stage_errors"]:
        print(
            f"seed {err['seed']}: error in stage {err['stage']}: {err['message']}",
            file=sys.stderr,
        )
    return 1 if result["stage_errors"] else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mredmd",
        description=(
            "Koopman operator approximation from partially and non-uniformly "
            "sampled state data"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multirate", help="run the multirate pipeline")
    _add_common(p)
    p.set_defaults(func=lambda a: _run_pipeline(a, "multirate"))

    p = sub.add_parser("single-state", help="run the single-state pipeline")
    _add_common(p)
    p.set_defaults(func=lambda a: _run_pipeline(a, "single_state"))

    p = sub.add_parser("simulate", help="generate and export a sampled ensemble")
    _add_common(p)
    p.set_defaults(func=_run_simulate)

    p = sub.add_parser("compare", help="seed-sweep method comparison")
    _add_common(p)
    p.add_argument("--num-seeds", type=int, default=10, help="number of seeds to sweep")
    p.add_argument(
        "--seed-base", type=int, default=0, help="first seed of the sweep range"
    )
    p.set_defaults(func=_run_compare)
    return parser


def _show_once(show):
    """``showwarning`` that passes each (category, text, file, line) to
    ``show`` once: each stage's ``catch_warnings`` resets the registries
    that would show a warning once per location."""
    shown = set()

    def show_once(message, category, filename, lineno, file=None, line=None):
        key = (category, str(message), filename, lineno)
        if key not in shown:
            shown.add(key)
            show(message, category, filename, lineno, file, line)

    return show_once


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_once(warnings.showwarning)
        try:
            return args.func(args)
        except ConfigurationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except MredmdError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except Warning as exc:  # raised only under an error filter (python -W error)
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

"""Workload table, per-op inputs and per-op correctness checks.

Each workload is one `mredmd` CLI subcommand on one config. An op is one
``cli.main`` call; its config seed (or sweep seed base) is drawn from the
workload seed, so the same workload seed gives the same sequence of inputs.

The checks follow the acceptance criteria of ``tests/test_acceptance.py``
where those are properties of a single run, and check that the report is
consistent with itself:

* every op: exit code 0 and an empty ``errors`` list;
* multirate (criterion 6): the primary spectrum has one eigenvalue per
  observable and its distance to ideal is below the lcm baseline's. The
  reported distances and mean RMSEs must agree with ``spectrum.csv`` and
  ``prediction.csv``. Criterion 7 (RMSE below lcm on 8 of 10 seeds) is a
  rate, and at ``K=10000`` it is not met: the multirate model loses it on
  about 1 seed in 5. Prediction accuracy is therefore gated through the
  ``mean_rmse`` metric, not checked per op;
* sweep (criterion 8): every swept seed is scored and error-free, and the
  spectrum and RMSE win counts reach ``WIN_SHARE`` of the seeds swept.
  Single ten-seed sweeps fall to 7 RMSE wins on about one seed base in
  thirty, so the share is pooled over all sweep ops of a run
  (:func:`pooled_win_check`).
"""

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Relative tolerance when recomputing reported values from emitted files.
REL_TOL = 1e-9

#: Criteria 6-8 ask for a win on at least 8 of 10 seeds.
WIN_SHARE = 0.8

_LORENZ_MULTIRATE = {"system": "lorenz", "mode": "multirate", "T_s": 0.1, "rates": [1, 4, 3]}
_LORENZ_SINGLE = {"system": "lorenz", "mode": "single_state", "T_s": 0.1, "state_dim": 3}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (why each was chosen: ``BENCHMARK.json``).

    ``config`` is written to the JSON config file the CLI reads; ``smoke_K``
    replaces ``K`` for the benchmark's own tests.
    """

    name: str
    command: str
    config: dict
    smoke_K: int
    num_seeds: int = 1

    def config_for(self, smoke):
        cfg = dict(self.config)
        if smoke:
            cfg["K"] = self.smoke_K
        return cfg

    def trajectories_per_op(self, smoke):
        return self.config_for(smoke)["K"] * self.num_seeds

    def argv(self, config_path, op_seed, out_dir):
        """CLI arguments of one op."""
        if self.command == "compare":
            seed_args = ["--seed-base", str(op_seed), "--num-seeds", str(self.num_seeds)]
        else:
            seed_args = ["--seed", str(op_seed)]
        return [self.command, "--config", str(config_path), *seed_args, "--out", str(out_dir)]

    def check(self, out_dir, exit_code, op_seed, smoke):
        """Check one op's report; returns an :class:`OpCheck`."""
        if exit_code != 0:
            return OpCheck(False, f"exit code {exit_code}")
        try:
            if self.command == "compare":
                return _check_sweep(Path(out_dir), op_seed, self.num_seeds)
            return _check_multirate(Path(out_dir), op_seed, self.config_for(smoke))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return OpCheck(False, f"unreadable report: {exc!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="multirate_large",
            command="multirate",
            # 50 held-out trajectories: with the default 10, mean_rmse varies
            # by 25% from seed to seed, too much for a gated median over the
            # few ops of a run.
            config={**_LORENZ_MULTIRATE, "K": 10000, "degree": 2, "eval_trajectories": 50},
            smoke_K=300,
        ),
        Workload(
            name="single_state_sweep",
            command="compare",
            config={**_LORENZ_SINGLE, "K": 100},
            smoke_K=100,
            num_seeds=10,
        ),
    )
}


def op_seeds(workload, seed):
    """Endless sequence of op seeds derived from the workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(2**31)


@dataclass
class OpCheck:
    """Verdict on one op plus the accuracy values it reported."""

    ok: bool
    reason: str = ""
    spectrum_dist: float = math.nan
    mean_rmse: float = math.nan
    spectrum_wins: int = 0
    rmse_wins: int = 0
    scored: int = 0


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def _dictionary_size(n, degree):
    return math.comb(n + degree, degree)


def _check_multirate(out, op_seed, cfg):
    summary = json.loads((out / "summary.json").read_text())
    if summary["errors"]:
        return OpCheck(False, f"stage errors {summary['errors']}")
    if summary["seed"] != op_seed or summary["config"]["K"] != cfg["K"]:
        return OpCheck(False, "report does not echo the op's seed and K")
    dist = summary["spectrum_distances"]
    rmse = summary["mean_rmse"]
    for method in ("multirate", "lcm"):
        if not (_finite(dist.get(method)) and _finite(rmse.get(method))):
            return OpCheck(False, f"missing or non-finite metrics for {method}")
    if not dist["multirate"] < dist["lcm"]:
        return OpCheck(False, "criterion 6: multirate spectrum not closer to ideal than lcm")
    spectra = _read_spectra(out / "spectrum.csv")
    if len(spectra["multirate"]) != _dictionary_size(len(cfg["rates"]), cfg["degree"]):
        return OpCheck(False, f"multirate spectrum has {len(spectra['multirate'])} eigenvalues")
    for method in ("multirate", "lcm"):
        if not math.isclose(
            _matched_distance(spectra[method], spectra["ideal"]), dist[method], rel_tol=REL_TOL
        ):
            return OpCheck(False, f"{method} spectrum distance disagrees with spectrum.csv")
    recomputed = _mean_rmse(out / "prediction.csv")
    for method in ("multirate", "lcm"):
        if not math.isclose(recomputed.get(method, math.nan), rmse[method], rel_tol=REL_TOL):
            return OpCheck(False, f"{method} mean RMSE disagrees with prediction.csv")
    return OpCheck(True, spectrum_dist=dist["multirate"], mean_rmse=rmse["multirate"])


def _read_spectra(path):
    spectra = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            spectra.setdefault(row["method"], []).append(
                complex(float(row["real"]), float(row["imag"]))
            )
    return spectra


def _matched_distance(a, b):
    """Mean |a_i - b_j| over the cheapest one-to-one pairing."""
    if len(a) != len(b):
        raise ValueError(f"spectra of {len(a)} and {len(b)} eigenvalues")
    cost = np.abs(np.subtract.outer(np.asarray(a), np.asarray(b)))
    rows = _cheapest_assignment(cost)
    return float(cost[rows, np.arange(len(rows))].mean())


def _cheapest_assignment(cost):
    """Row assigned to each column in the cheapest one-to-one pairing of a
    square cost matrix.

    Hungarian method with shortest augmenting paths (Kuhn-Munkres, in the
    O(n^3) form of Jonker and Volgenant), vectorised over columns. It is
    written here, not taken from ``scipy.optimize``, so that checking a
    report does not load a module into the measured process that the
    program may one day stop loading.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)  # row potentials, 1-based
    v = np.zeros(n + 1)  # column potentials, 1-based
    row_of = np.zeros(n + 1, dtype=int)  # row matched to column j; 0 = none
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = row_of[j0]
            free = np.flatnonzero(~used)
            reduced = cost[i0 - 1, free - 1] - u[i0] - v[free]
            better = reduced < minv[free]
            minv[free[better]] = reduced[better]
            way[free[better]] = j0
            j1 = free[np.argmin(minv[free])]
            delta = minv[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if row_of[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    return row_of[1:] - 1


def _mean_rmse(path):
    """Per method, the mean over trajectories of the prediction RMSE."""
    squares = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            err = float(row["predicted"]) - float(row["truth"])
            squares.setdefault(row["method"], {}).setdefault(row["trajectory"], []).append(err * err)
    return {
        method: statistics.mean(math.sqrt(statistics.fmean(e)) for e in per_traj.values())
        for method, per_traj in squares.items()
    }


def _check_sweep(out, seed_base, num_seeds):
    result = json.loads((out / "compare.json").read_text())
    if result["seeds"] != list(range(seed_base, seed_base + num_seeds)):
        return OpCheck(False, "comparison does not cover the op's seeds")
    errors = sum(row["n_errors"] for row in result["rows"])
    if errors:
        return OpCheck(False, f"{errors} stage errors in the sweep")
    if result["seeds_scored"] != num_seeds:
        return OpCheck(False, f"only {result['seeds_scored']} of {num_seeds} seeds scored")
    primary = result["primary_method"]
    dists = [row["spectrum_distances"].get(primary) for row in result["rows"]]
    rmses = [row["mean_rmse"].get(primary) for row in result["rows"]]
    if not all(_finite(v) for v in dists + rmses):
        return OpCheck(False, f"missing or non-finite metrics for {primary}")
    return OpCheck(
        True,
        spectrum_dist=statistics.mean(dists),
        mean_rmse=statistics.mean(rmses),
        spectrum_wins=result["spectrum_wins"],
        rmse_wins=result["rmse_wins"],
        scored=result["seeds_scored"],
    )


def pooled_win_check(checks):
    """Criterion 8 over all sweep ops of a run: each win count must reach
    ``WIN_SHARE`` of the seeds scored. Returns a failure reason or ``""``."""
    scored = sum(c.scored for c in checks)
    if not scored:
        return ""
    for what in ("spectrum_wins", "rmse_wins"):
        wins = sum(getattr(c, what) for c in checks)
        if wins < WIN_SHARE * scored:
            return f"criterion 8: {what} {wins} of {scored} seeds, below {WIN_SHARE:.0%}"
    return ""

"""End-to-end experiment pipeline and its file I/O.

``run`` generates a sampled ensemble, reconstructs state pairs, fits the
partial-measurement model next to an ideal baseline (the same trajectories
sampled in full at 0, T_s and 2 T_s) and, for the multirate mode, the naive
baseline that only uses instants where the whole state is visible (period
lcm(p) * T_s). Every model is fit on pairs that
:func:`hankel.reconstruct_states` assembles from sampled data. Reports
materialize as CSV/JSON files; identical config and seed reproduce
identical bytes.

``run_sweep`` runs the same pipeline over many seeds one stage at a time,
so each RK4 stage integrates a whole group of seeds in one batch; ``run``
is its one-seed case.
"""

import json
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import product
from pathlib import Path
from typing import Optional

import numpy as np

from . import edmd, hankel
from .dynamics import (
    _STEPS_PER_GRID,
    integrate_stacked,
    lorenz_field,
    sample_ensembles,
    SamplingSchedule,
)
from .errors import (
    ConfigurationError,
    DataError,
    DimensionMismatchError,
    MredmdError,
    MredmdWarning,
)
from .linalg import cast_real, matrix_exp, spectrum_distance
from .observables import monomial_dictionary

SCHEMA_ID = "mredmd-report/1"

_EVAL_STREAM = 2**40 + 1
_NOISE_FLOOR_STREAM = 2**40 + 2

#: Most initial states that one RK4 batch of a seed sweep holds. Seeds join
#: a batch whole; a seed with more rows than this runs alone.
_BATCH_ROWS = 4096

_SYSTEMS = {"lorenz": lorenz_field}

#: Integer config fields and their smallest allowed value (seeds key
#: NumPy's SeedSequence, which takes non-negative integers only).
_INT_FIELDS = {
    "K": 1, "seed": 0, "degree": 0, "horizon": 1, "eval_trajectories": 1, "state_dim": 1
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    system: str
    mode: str
    T_s: float
    K: int
    seed: int = 0
    rates: Optional[tuple] = None
    state_dim: Optional[int] = None
    M: Optional[tuple] = None
    init_box: Optional[tuple] = None
    degree: int = 2
    include_constant: bool = True
    horizon: int = 50
    eval_trajectories: int = 10
    prediction_mode: str = "relift"
    output_dir: Optional[str] = None

    def __post_init__(self):
        for name, low in _INT_FIELDS.items():
            value = getattr(self, name)
            if value is None and name == "state_dim":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {value}")
        if not _is_real(self.T_s) or self.T_s <= 0:
            raise ConfigurationError(f"T_s must be a finite number > 0, got {self.T_s!r}")
        if not isinstance(self.system, str) or self.system not in _SYSTEMS:
            raise ConfigurationError(
                f"unknown system {self.system!r}; available: {sorted(_SYSTEMS)}"
            )
        if self.mode not in ("multirate", "single_state"):
            raise ConfigurationError(
                f"mode must be 'multirate' or 'single_state', got {self.mode!r}"
            )
        if self.prediction_mode not in ("relift", "rollout"):
            raise ConfigurationError(
                f"prediction_mode must be 'relift' or 'rollout', got {self.prediction_mode!r}"
            )
        if not isinstance(self.include_constant, bool):
            raise ConfigurationError(
                f"include_constant must be true or false, got {self.include_constant!r}"
            )
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigurationError(f"output_dir must be a string, got {self.output_dir!r}")
        n = self.dimension
        if self.mode == "multirate":
            if self.rates is None:
                raise ConfigurationError("multirate mode requires 'rates'")
            rates = _tuple_of("rates", self.rates, n, _is_count, "integers >= 1")
            object.__setattr__(self, "rates", rates)
        else:
            if self.state_dim is None:
                raise ConfigurationError("single_state mode requires 'state_dim'")
            if self.state_dim != n:
                raise ConfigurationError(
                    f"state_dim {self.state_dim} does not match system dimension {n}"
                )
        if self.M is not None:
            object.__setattr__(self, "M", _tuple_of("M", self.M, n, _is_count, "integers >= 1"))
        if self.init_box is not None:
            box = _tuple_of(
                "init_box", self.init_box, n, _is_interval, "(low, high) pairs with low < high"
            )
            object.__setattr__(self, "init_box", tuple(tuple(float(v) for v in p) for p in box))

    @property
    def dimension(self):
        return _SYSTEMS[self.system]().dim

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
        if missing:
            raise ConfigurationError(f"missing config fields: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self):
        return asdict(self)


def _is_real(value):
    """A finite int or float that is not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def _is_count(value):
    """An int >= 1 that is not a bool."""
    return not isinstance(value, bool) and isinstance(value, int) and value >= 1


def _is_interval(value):
    """A (low, high) pair of finite numbers with low < high."""
    return (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(map(_is_real, value))
        and value[0] < value[1]
    )


def _tuple_of(name, value, n, check, what):
    """``value`` as a tuple of ``n`` items that pass ``check``."""
    if not (isinstance(value, (list, tuple)) and len(value) == n and all(map(check, value))):
        raise ConfigurationError(f"{name} must be {n} {what}, got {value!r}")
    return tuple(value)


def system_field(name):
    try:
        return _SYSTEMS[name]()
    except KeyError:
        raise ConfigurationError(f"unknown system {name!r}") from None


def _config_echo(cfg):
    """Config as stored in reports: the output location is not an
    experiment parameter, so reports stay byte-identical across locations."""
    echo = cfg.to_dict()
    echo.pop("output_dir")
    return echo


def lcm_of_rates(rates):
    """Least common multiple of the per-component rate multipliers."""
    rates = list(rates)
    if not rates:
        raise ConfigurationError("rates must be nonempty")
    if any(int(p) != p or p < 1 for p in rates):
        raise ConfigurationError(f"rates must be positive integers, got {rates}")
    return math.lcm(*(int(p) for p in rates))


def derive_schedules(cfg):
    """Sampling schedules for the configured mode.

    Multirate: r_i = 0 and T_i = p_i * T_s; the default M_i covers the full
    lcm window (M_i = lcm(p)/p_i) and at least 2 T_s. Single-state: component
    i (0-based) has dead time (i+1) * T_s and period n * T_s; the default
    M_i = 2 gives three measurements per component.
    """
    n = cfg.dimension
    if cfg.mode == "multirate":
        m_lcm = lcm_of_rates(cfg.rates)
        return [
            SamplingSchedule(
                component=i,
                dead_time=0.0,
                period=p * cfg.T_s,
                count=cfg.M[i] if cfg.M is not None else max(m_lcm // p, math.ceil(2 / p)),
            )
            for i, p in enumerate(cfg.rates)
        ]
    return [
        SamplingSchedule(
            component=i,
            dead_time=(i + 1) * cfg.T_s,
            period=n * cfg.T_s,
            count=cfg.M[i] if cfg.M is not None else 2,
        )
        for i in range(n)
    ]


@dataclass
class ExperimentReport:
    """Everything a pipeline run produced, ready for :func:`emit_report`."""

    schema: str
    mode: str
    seed: int
    config: dict
    methods: list
    spectra: dict = field(default_factory=dict)
    distances: dict = field(default_factory=dict)
    rmse: dict = field(default_factory=dict)
    mean_rmse: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    models: dict = field(default_factory=dict)
    component_operators: dict = field(default_factory=dict)
    dictionary: Optional[object] = None
    eval_times: Optional[np.ndarray] = None
    eval_truth: Optional[np.ndarray] = None
    predictions: dict = field(default_factory=dict)


#: Failures that a stage records in its report instead of raising.
_STAGE_ERRORS = (MredmdError, np.linalg.LinAlgError)


@contextmanager
def _stage(report, name):
    """Record package warnings under a stage label; record pipeline errors.
    Other warnings pass through, so report bytes never hold their text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        except _STAGE_ERRORS as exc:
            report.errors.append({"stage": name, "message": str(exc)})
    for w in caught:
        if issubclass(w.category, MredmdWarning):
            report.warnings.append(
                {"stage": name, "category": w.category.__name__, "message": str(w.message)}
            )
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)


def _per_seed(reports, name, compute):
    """``compute(indices)``, one result per index, called once for all reports.

    If that joint call fails, each seed runs alone inside its own ``name``
    stage: a failure is recorded against its seed with the message a
    one-seed run gives, the other seeds get what they get alone, and a
    failed seed gets None. The warnings of a joint call belong to no seed:
    they pass through, unrecorded.
    """
    if len(reports) > 1:
        try:
            return compute(range(len(reports)))
        except _STAGE_ERRORS:
            pass
    results = [None] * len(reports)
    for i, report in enumerate(reports):
        with _stage(report, name):
            (results[i],) = compute([i])
    return results


def _full_state(n, t_s):
    """The ideal baseline's layout: every component measured at 0, T_s and
    2 T_s, so its pairs (x(T_s), x(2 T_s)) need no estimate."""
    return [SamplingSchedule(i, 0.0, t_s, 2) for i in range(n)]


def _lcm_step_model(raw, step):
    """Re-express a coarse-step model at step ``step`` via its generator."""
    k_step, residual = cast_real(matrix_exp(raw.l_complex * step), tol=1e-6)
    return replace(raw, k_mat=k_step, step=step), residual


def _eval_initial_conditions(cfg, seed, n):
    box = np.asarray(cfg.init_box if cfg.init_box is not None else [(-1.0, 1.0)] * n)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _EVAL_STREAM]))
    return rng.uniform(box[:, 0], box[:, 1], size=(cfg.eval_trajectories, n))


def _eval_truths(fld, starts, horizon, step):
    """RK4 ground truth at step, 2 step, ..., horizon step of each (E_i, n)
    batch of initial states, all in one pass with ``_STEPS_PER_GRID``
    micro-steps per step; one (E_i, horizon, n) array per batch."""
    m = _STEPS_PER_GRID
    return [
        np.ascontiguousarray(np.moveaxis(dense[1:], 0, 1))
        for dense in integrate_stacked(fld, starts, step / m, horizon * m, every=m)
    ]


def evaluate_prediction(models, fld, x0s, horizon, step, mode="rollout", truth=None):
    """Per-trajectory RMSE of each model's prediction against RK4 ground truth.

    Returns ``(times, truth, predictions, rmse)`` where ``truth`` has shape
    (n_eval, horizon, n), ``predictions[name]`` matches it, and
    ``rmse[name]`` is a list of per-trajectory values (RMSE over the finite
    prefix when a rollout diverges). A ``truth`` already integrated for
    ``x0s`` (as a seed sweep integrates it, for all seeds at once) is used
    as given.

    Raises
    ------
    DimensionMismatchError
        If a given ``truth`` is not (len(x0s), horizon, n), naming both shapes.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    if truth is None:
        (truth,) = _eval_truths(fld, [x0s], horizon, step)
    elif np.shape(truth) != (len(x0s), horizon, x0s.shape[1]):
        expected = (len(x0s), horizon, x0s.shape[1])
        raise DimensionMismatchError(f"truth has shape {np.shape(truth)}, expected {expected}")
    times = np.arange(1, horizon + 1) * step
    predictions = {}
    rmse = {}
    stacked = edmd.predict_models(models.values(), x0s, horizon, mode) if models else ()
    for name, preds in zip(models, stacked):
        finite = np.all(np.isfinite(preds), axis=2)
        prefix = np.where(finite.all(axis=1), horizon, np.argmax(~finite, axis=1))
        sq_err = (preds - truth) ** 2
        per_traj = np.full(len(x0s), np.inf)
        # one reduction per prefix length; each row sums as a mean over it alone
        for p in np.unique(prefix[prefix > 0]).tolist():
            rows = prefix == p
            per_traj[rows] = np.sqrt(np.mean(sq_err[rows, :p].reshape(rows.sum(), -1), axis=1))
        predictions[name] = preds
        rmse[name] = per_traj.tolist()
    return times, truth, predictions, rmse


def _finish_reports(reports, cfg, fld):
    """Spectra, distances to the ideal model, and prediction evaluation, with
    the evaluation truths of all reports in one RK4 batch."""
    for report in reports:
        with _stage(report, "spectra"):
            for name, model in report.models.items():
                report.spectra[name] = edmd.generator_spectrum(model)
                report.residuals[name] = model.imag_residual
            if "ideal" in report.spectra:
                for name in report.methods:
                    if name in report.spectra:
                        report.distances[name] = spectrum_distance(
                            report.spectra[name], report.spectra["ideal"]
                        )
    evaluated = [report for report in reports if report.models]
    x0s = [_eval_initial_conditions(cfg, report.seed, fld.dim) for report in evaluated]
    truths = _per_seed(
        evaluated,
        "evaluate",
        lambda idx: _eval_truths(fld, [x0s[i] for i in idx], cfg.horizon, cfg.T_s),
    )
    for report, x0, truth in zip(evaluated, x0s, truths):
        if truth is None:
            continue
        with _stage(report, "evaluate"):
            times, truth, predictions, rmse = evaluate_prediction(
                report.models, fld, x0, cfg.horizon, cfg.T_s, cfg.prediction_mode, truth
            )
            report.eval_times = times
            report.eval_truth = truth
            report.predictions = predictions
            report.rmse = rmse
            report.mean_rmse = {
                name: float(np.mean(vals)) for name, vals in rmse.items()
            }


def _methods(cfg):
    """The methods a run of ``cfg`` fits, in report order."""
    return [cfg.mode, "lcm", "ideal"] if cfg.mode == "multirate" else [cfg.mode, "ideal"]


def _targets(cfg):
    """The two instants the paper's step 1 reconstructs the state at:
    (T_s, 2 T_s) in multirate mode, (n T_s, (n + 1) T_s) in single-state."""
    first = cfg.T_s if cfg.mode == "multirate" else cfg.dimension * cfg.T_s
    return (first, first + cfg.T_s)


def _run_seeds(cfg, seeds):
    """The pipeline of the configured mode on each seed, one stage at a time
    across the seeds: one RK4 batch samples every seed's ensemble, the fits
    run seed by seed, and one RK4 batch integrates every evaluation truth.

    Multirate reconstructs at (T_s, 2 T_s) and fits the multirate model, the
    lcm baseline and the ideal baseline; single-state reconstructs at
    (n T_s, (n+1) T_s) and fits the model and the ideal baseline. All are
    evaluated. Stage failures are recorded in each seed's report (with the
    stage name) rather than raised, so a partial report can still be written.
    """
    fld = system_field(cfg.system)
    dictionary = monomial_dictionary(fld.dim, cfg.degree, cfg.include_constant)
    reports = [
        ExperimentReport(
            schema=SCHEMA_ID,
            mode=cfg.mode,
            seed=seed,
            config=_config_echo(replace(cfg, seed=seed)),
            methods=_methods(cfg),
            dictionary=dictionary,
        )
        for seed in seeds
    ]
    # the sampled ensembles are freed before evaluation
    _finish_reports(_sample_and_fit(cfg, fld, reports), cfg, fld)
    return reports


def _sample_and_fit(cfg, fld, reports):
    """Sample every report's ensemble, and its full-state twin for the ideal
    baseline, in one RK4 batch, then fit its models; returns the reports
    whose sampling succeeded."""
    mode = cfg.mode
    multirate = mode == "multirate"
    t_s = cfg.T_s
    targets = _targets(cfg)
    lcm_step = lcm_of_rates(cfg.rates) * t_s if multirate else None
    schedules = derive_schedules(cfg)
    full_state = _full_state(fld.dim, t_s)
    samples = _per_seed(
        reports,
        "sample",
        lambda idx: sample_ensembles(
            fld,
            [schedules, full_state],
            cfg.K,
            [reports[i].seed for i in idx],
            init_box=cfg.init_box,
        ),
    )
    sampled = []
    for report, ensembles in zip(reports, samples):
        if ensembles is None:
            continue
        ensemble, full = ensembles
        sampled.append(report)
        with _stage(report, "reconstruct"):
            # stored before reconstructing, so a failed estimate still reports them
            report.component_operators = hankel.fit_component_operators(
                ensemble, schedules, targets
            )
            pairs = hankel.reconstruct_states(
                ensemble, schedules, report.component_operators, t_s, first_target=targets[0]
            )
            report.models[mode] = edmd.fit_model(pairs, report.dictionary)

        if multirate:
            with _stage(report, "fit_lcm"):
                if hankel.estimated_components(schedules, (0.0, lcm_step)):
                    raise DataError(
                        "lcm baseline needs the full state measured at t=0 and "
                        f"t={lcm_step:.6g}; increase the per-component sample counts"
                    )
                lcm_pairs = hankel.reconstruct_states(
                    ensemble, schedules, {}, lcm_step, first_target=0.0
                )
                raw = edmd.fit_model(lcm_pairs, report.dictionary)
                report.models["lcm"], step_residual = _lcm_step_model(raw, t_s)
                report.residuals["lcm_step"] = step_residual

        with _stage(report, "fit_ideal"):
            ideal_pairs = hankel.reconstruct_states(full, full_state, {}, t_s)
            report.models["ideal"] = edmd.fit_model(ideal_pairs, report.dictionary)

    return sampled


def run(cfg):
    """Run the pipeline of the configured mode on the config's seed (see
    :func:`_run_seeds`, of which this is the one-seed case)."""
    (report,) = _run_seeds(cfg, [cfg.seed])
    return report


def ideal_noise_floor(cfg):
    """Spectrum distance between two ideal models fit on disjoint ensembles.

    Both hold K trajectories from substreams disjoint from the run's own,
    sampled through :func:`sample_ensembles` with the full state at 0, T_s
    and 2 T_s; the distance quantifies pure sampling variation and serves
    as a reference scale for partial-measurement spectra.
    """
    (floor,) = _noise_floors(cfg, [cfg.seed])
    return floor


def _noise_floors(cfg, seeds):
    """:func:`ideal_noise_floor` of each seed, both ensembles of every seed
    sampled by one :func:`sample_ensembles` call (one RK4 batch)."""
    fld = system_field(cfg.system)
    dictionary = monomial_dictionary(fld.dim, cfg.degree, cfg.include_constant)
    full_state = _full_state(fld.dim, cfg.T_s)
    keys = [(seed, _NOISE_FLOOR_STREAM, half) for seed in seeds for half in (1, 2)]
    spectra = [
        edmd.generator_spectrum(
            edmd.fit_model(hankel.reconstruct_states(full, full_state, {}, cfg.T_s), dictionary)
        )
        for (full,) in sample_ensembles(fld, [full_state], cfg.K, keys, cfg.init_box)
    ]
    return [spectrum_distance(a, b) for a, b in zip(spectra[::2], spectra[1::2])]


def run_sweep(cfg, seeds):
    """Run the configured pipeline across seeds and tabulate comparisons.

    Seeds run in groups: each stage runs across a whole group, whose RK4
    batches hold at most ``_BATCH_ROWS`` initial states (a larger seed runs
    alone). Results do not depend on the grouping.

    Returns a dict with one row per seed (spectrum distances and mean RMSE
    per method, and its number of stage errors) plus win counts of the
    partial-measurement method against its baseline (lcm for multirate,
    ideal for single-state). A single-state seed is scored against 3 times
    its noise floor; a seed whose floor fails is not scored. The dict also
    holds ``stage_errors``, each error as {seed, stage, message}, which
    :func:`emit_comparison` does not write.
    """
    seeds = [int(s) for s in seeds]
    multirate = cfg.mode == "multirate"
    primary = cfg.mode
    baseline = "lcm" if multirate else "ideal"
    # a single-state seed also integrates the two K-trajectory floor halves
    rows_per_seed = max(cfg.K if multirate else 2 * cfg.K, cfg.eval_trajectories)
    group = max(_BATCH_ROWS // rows_per_seed, 1)
    rows, stage_errors = [], []
    spectrum_wins = rmse_wins = scored = 0
    for start in range(0, len(seeds), group):
        reports = _run_seeds(cfg, seeds[start : start + group])
        complete = [
            report
            for report in reports
            if all(m in report.distances and m in report.mean_rmse for m in (primary, baseline))
        ]
        if multirate:
            floors = [None] * len(complete)
        else:
            floors = _per_seed(
                complete,
                "noise_floor",
                lambda idx: _noise_floors(cfg, [complete[i].seed for i in idx]),
            )
        for report, floor in zip(complete, floors):
            dist, rmse = report.distances, report.mean_rmse
            if multirate:
                spectrum_wins += dist[primary] < dist[baseline]
                rmse_wins += rmse[primary] < rmse[baseline]
            elif floor is not None:
                spectrum_wins += dist[primary] <= 3.0 * max(floor, 0.0)
                rmse_wins += rmse[primary] <= 3.0 * rmse[baseline]
            else:
                continue
            scored += 1
        for report in reports:
            rows.append(
                {
                    "seed": report.seed,
                    "spectrum_distances": dict(report.distances),
                    "mean_rmse": dict(report.mean_rmse),
                    "n_errors": len(report.errors),
                }
            )
            stage_errors += [{"seed": report.seed, **error} for error in report.errors]
    return {
        "schema": SCHEMA_ID,
        "mode": cfg.mode,
        "seeds": seeds,
        "primary_method": primary,
        "baseline_method": baseline,
        "spectrum_wins": int(spectrum_wins),
        "rmse_wins": int(rmse_wins),
        "seeds_scored": int(scored),
        "rows": rows,
        "stage_errors": stage_errors,
    }


#: Names of the per-method and per-component report files. A directory that
#: holds one that a report does not write holds part of another report.
_PER_FIT_FILE = re.compile(
    r"[KL]_(multirate|single_state|lcm|ideal)\.csv|model_(multirate|single_state|lcm|ideal)\.txt"
    r"|hankel_[KL]_\d+\.csv"
)

#: The files every report writes, and the files a comparison writes.
_REPORT_FILES = {
    "spectrum.csv", "prediction.csv", "summary.json", "dictionary.txt", "hankel_residuals.csv"
}
_COMPARISON_FILES = {"compare.csv", "compare.json"}


def _fit_files(methods, components):
    """The per-method and per-component files of a report."""
    names = {f"{kind}_{m}.csv" for m in methods for kind in "KL"}
    names |= {f"model_{m}.txt" for m in methods}
    return names | {f"hankel_{kind}_{comp}.csv" for comp in components for kind in "KL"}


def _is_report_file(name):
    return name in _REPORT_FILES or _PER_FIT_FILE.fullmatch(name) is not None


def _foreign_to_report(own):
    """Whether a file name belongs to another report than one whose
    per-fit files are ``own``: a comparison file or another per-fit file."""
    return lambda name: name in _COMPARISON_FILES or (
        _PER_FIT_FILE.fullmatch(name) is not None and name not in own
    )


def refuse_foreign_output(cfg, comparison=False):
    """Raise before any work the :class:`ConfigurationError` that
    :func:`emit_report` (or, with ``comparison``, :func:`emit_comparison`)
    would raise on ``cfg.output_dir`` for a file that no run of ``cfg`` can
    write. The names depend on the config only; ``emit_report`` still
    checks the fits that the run made."""
    directory = Path(cfg.output_dir)
    if comparison:
        _refuse_foreign(directory, _is_report_file)
        return
    components = hankel.estimated_components(derive_schedules(cfg), _targets(cfg))
    _refuse_foreign(directory, _foreign_to_report(_fit_files(_methods(cfg), components)))


def _refuse_foreign(directory, foreign):
    """Raise before anything is written if ``directory`` holds a file whose
    name ``foreign`` accepts: it belongs to another report."""
    stale = sorted(path.name for path in directory.glob("*") if foreign(path.name))
    if stale:
        raise ConfigurationError(
            f"{directory} holds files of another report: {', '.join(stale)}; "
            "write to a new or empty directory"
        )


def _write_csv(path, lines):
    """Write report CSV ``lines``, each comma-joined by its caller and ended
    with ``\n``.

    No cell needs quoting: cells are method names, ints and float text. A
    float is always written as the ``repr`` of a Python float (:func:`_fmt`,
    or ``repr`` of ``tolist()`` values), never of a NumPy scalar, whose
    ``repr`` is ``np.float64(0.1)`` under NumPy 2.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)


def _fmt(x):
    return repr(float(x))


def _write_matrix_csv(path, matrix):
    _write_csv(path, (",".join(map(_fmt, row)) for row in np.atleast_2d(matrix)))


def save_model(model, directory, name):
    """Serialize a model: K/L matrices as CSV plus a text manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_matrix_csv(directory / f"K_{name}.csv", model.k_mat)
    _write_matrix_csv(directory / f"L_{name}.csv", model.l_mat)
    manifest = [
        f"step: {model.step!r}",
        f"imag_residual: {model.imag_residual!r}",
        "dictionary:",
        model.dictionary.manifest().rstrip("\n"),
    ]
    (directory / f"model_{name}.txt").write_text("\n".join(manifest) + "\n")


def emit_report(report, directory):
    """Write the report files; byte-identical for identical runs.

    Files: ``spectrum.csv`` (method,index,real,imag), ``prediction.csv``
    (method,trajectory,t,component,truth,predicted), ``summary.json``,
    ``dictionary.txt``, per-method K/L matrices, and per-component Hankel
    operator dumps.

    Raises
    ------
    ConfigurationError
        Before writing anything, naming each per-method or per-component
        file in ``directory`` that this report would not overwrite, and
        each file of a comparison (:func:`emit_comparison`), as it belongs
        to another report. The same report rewrites every file.
    """
    directory = Path(directory)
    methods = [method for method in report.methods if method in report.models]
    operators = sorted(report.component_operators.items())
    _refuse_foreign(directory, _foreign_to_report(_fit_files(methods, report.component_operators)))
    directory.mkdir(parents=True, exist_ok=True)

    lines = ["method,index,real,imag"]
    for method in report.methods:
        if method in report.spectra:
            for idx, lam in enumerate(report.spectra[method]):
                lines.append(f"{method},{idx},{_fmt(lam.real)},{_fmt(lam.imag)}")
    _write_csv(directory / "spectrum.csv", lines)

    lines = ["method,trajectory,t,component,truth,predicted"]
    if report.eval_times is not None:
        times = list(map(repr, report.eval_times.tolist()))
        truth = report.eval_truth
        # the method-independent part of each line, built once
        prefixes = [
            f"{k},{times[j]},{comp},{obs!r},"
            for (k, j, comp), obs in zip(product(*map(range, truth.shape)), truth.ravel().tolist())
        ]
        for method in report.methods:
            if method in report.predictions:
                preds = report.predictions[method].ravel().tolist()
                lines += [f"{method},{prefix}{pred!r}" for prefix, pred in zip(prefixes, preds)]
    _write_csv(directory / "prediction.csv", lines)

    summary = {
        "schema": report.schema,
        "mode": report.mode,
        "seed": report.seed,
        "config": report.config,
        "methods": report.methods,
        "spectrum_distances": report.distances,
        "mean_rmse": report.mean_rmse,
        "rmse_per_trajectory": report.rmse,
        "residuals": report.residuals,
        "component_residuals": {str(k): op.imag_residual for k, op in operators},
        "warnings": report.warnings,
        "errors": report.errors,
    }
    (directory / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )

    if report.dictionary is not None:
        (directory / "dictionary.txt").write_text(report.dictionary.manifest())

    for method in methods:
        save_model(report.models[method], directory, method)
    lines = ["component,imag_residual"]
    for comp, op in operators:
        _write_matrix_csv(directory / f"hankel_K_{comp}.csv", op.k_mat)
        _write_matrix_csv(directory / f"hankel_L_{comp}.csv", op.l_mat)
        lines.append(f"{comp},{_fmt(op.imag_residual)}")
    _write_csv(directory / "hankel_residuals.csv", lines)
    return directory


def emit_comparison(result, directory):
    """Write the seed-sweep summary: ``compare.csv`` and ``compare.json``.

    The ``stage_errors`` of :func:`run_sweep` are left out; each row counts
    its seed's errors in ``n_errors``.

    Raises
    ------
    ConfigurationError
        Before writing anything, naming each file of a pipeline report
        (:func:`emit_report`) in ``directory``.
    """
    directory = Path(directory)
    _refuse_foreign(directory, _is_report_file)
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["seed,method,spectrum_distance_to_ideal,mean_rmse"]
    for row in result["rows"]:
        dist, rmse = row["spectrum_distances"], row["mean_rmse"]
        for method in sorted(set(dist) | set(rmse)):
            lines.append(
                f"{row['seed']},{method},{_fmt(dist.get(method, math.nan))},"
                f"{_fmt(rmse.get(method, math.nan))}"
            )
    _write_csv(directory / "compare.csv", lines)
    summary = {key: value for key, value in result.items() if key != "stage_errors"}
    (directory / "compare.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return directory

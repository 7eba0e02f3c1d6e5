"""End-to-end experiment pipeline and every file mredmd reads or writes:
reports, comparisons and exported ensembles, under one ownership rule.

``run`` samples an ensemble (:func:`simulate`), reconstructs state pairs,
fits the partial-measurement model next to an ideal baseline (the same
trajectories sampled in full at 0, T_s and 2 T_s) and, for the multirate
mode, the naive baseline that only uses instants where the whole state is
visible (period lcm(p) * T_s). Every model is fit on pairs that
:func:`hankel.reconstruct_states` assembles from sampled data. Reports
materialize as CSV/JSON files; identical config and seed reproduce
identical bytes.

``run_sweep`` runs the same pipeline over many seeds one stage at a time,
so each stage runs once for a whole group of seeds: one RK4 batch, one
stacked Koopman fit per fit, one stacked matrix exponential per estimate,
one prediction call. Every stage that warns or fails for the group runs
again seed by seed, so each report records its own package warnings and
none escapes. ``run`` is its one-seed case.
"""

import json
import math
import os
import re
import sys
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import chain, product
from pathlib import Path
from typing import Optional

import numpy as np

from . import dynamics, edmd, hankel
from .dynamics import (
    _STEPS_PER_GRID,
    TIME_MATCH_TOL,
    Ensemble,
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
    check_integer,
    check_number,
    quiet,
)
from .linalg import cast_real, matrix_exp, spectrum_distance
from .observables import check_dictionary_size, monomial_dictionary

SCHEMA_ID = "mredmd-report/1"

_EVAL_STREAM = 2**40 + 1
_NOISE_FLOOR_STREAM = 2**40 + 2

#: Most initial states that one RK4 batch of a seed sweep holds. Seeds join
#: a batch whole; a seed with more rows than this runs alone.
_BATCH_ROWS = 4096

_SYSTEMS = {"lorenz": lorenz_field}

#: Integer config fields and their smallest allowed value (seeds key
#: NumPy's SeedSequence, which takes non-negative integers only). All but
#: the seed size or count arrays, so they are at most ``sys.maxsize``.
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
        # the checks return Python numbers, which the config stores
        for name, low in _INT_FIELDS.items():
            value = getattr(self, name)
            if value is not None or name != "state_dim":
                high = None if name == "seed" else sys.maxsize
                object.__setattr__(self, name, check_integer(value, name, low, high))
        object.__setattr__(self, "T_s", check_number(self.T_s, "T_s", positive=True))
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
        if self.degree == 0 and not self.include_constant:
            raise ConfigurationError(
                "degree 0 with include_constant false leaves no observable"
            )
        if self.degree == 0:
            raise ConfigurationError(
                "degree 0 leaves only the constant observable, from which no state "
                "can be read out; use degree >= 1"
            )
        check_dictionary_size(self.dimension, self.degree, self.include_constant)
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigurationError(f"output_dir must be a string, got {self.output_dir!r}")
        n = self.dimension
        if self.mode == "multirate":
            if self.rates is None:
                raise ConfigurationError("multirate mode requires 'rates'")
            object.__setattr__(self, "rates", _counts("rates", self.rates, n))
        else:
            if self.state_dim is None:
                raise ConfigurationError("single_state mode requires 'state_dim'")
            if self.state_dim != n:
                raise ConfigurationError(
                    f"state_dim {self.state_dim} does not match system dimension {n}"
                )
        if self.M is not None:
            object.__setattr__(self, "M", _counts("M", self.M, n))
        if self.init_box is not None:
            box = _tuple_of(
                "init_box", self.init_box, n, _interval, "(low, high) pairs with low < high"
            )
            object.__setattr__(self, "init_box", box)

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
        except OSError as exc:
            raise ConfigurationError(f"{path}: cannot read: {exc.strerror or exc}") from exc
        except ValueError as exc:  # bad JSON, bad UTF-8, or an int past Python's digit limit
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self):
        return asdict(self)


def _interval(pair):
    """``pair`` as a (low, high) tuple of finite floats with low < high."""
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        low, high = (check_number(v, "init_box") for v in pair)
        if low < high:
            return low, high
    raise ConfigurationError(f"init_box pairs must have low < high, got {pair!r}")


def _tuple_of(name, value, n, convert, what):
    """``value`` as a tuple of ``n`` items, each passed through ``convert``,
    which raises a :class:`ConfigurationError` for a bad one."""
    if isinstance(value, (list, tuple)) and len(value) == n:
        try:
            return tuple(map(convert, value))
        except ConfigurationError:
            pass
    raise ConfigurationError(f"{name} must be {n} {what}, got {value!r}")


def _counts(name, value, n):
    """``value`` as a tuple of ``n`` ints from 1 to ``sys.maxsize``."""
    counts = _tuple_of(name, value, n, lambda v: check_integer(v, name, 1), "integers >= 1")
    if max(counts) > sys.maxsize:
        raise ConfigurationError(f"{name} must be <= {sys.maxsize} each, got {value!r}")
    return counts


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
    """Least common multiple of the per-component rate multipliers, each
    an integer >= 1 (bools refused, NumPy integers accepted)."""
    rates = [check_integer(p, f"rates[{i}]", 1) for i, p in enumerate(rates)]
    if not rates:
        raise ConfigurationError("rates must be nonempty")
    return math.lcm(*rates)


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


@contextmanager
def _stage(report, name):
    """Record package warnings under a stage label; record pipeline errors.
    Other warnings pass through, so report bytes never hold their text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        except (MredmdError, np.linalg.LinAlgError) as exc:
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

    If that joint call warns or fails (:func:`errors.quiet`), each seed runs
    alone inside its own ``name`` stage, so each seed's report records the
    warnings and errors of a one-seed run, in their order: the other seeds
    get what they get alone, and a failed seed gets None.
    """
    if len(reports) > 1:
        clean, results = quiet(lambda: compute(range(len(reports))))
        if clean:
            return results
    results = [None] * len(reports)
    for i, report in enumerate(reports):
        with _stage(report, name):
            (results[i],) = compute([i])
    return results


def _full_state(n, t_s):
    """The ideal baseline's layout: every component measured at 0, T_s and
    2 T_s, so its pairs (x(T_s), x(2 T_s)) need no estimate."""
    return [SamplingSchedule(i, 0.0, t_s, 2) for i in range(n)]


def simulate(cfg, seeds):
    """The data a run of ``cfg`` fits, for each of ``seeds``.

    Returns, per seed, ``(ensemble, full)``: the K trajectories sampled on
    the config's schedules (:func:`derive_schedules`) and the same
    trajectories sampled in full at 0, T_s and 2 T_s, the ideal baseline's
    data. One :func:`sample_ensembles` call samples both layouts of every
    seed on the grid they share, so ``ensemble`` is bit for bit what
    :func:`run` fits and what ``mredmd simulate`` exports.
    """
    fld = system_field(cfg.system)
    layouts = [derive_schedules(cfg), _full_state(fld.dim, cfg.T_s)]
    return sample_ensembles(fld, layouts, cfg.K, seeds, init_box=cfg.init_box)


def _lcm_step_model(raw, step):
    """Re-express a coarse-step model at step ``step`` via its generator."""
    k_step, residual = cast_real(matrix_exp(raw.l_complex * step))
    return replace(raw, k_mat=k_step, step=step), residual


def _eval_initial_conditions(cfg, seed, n):
    box = np.asarray(cfg.init_box if cfg.init_box is not None else [(-1.0, 1.0)] * n)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _EVAL_STREAM]))
    try:
        return rng.uniform(box[:, 0], box[:, 1], size=(cfg.eval_trajectories, n))
    except (MemoryError, ValueError) as exc:  # ValueError: beyond the address space
        raise ConfigurationError(
            f"cannot allocate the evaluation states: eval_trajectories={cfg.eval_trajectories} "
            f"requests {cfg.eval_trajectories * n * 8 / 2**30:.3g} GiB"
        ) from exc


def _eval_truths(fld, starts, horizon, step):
    """RK4 ground truth at step, 2 step, ..., horizon step of each (E_i, n)
    batch of initial states, all in one pass with ``_STEPS_PER_GRID``
    micro-steps per step; one (E_i, horizon, n) array per batch."""
    m = _STEPS_PER_GRID
    dense = dynamics.integrate(fld, np.concatenate(starts), step / m, horizon * m, every=m)
    return [
        np.ascontiguousarray(np.moveaxis(part[1:], 0, 1))
        for part in np.split(dense, np.cumsum([len(x) for x in starts])[:-1], axis=1)
    ]


def evaluate_prediction(sets, mode="rollout"):
    """Per-trajectory RMSE of each model's prediction against the truth, for
    each ``(models, x0s, truth)`` of ``sets``, with every model of every set
    predicted in one :func:`edmd.predict_models` call from its set's states.

    ``truth[k, j]`` is the true state one step past ``truth[k, j - 1]``
    (``x0s[k]`` for j = 0), shape (n_eval, horizon, n), one shape for all
    sets; the models predict ``truth.shape[1]`` steps from each row of
    ``x0s``. Returns, per set, ``(predictions, rmse)``: ``predictions[name]``
    matches ``truth`` and ``rmse[name]`` lists per-trajectory values (RMSE
    over the finite prefix when a rollout diverges).

    Raises
    ------
    DimensionMismatchError
        If a ``truth`` is not (len(x0s), horizon >= 1, n), naming both
        shapes, or its shape differs from the first set's.
    """
    sets = [(models, np.atleast_2d(np.asarray(x0s, dtype=float)), t) for models, x0s, t in sets]
    for _, x0s, truth in sets:
        shape = np.shape(truth)
        if len(shape) != 3 or shape[0] != len(x0s) or shape[1] < 1 or shape[2] != x0s.shape[1]:
            raise DimensionMismatchError(
                f"truth has shape {shape}, expected ({len(x0s)}, horizon >= 1, {x0s.shape[1]})"
            )
        if shape != np.shape(sets[0][2]):
            raise DimensionMismatchError(f"truth shapes {np.shape(sets[0][2])} and {shape} differ")
    flat = [(i, name) for i, (models, _, _) in enumerate(sets) for name in models]
    results = [({}, {}) for _ in sets]
    if not flat:
        return results
    models = [sets[i][0][name] for i, name in flat]
    starts = np.stack([sets[i][1] for i, _ in flat])
    horizon = sets[0][2].shape[1]
    preds = edmd.predict_models(models, starts, horizon, mode)  # (F, E, horizon, n)
    finite = np.all(np.isfinite(preds), axis=3)
    prefix = np.where(finite.all(axis=2), horizon, np.argmax(~finite, axis=2))
    sq_err = (preds - np.stack([sets[i][2] for i, _ in flat])) ** 2
    per_traj = np.full(prefix.shape, np.inf)
    # one reduction per prefix length; each row sums as a mean over it alone
    for p in sorted(set(prefix[prefix > 0].tolist())):
        rows = prefix == p
        per_traj[rows] = np.sqrt(np.mean(sq_err[rows, :p].reshape(rows.sum(), -1), axis=1))
    for (i, name), model_preds, model_rmse in zip(flat, preds, per_traj.tolist()):
        predictions, rmse = results[i]
        predictions[name] = model_preds
        rmse[name] = model_rmse
    return results


def _finish_reports(reports, x0s, cfg, fld):
    """Spectra, distances to the ideal model, and prediction evaluation from
    each report's evaluation states ``x0s``, for the reports with a model,
    each stage one :func:`_per_seed` call: the spectra of all models of all
    reports come from one :func:`edmd.generator_spectra` call, the
    evaluation truths of all reports from one RK4 batch and their
    predictions from one :func:`edmd.predict_models` call."""
    evaluated = [report for report in reports if report.models]
    x0s = [x0 for report, x0 in zip(reports, x0s) if report.models]

    def spectra(idx):
        own = [evaluated[i] for i in idx]
        flat = iter(edmd.generator_spectra(m for report in own for m in report.models.values()))
        # stored before any distance, so a failed distance still reports them
        for report in own:
            for name, model in report.models.items():
                report.spectra[name], report.residuals[name] = next(flat), model.imag_residual
        for report in own:
            ideal = report.spectra.get("ideal")
            if ideal is not None:
                for name in report.methods:
                    if name in report.spectra:
                        report.distances[name] = spectrum_distance(report.spectra[name], ideal)
        return own

    _per_seed(evaluated, "spectra", spectra)

    def evaluate(idx):
        truths = _eval_truths(fld, [x0s[i] for i in idx], cfg.horizon, cfg.T_s)
        sets = [(evaluated[i].models, x0s[i], truth) for i, truth in zip(idx, truths)]
        return list(zip(truths, evaluate_prediction(sets, cfg.prediction_mode)))

    for report, result in zip(evaluated, _per_seed(evaluated, "evaluate", evaluate)):
        if result is None:
            continue
        report.eval_truth, (report.predictions, report.rmse) = result
        report.eval_times = np.arange(1, cfg.horizon + 1) * cfg.T_s
        report.mean_rmse = {name: float(np.mean(vals)) for name, vals in report.rmse.items()}


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
    across the seeds: one RK4 batch samples every seed's ensemble, each fit
    stacks every seed's problem, each estimate of a component at a target
    stacks every seed's matrix exponential, one RK4 batch integrates every
    evaluation truth and one prediction call advances every model, each
    stage under the replay rule of :func:`_per_seed`. The lcm fit alone
    loops over seeds: on its coarse step some seed of a group nearly always
    warns (2 of seeds 0-9 at K = 300, 6 at K = 30), so a stacked lcm stage
    would be replayed anyway.

    Multirate reconstructs at (T_s, 2 T_s) and fits the multirate model, the
    lcm baseline and the ideal baseline; single-state reconstructs at
    (n T_s, (n+1) T_s) and fits the model and the ideal baseline. All are
    evaluated. Stage failures are recorded in each seed's report (with the
    stage name) rather than raised, so a partial report can still be written.
    """
    fld = system_field(cfg.system)
    # drawn first, from their own stream, so an evaluation set that cannot
    # be held is refused before any sampling or fit
    x0s = [_eval_initial_conditions(cfg, seed, fld.dim) for seed in seeds]
    dictionary = monomial_dictionary(fld.dim, cfg.degree, cfg.include_constant)
    echo = _config_echo(cfg)  # one echo for all: run and run_sweep validate the seeds
    reports = [
        ExperimentReport(
            schema=SCHEMA_ID,
            mode=cfg.mode,
            seed=seed,
            config={**echo, "seed": seed},
            methods=_methods(cfg),
            dictionary=dictionary,
        )
        for seed in seeds
    ]
    _sample_and_fit(cfg, fld, dictionary, reports)  # its ensembles are freed on return
    _finish_reports(reports, x0s, cfg, fld)
    return reports


def _sample_and_fit(cfg, fld, dictionary, reports):
    """Sample every report's ensemble, and its full-state twin for the ideal
    baseline, in one RK4 batch, then fit its models, each fit stage in one
    call for all of them."""
    mode = cfg.mode
    t_s = cfg.T_s
    targets = _targets(cfg)
    schedules = derive_schedules(cfg)
    full_state = _full_state(fld.dim, t_s)
    samples = _per_seed(
        reports, "sample", lambda idx: simulate(cfg, [reports[i].seed for i in idx])
    )
    sampled = [(r, ensembles) for r, ensembles in zip(reports, samples) if ensembles is not None]
    group = [report for report, _ in sampled]

    def reconstruct(idx):
        ensembles = [sampled[i][1][0] for i in idx]
        operator_sets = hankel.fit_component_operators(ensembles, schedules, targets)
        for i, operators in zip(idx, operator_sets):
            # stored before reconstructing, so a failed estimate still reports them
            group[i].component_operators = operators
        pairs = hankel.reconstruct_states(
            ensembles, schedules, operator_sets, t_s, first_target=targets[0]
        )
        return edmd.fit_models(pairs, dictionary)

    def fit_ideal(idx):
        fulls = [sampled[i][1][1] for i in idx]
        pairs = hankel.reconstruct_states(fulls, full_state, [{}] * len(fulls), t_s)
        return edmd.fit_models(pairs, dictionary)

    models = _per_seed(group, "reconstruct", reconstruct)
    for report, model in zip(group, models):
        if model is not None:
            report.models[mode] = model
    if mode == "multirate":
        lcm_step = lcm_of_rates(cfg.rates) * t_s
        for report, (ensemble, _) in sampled:
            with _stage(report, "fit_lcm"):
                if hankel.estimated_components(schedules, (0.0, lcm_step)):
                    raise DataError(
                        "lcm baseline needs the full state measured at t=0 and "
                        f"t={lcm_step:.6g}; increase the per-component sample counts"
                    )
                lcm_pairs = hankel.reconstruct_states(
                    [ensemble], schedules, [{}], lcm_step, first_target=0.0
                )
                (raw,) = edmd.fit_models(lcm_pairs, dictionary)
                report.models["lcm"], step_residual = _lcm_step_model(raw, t_s)
                report.residuals["lcm_step"] = step_residual
    models = _per_seed(group, "fit_ideal", fit_ideal)
    for report, model in zip(group, models):
        if model is not None:
            report.models["ideal"] = model


def run(cfg):
    """Run the pipeline of the configured mode on the config's seed (see
    :func:`_run_seeds`, of which this is the one-seed case)."""
    (report,) = _run_seeds(cfg, [cfg.seed])
    return report


def ideal_noise_floor(cfg, seeds):
    """Per seed, the spectrum distance between two ideal models fit on
    disjoint ensembles, each of K trajectories from substreams disjoint from
    the seed's run with the full state at 0, T_s and 2 T_s: the scale of
    pure sampling variation for partial-measurement spectra. One
    :func:`sample_ensembles` call (one RK4 batch) samples the ensembles of
    every seed, one :func:`edmd.fit_models` call fits them and one
    :func:`edmd.generator_spectra` call takes their spectra.
    """
    fld = system_field(cfg.system)
    dictionary = monomial_dictionary(fld.dim, cfg.degree, cfg.include_constant)
    full_state = _full_state(fld.dim, cfg.T_s)
    keys = [(seed, _NOISE_FLOOR_STREAM, half) for seed in seeds for half in (1, 2)]
    fulls = [full for (full,) in sample_ensembles(fld, [full_state], cfg.K, keys, cfg.init_box)]
    pairs = hankel.reconstruct_states(fulls, full_state, [{}] * len(fulls), cfg.T_s)
    spectra = edmd.generator_spectra(edmd.fit_models(pairs, dictionary))
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
    seeds = [check_integer(seed, f"seeds[{i}]", 0) for i, seed in enumerate(seeds)]
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
                lambda idx: ideal_noise_floor(cfg, [complete[i].seed for i in idx]),
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


#: Names of the per-method and per-component report files, and of the
#: trajectory files of an exported ensemble. A directory that holds one that
#: a write does not own holds part of another report.
_PER_FIT_FILE = re.compile(
    r"[KL]_(multirate|single_state|lcm|ideal)\.csv|model_(multirate|single_state|lcm|ideal)\.txt"
    r"|hankel_[KL]_\d+\.csv"
)
_TRAJECTORY_FILE = re.compile(r"trajectory_(\d+)\.csv")

#: The files every report writes, and the files a comparison writes.
_REPORT_FILES = {
    "spectrum.csv", "prediction.csv", "summary.json", "dictionary.txt", "hankel_residuals.csv"
}
_COMPARISON_FILES = {"compare.csv", "compare.json"}

#: Most names a refusal lists: all of a report's, not all of a large ensemble's.
_LISTED = 20


def _matrix_files(methods, components):
    """Name patterns (``{}`` is K or L) of a report's K/L files, per method then component."""
    return [f"{{}}_{m}.csv" for m in methods] + [f"hankel_{{}}_{c}.csv" for c in components]


def _fit_files(methods, components):
    """The per-method and per-component files of a report."""
    names = {p.format(kind) for p in _matrix_files(methods, components) for kind in "KL"}
    return names | {f"model_{m}.txt" for m in methods}


def _trajectory_names(indices):
    """The file of each trajectory index of an export, in order."""
    return [f"trajectory_{index:05d}.csv" for index in indices]


def _export_owns(k):
    """Whether an export of ``k`` trajectories writes a file name, as a
    predicate that reads the name alone: index padded to five digits, below k."""

    def owns(name):
        match = _TRAJECTORY_FILE.fullmatch(name)
        index = int(match.group(1)) if match else k
        return index < k and _trajectory_names([index]) == [name]

    return owns


def refuse_foreign_output(cfg, writes="report"):
    """Raise before any work the :class:`ConfigurationError` that the writer
    of ``writes`` (``"report"``, ``"comparison"`` or ``"ensemble"``) would
    raise on ``cfg.output_dir`` for a file that no run of ``cfg`` can write.
    The names depend on the config only; ``emit_report`` still checks the
    fits that the run made."""
    if writes == "comparison":
        owns = _COMPARISON_FILES.__contains__
    elif writes == "ensemble":
        owns = _export_owns(cfg.K)
    else:
        components = hankel.estimated_components(derive_schedules(cfg), _targets(cfg))
        owns = (_REPORT_FILES | _fit_files(_methods(cfg), components)).__contains__
    _refuse_foreign(Path(cfg.output_dir), owns)


def _refuse_foreign(directory, owns):
    """Raise before anything is written if the OS cannot stat or create
    ``directory`` (a NUL byte, a name over NAME_MAX), if it is a file or a
    dangling link, or lies below one, or if it holds a file that mredmd
    writes (a report, comparison or trajectory file) whose name ``owns``
    rejects: it belongs to another report."""
    try:
        existing = next(p for p in (directory, *directory.parents) if _lexists(p))
    except OSError as exc:
        raise ConfigurationError(f"cannot write to {directory}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigurationError(f"cannot write to {directory}: {exc}") from None
    if not existing.is_dir():
        raise ConfigurationError(f"cannot write to {directory}: {existing} is not a directory")
    missing = [len(os.fsencode(part)) for part in directory.relative_to(existing).parts]
    if missing and max(missing) > os.pathconf(existing, "PC_NAME_MAX"):
        raise ConfigurationError(f"cannot write to {directory}: File name too long")
    stale = sorted(
        name
        for name in (path.name for path in directory.glob("*"))
        if not owns(name)
        and (
            name in _REPORT_FILES | _COMPARISON_FILES
            or _PER_FIT_FILE.fullmatch(name)
            or _TRAJECTORY_FILE.fullmatch(name)
        )
    )
    if stale:
        shown = ", ".join(stale[:_LISTED])
        if len(stale) > _LISTED:
            shown += f" and {len(stale) - _LISTED} more"
        raise ConfigurationError(
            f"{directory} holds files of another report: {shown}; "
            "write to a new or empty directory"
        )


def _lexists(path):
    """Whether ``path`` names a file, directory or link, dangling or not;
    an error other than a missing path or a file as a directory raises."""
    try:
        path.lstat()
    except (FileNotFoundError, NotADirectoryError):
        return False
    return True


def _write_csv(path, lines, blocks=()):
    """Write CSV ``lines`` (of a report, a comparison or a trajectory), each
    comma-joined by its caller and ended with ``\n``, then the lines of each
    nonempty list of ``blocks``: a long file streams one block at a time,
    and each block's text is written, then its final ``\n``, with no copy.

    No cell needs quoting: cells are method names, ints and float text. A
    float is always written as the ``repr`` of a Python float (:func:`_fmt`,
    or ``repr`` of ``tolist()`` values), never of a NumPy scalar, whose
    ``repr`` is ``np.float64(0.1)`` under NumPy 2.
    """
    with open(path, "w", newline="") as fh:
        for block in chain((lines,), filter(None, blocks)):
            fh.write("\n".join(block))
            fh.write("\n")


def _fmt(x):
    return repr(float(x))


def _write_matrix_csv(path, matrix):
    _write_csv(path, (",".join(map(_fmt, row)) for row in np.atleast_2d(matrix)))


def emit_report(report, directory):
    """Write the report files; byte-identical for identical runs.

    Files: ``spectrum.csv`` (method,index,real,imag), ``prediction.csv``
    (method,trajectory,t,component,truth,predicted), ``summary.json``,
    ``dictionary.txt``, per-method K/L matrices, and per-component Hankel
    operator dumps. ``prediction.csv`` is streamed: its header, then each
    method's lines as one block, so the whole file's lines or text are
    never held at once.

    Raises
    ------
    ConfigurationError
        Before writing anything, naming each per-method or per-component
        file in ``directory`` that this report would not overwrite, and each
        comparison or trajectory file (:func:`emit_comparison`,
        :func:`export_ensemble`), as it belongs to another report. The same
        report rewrites every file.
    """
    directory = Path(directory)
    methods = [method for method in report.methods if method in report.models]
    operators = sorted(report.component_operators.items())
    components = [comp for comp, _ in operators]
    _refuse_foreign(directory, (_REPORT_FILES | _fit_files(methods, components)).__contains__)
    directory.mkdir(parents=True, exist_ok=True)

    lines = ["method,index,real,imag"]
    for method in report.methods:
        if method in report.spectra:
            for idx, lam in enumerate(report.spectra[method]):
                lines.append(f"{method},{idx},{_fmt(lam.real)},{_fmt(lam.imag)}")
    _write_csv(directory / "spectrum.csv", lines)

    blocks = ()
    if report.eval_times is not None:
        times = list(map(repr, report.eval_times.tolist()))
        truth = report.eval_truth
        # the method-independent part of each line, built once
        prefixes = [
            f"{k},{times[j]},{comp},{obs!r},"
            for (k, j, comp), obs in zip(product(*map(range, truth.shape)), truth.ravel().tolist())
        ]
        # one method's lines at a time, never the whole file's
        blocks = (
            [
                f"{method},{prefix}{pred!r}"
                for prefix, pred in zip(prefixes, report.predictions[method].ravel().tolist())
            ]
            for method in report.methods
            if method in report.predictions
        )
    header = ["method,trajectory,t,component,truth,predicted"]
    _write_csv(directory / "prediction.csv", header, blocks)

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
    (directory / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    if report.dictionary is not None:
        (directory / "dictionary.txt").write_text(report.dictionary.manifest())

    fits = [report.models[m] for m in methods] + [op for _, op in operators]
    for pattern, fit in zip(_matrix_files(methods, components), fits):
        _write_matrix_csv(directory / pattern.format("K"), fit.k_mat)
        _write_matrix_csv(directory / pattern.format("L"), fit.l_mat)
    for method in methods:
        model = report.models[method]
        (directory / f"model_{method}.txt").write_text(
            f"step: {model.step!r}\nimag_residual: {model.imag_residual!r}\n"
            f"dictionary:\n{model.dictionary.manifest()}"
        )
    lines = ["component,imag_residual"]
    lines += [f"{comp},{_fmt(op.imag_residual)}" for comp, op in operators]
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
        (:func:`emit_report`) or of an ensemble (:func:`export_ensemble`)
        in ``directory``.
    """
    directory = Path(directory)
    _refuse_foreign(directory, _COMPARISON_FILES.__contains__)
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


def export_ensemble(ensemble, directory):
    """Write one CSV per trajectory with columns ``component,time,value``,
    named ``trajectory_<index>.csv`` with the index padded to five digits.

    Raises
    ------
    ConfigurationError
        Before writing anything, naming each file in ``directory`` of a report,
        a comparison or another ensemble, which an import would read as one.
    """
    directory = Path(directory)
    names = _trajectory_names(ensemble.indices.tolist())
    _refuse_foreign(directory, set(names).__contains__)
    directory.mkdir(parents=True, exist_ok=True)
    for k, name in enumerate(names):
        lines = ["component,time,value"]
        for comp in sorted(ensemble.times):
            rows = zip(ensemble.times[comp].tolist(), ensemble.values[comp][k].tolist())
            lines += [f"{comp},{t!r},{v!r}" for t, v in rows]
        _write_csv(directory / name, lines)


def _trajectory_files(directory):
    """(index, path) of each trajectory file in ``directory``, by parsed
    index: names sort "trajectory_100000" before "trajectory_99999"."""
    return sorted(
        (int(match.group(1)), path)
        for path in Path(directory).glob("trajectory_*.csv")
        if (match := _TRAJECTORY_FILE.fullmatch(path.name)) is not None
    )


def import_ensemble(directory):
    """Read an ensemble written by :func:`export_ensemble`.

    This is the validation boundary for outside data.

    Raises
    ------
    DataError
        Naming the file, and the line where there is one, for two files
        with the same trajectory index, a bad header or row, a non-finite
        value, sample times that are not strictly increasing, a component
        missing from some files, or sample times that differ between files
        by more than ``TIME_MATCH_TOL``.
    """
    files = _trajectory_files(directory)
    if not files:
        raise DataError(f"no trajectory CSV files found in {directory}")
    for (index, path), (next_index, other) in zip(files, files[1:]):
        if index == next_index:
            raise DataError(f"{path} and {other} both hold trajectory {index}")
    first = files[0][1].name
    times, values = {}, {}
    for _, path in files:
        series = _read_trajectory_csv(path)
        if times and set(series) != set(times):
            raise DataError(
                f"{path}: components {sorted(series)} differ from {sorted(times)} in {first}"
            )
        for comp, (t, v) in series.items():
            ref = times.setdefault(comp, t)
            if t.shape != ref.shape or np.any(np.abs(t - ref) > TIME_MATCH_TOL):
                raise DataError(
                    f"{path}: component {comp} sample times differ from those in "
                    f"{first} by more than {TIME_MATCH_TOL:g} s"
                )
            values.setdefault(comp, []).append(v)
    return Ensemble(
        times=times,
        values={comp: np.stack(rows) for comp, rows in values.items()},
        indices=[index for index, _ in files],
    )


def _read_trajectory_csv(path):
    """{component: (times, values)} of one trajectory file."""
    import csv  # here: only an import reads CSV, and every CLI start imports this module

    series = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["component", "time", "value"]:
                raise DataError(f"{path}: unexpected header {header!r}")
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                try:
                    comp, t, v = row
                    comp, t, v = int(comp), float(t), float(v)
                except ValueError:
                    raise DataError(
                        f"{where}: expected 'component,time,value', got {row!r}"
                    ) from None
                if not (math.isfinite(t) and math.isfinite(v)):
                    raise DataError(f"{where}: non-finite time or value")
                times, vals = series.setdefault(comp, ([], []))
                if times and t <= times[-1]:
                    raise DataError(
                        f"{where}: component {comp} time {t!r} does not follow {times[-1]!r}"
                    )
                times.append(t)
                vals.append(v)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from exc
    if not series:
        raise DataError(f"{path}: no samples")
    return {comp: (np.array(t), np.array(v)) for comp, (t, v) in series.items()}

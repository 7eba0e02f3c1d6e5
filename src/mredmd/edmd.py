"""EDMD on state pairs: least-squares Koopman matrix fit, generator
extraction via the principal logarithm, spectra, and lifted-space prediction.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ConfigurationError,
    DivergenceWarning,
    RankDeficiencyWarning,
    check_integer,
    check_number,
    labelled,
)
from .observables import Dictionary, coordinate_readout


@dataclass
class StatePairEnsemble:
    """K state pairs (x, y) with y the state one step T_s after x.

    ``x`` and ``y`` are column-stacked, shape (n, K). Provenance flags record
    per component whether the value was measured or estimated: a tuple of n
    bools, ``()`` (the default) for all measured.
    """

    x: np.ndarray
    y: np.ndarray
    step: float
    x_estimated: tuple = ()
    y_estimated: tuple = ()

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2 or self.x.shape != self.y.shape:
            raise ConfigurationError(
                f"x and y must be matching (n, K) arrays, got {self.x.shape} and {self.y.shape}"
            )
        if self.x.shape[1] < 1:
            raise ConfigurationError("ensemble needs at least one pair")
        check_number(self.step, "step", positive=True)
        n = self.x.shape[0]
        for name in ("x_estimated", "y_estimated"):
            flags = getattr(self, name)
            bools = isinstance(flags, tuple) and all(isinstance(f, bool) for f in flags)
            if not bools or len(flags) not in (0, n):
                raise ConfigurationError(f"{name} must be a tuple of {n} bools, got {flags!r}")
            setattr(self, name, flags or (False,) * n)

    @property
    def n_pairs(self):
        return self.x.shape[1]


class ComplexGenerator:
    """A fit that keeps its generator complex, as ``l_complex``."""

    @property
    def l_mat(self):
        """Real-cast generator (C-contiguous real part of ``l_complex``)."""
        return np.ascontiguousarray(self.l_complex.real)

    @property
    def imag_residual(self):
        """Largest absolute imaginary part that ``l_mat`` discards."""
        return float(np.max(np.abs(self.l_complex.imag)))


@dataclass
class KoopmanModel(ComplexGenerator):
    """Finite Koopman approximation on a monomial dictionary.

    ``k_mat`` advances lifted vectors by one step of length ``step``;
    ``l_complex`` is the principal logarithm of ``k_mat`` over ``step``.
    States are read out of lifted vectors through the coordinate
    observables of ``dictionary`` (:func:`coordinate_readout`).
    """

    dictionary: Dictionary
    k_mat: np.ndarray
    l_complex: np.ndarray
    step: float


def fit_models(pair_sets, dictionary):
    """Lift each of ``pair_sets`` into (P_x, P_y) and fit K = P_y P_x^+ plus
    the generator L = log(K)/step, all in one :func:`linalg.koopman_fit` of
    the stacked lifts. The sets hold the same number of pairs of one state
    size at one step (as the seeds of a sweep do); the ``x`` of all sets
    are lifted in one :meth:`Dictionary.evaluate_columns` call, and the
    ``y`` in another.

    Fewer pairs than observables emit a :class:`RankDeficiencyWarning`. The
    fit's warnings and a singular-K error are labelled with the pair and
    observable counts, e.g. ``EDMD fit (9 pairs, 10 observables):``.
    Warnings come by kind: the rank warnings of all sets, then the fits'.

    Raises
    ------
    ConfigurationError
        If the sets differ in size or step.
    SingularMatrixError
        If a fitted K is singular so no generator exists.
    """
    pair_sets = list(pair_sets)
    if not pair_sets:
        return []
    first = pair_sets[0]
    if any(p.x.shape != first.x.shape or p.step != first.step for p in pair_sets):
        raise ConfigurationError("pair sets fit together must share their size and step")
    p_xs, p_ys = (_lifted([getattr(p, side) for p in pair_sets], dictionary) for side in "xy")
    if first.n_pairs < dictionary.size:
        for _ in pair_sets:
            warnings.warn(
                f"only {first.n_pairs} pairs for a dictionary of size "
                f"{dictionary.size}; the fit is underdetermined",
                RankDeficiencyWarning,
                stacklevel=2,
            )
    with labelled(f"EDMD fit ({first.n_pairs} pairs, {dictionary.size} observables)"):
        k_mats, l_complex = linalg.koopman_fit(p_xs, p_ys, first.step)
    return [
        KoopmanModel(dictionary=dictionary, k_mat=k, l_complex=l, step=first.step)
        for k, l in zip(k_mats, l_complex)
    ]


def _lifted(states, dictionary):
    """The lifts (B, N, K) of ``states``, B arrays (n, K), from one
    :meth:`Dictionary.evaluate_columns` call; each column's lift depends on
    that column alone, and one array's lift is a view of the call's."""
    lifted = dictionary.evaluate_columns(np.concatenate(states, axis=1))
    by_set = lifted.reshape(len(lifted), len(states), -1)  # (N, B, K)
    return np.ascontiguousarray(by_set.swapaxes(0, 1))


def predict_models(models, x0, steps, mode="rollout"):
    """Predict the states of each of ``models`` at t = step, 2*step, ...,
    steps*step from ``x0``: one state (n,), a batch (B, n), or per-model
    rows (M, B, n), of which model m takes ``x0[m]``. The result has shape
    (M, steps, n) for one state and (M, B, steps, n) otherwise.

    ``rollout`` iterates z <- K z in lifted space and reads coordinates out
    through the selector matrix; ``relift`` re-lifts the read-out state at
    every step instead. The models share one dictionary (as the models of a
    report, or of the seeds of a sweep, do) and advance in one loop: one
    lift per step for all, and one gemv per model and row, so each row has
    the bits of its own one-model call. A row that becomes non-finite is NaN
    from that step on and emits a :class:`DivergenceWarning`, by model, then
    by row.

    Raises
    ------
    ConfigurationError
        If the models do not share one dictionary, ``steps`` is not an
        integer >= 1 (bools refused, NumPy integers accepted), or the
        predictions cannot be allocated.
    """
    models = list(models)
    if not models:
        raise ConfigurationError("no models to predict")
    dictionary = models[0].dictionary
    if any(model.dictionary != dictionary for model in models):
        raise ConfigurationError("models to predict together must share one dictionary")
    try:
        readout = coordinate_readout(dictionary)
    except ConfigurationError:
        raise ConfigurationError(
            "model dictionary has no coordinate observables; cannot read out states"
        ) from None
    steps = check_integer(steps, "steps", 1)
    if mode not in ("rollout", "relift"):
        raise ConfigurationError(f"unknown prediction mode {mode!r}")
    x0 = np.asarray(x0, dtype=float)
    n = dictionary.dim
    own = x0.ndim == 3 and len(x0) == len(models)
    if not (x0.ndim in (1, 2) or own) or x0.shape[-1] != n:
        expected = f"({n},) or (B, {n}) or ({len(models)}, B, {n})"
        raise ConfigurationError(f"x0 has shape {x0.shape}, expected {expected}")
    x = np.atleast_2d(x0)
    shape = (len(models), x.shape[-2], steps, n)
    try:
        out = np.empty(shape)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond the address space
        raise ConfigurationError(
            f"cannot allocate the predictions: steps={steps} requests "
            f"{math.prod(shape) * 8 / 2**30:.3g} GiB for an array of shape {shape}"
        ) from exc
    diverged_at = np.zeros(out.shape[:2], dtype=int)
    _advance(models, dictionary, readout, x, mode, out, diverged_at)
    for m, row in np.argwhere(diverged_at > 0).tolist():
        j = int(diverged_at[m, row])
        out[m, row, j - 1 :] = np.nan
        warnings.warn(
            f"prediction diverged at step {j} of {steps}; output truncated",
            DivergenceWarning,
            stacklevel=2,
        )
    return out if x0.ndim > 1 else out[:, 0]


def _advance(models, dictionary, readout, x, mode, out, diverged_at):
    """Fill ``out`` (M, B, steps, n) with the predictions of ``models``,
    which share ``dictionary`` and its ``readout``, from the rows of ``x``
    (B, n) or from each model's own rows (M, B, n), and ``diverged_at``
    (M, B) with the 1-based step at which each model's row became
    non-finite (0 if it did not)."""
    n_models, n_rows, steps, n = out.shape
    k_mats = np.stack([model.k_mat for model in models])[:, None]  # (M, 1, N, N)
    x = np.broadcast_to(x, (n_models, n_rows, n))
    for j in range(steps):
        if j == 0 or mode == "relift":
            lifted = dictionary.evaluate_columns(x.reshape(-1, n).T)
            z = np.ascontiguousarray(lifted.T).reshape(n_models, n_rows, -1, 1)
        # (M, B, N, 1) is one gemv per model and row, as for one state; a
        # gemm would round differently
        z = np.matmul(k_mats, z)
        x = np.matmul(readout, z)[..., 0]
        dead = diverged_at > 0
        diverged = ~(dead | np.isfinite(x).all(axis=-1))
        diverged_at[diverged] = j + 1
        dead |= diverged
        if dead.any():
            # a diverged row runs on from zero, which raises no warning; the
            # caller makes it NaN from the step it diverged
            z[dead], x[dead] = 0.0, 0.0
        out[:, :, j] = x


def generator_spectra(models):
    """Eigenvalues of each of ``models``' real-cast generator matrices, from
    one :func:`linalg.eigenvalues` call on their stack; the models share
    their size (as the models of a report, or of the seeds of a sweep, do).

    Raises
    ------
    ConfigurationError
        If the models differ in size.
    """
    generators = [model.l_mat for model in models]
    if not generators:
        return []
    if any(g.shape != generators[0].shape for g in generators):
        raise ConfigurationError("models whose spectra are taken together must share their size")
    return list(linalg.eigenvalues(np.stack(generators)))


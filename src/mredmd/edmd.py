"""EDMD on state pairs: least-squares Koopman matrix fit, generator
extraction via the principal logarithm, spectra, and lifted-space prediction.
"""

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import linalg
from .errors import ConfigurationError, DivergenceWarning, RankDeficiencyWarning, labelled
from .observables import Dictionary, coordinate_readout


@dataclass
class StatePairEnsemble:
    """K state pairs (x, y) with y the state one step T_s after x.

    ``x`` and ``y`` are column-stacked, shape (n, K). Provenance flags record
    per component whether the value was measured or estimated.
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
        if self.step <= 0:
            raise ConfigurationError(f"step must be > 0, got {self.step}")
        n = self.x.shape[0]
        if not self.x_estimated:
            self.x_estimated = (False,) * n
        if not self.y_estimated:
            self.y_estimated = (False,) * n

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
    """

    dictionary: Dictionary
    k_mat: np.ndarray
    l_complex: np.ndarray
    step: float
    readout: Optional[np.ndarray]


def fit_model(pairs, dictionary):
    """Lift state pairs into (P_x, P_y) and fit K = P_y P_x^+ plus the
    generator L = log(K)/step.

    Fewer pairs than observables emit a :class:`RankDeficiencyWarning`. See
    :func:`linalg.koopman_fit`; an imaginary part of L above 1e-6 emits a
    warning. Its warnings and a singular-K error are labelled with the pair
    and observable counts, e.g. ``EDMD fit (9 pairs, 10 observables):``.

    Raises
    ------
    SingularMatrixError
        If the fitted K is singular so no generator exists.
    """
    p_x = dictionary.evaluate_columns(pairs.x)
    p_y = dictionary.evaluate_columns(pairs.y)
    if pairs.n_pairs < dictionary.size:
        warnings.warn(
            f"only {pairs.n_pairs} pairs for a dictionary of size "
            f"{dictionary.size}; the fit is underdetermined",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    with labelled(f"EDMD fit ({pairs.n_pairs} pairs, {dictionary.size} observables)"):
        k_mat, l_complex = linalg.koopman_fit(p_x, p_y, pairs.step)
    try:
        readout = coordinate_readout(dictionary)
    except ConfigurationError:
        readout = None
    return KoopmanModel(
        dictionary=dictionary, k_mat=k_mat, l_complex=l_complex, step=pairs.step, readout=readout
    )


def predict(model, x0, steps, mode="rollout"):
    """Predict states at t = step, 2*step, ..., steps*step.

    ``rollout`` iterates z <- K z in lifted space and reads coordinates out
    through the selector matrix; ``relift`` re-lifts the read-out state at
    every step instead.

    ``x0`` is one initial state (n,) or a batch (B, n), predicted with the
    same arithmetic as each row alone. A row that becomes non-finite is NaN
    from that step on, leaves the batch, and emits a
    :class:`DivergenceWarning` (in row order).

    Returns
    -------
    np.ndarray
        Shape (steps, n) for one initial state, (B, steps, n) for a batch.
    """
    if model.readout is None:
        raise ConfigurationError(
            "model dictionary has no coordinate observables; cannot read out states"
        )
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    if mode not in ("rollout", "relift"):
        raise ConfigurationError(f"unknown prediction mode {mode!r}")
    x0 = np.asarray(x0, dtype=float)
    n = model.dictionary.dim
    if x0.ndim not in (1, 2) or x0.shape[-1] != n:
        raise ConfigurationError(f"x0 has shape {x0.shape}, expected ({n},) or (B, {n})")
    x = np.atleast_2d(x0)
    out = np.full((len(x), steps, n), np.nan)
    rows, diverged_at = np.arange(len(x)), np.zeros(len(x), dtype=int)
    for j in range(steps):
        if j == 0 or mode == "relift":
            z = np.ascontiguousarray(model.dictionary.evaluate_columns(x.T).T)[:, :, None]
        # (B, N, 1) is one gemv per row, as for one state; a gemm would round differently
        z = np.matmul(model.k_mat, z)
        x = np.matmul(model.readout, z)[:, :, 0]
        finite = np.all(np.isfinite(x), axis=1)
        if not finite.all():
            diverged_at[rows[~finite]] = j + 1
            rows, z, x = rows[finite], z[finite], x[finite]
        out[rows, j] = x
    for j in diverged_at[diverged_at > 0].tolist():
        warnings.warn(
            f"prediction diverged at step {j} of {steps}; output truncated",
            DivergenceWarning,
            stacklevel=2,
        )
    return out if x0.ndim == 2 else out[0]


def generator_spectrum(model):
    """Eigenvalues of the real-cast generator matrix."""
    return linalg.eigenvalues(model.l_mat)


def write_matrix_csv(path, matrix):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in np.atleast_2d(matrix):
            writer.writerow([repr(float(v)) for v in row])


def save_model(model, directory, name):
    """Serialize a model: K/L matrices as CSV plus a text manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(directory / f"K_{name}.csv", model.k_mat)
    write_matrix_csv(directory / f"L_{name}.csv", model.l_mat)
    manifest = [
        f"step: {model.step!r}",
        f"imag_residual: {model.imag_residual!r}",
        "dictionary:",
        model.dictionary.manifest().rstrip("\n"),
    ]
    (directory / f"model_{name}.txt").write_text("\n".join(manifest) + "\n")

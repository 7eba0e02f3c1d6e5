"""Exception and warning types shared across the package, the checks of
the integer counts and finite numbers that public entries take, the label
that names the fit a warning or a singular-matrix error came from, and the
test that lets a batched call stand for its items."""

import numbers
import sys
import warnings
from contextlib import contextmanager

import numpy as np


class MredmdError(Exception):
    """Base class for all package-specific errors."""


class NumericalError(MredmdError):
    """A dense kernel failed to converge or produced unusable output."""


class SingularMatrixError(NumericalError):
    """Matrix is singular (or numerically singular) where invertibility is required."""


class DimensionMismatchError(MredmdError, ValueError):
    """Operands have incompatible shapes or cardinalities."""


class ConfigurationError(MredmdError, ValueError):
    """Invalid or inconsistent configuration (schedules, dictionaries, config files)."""


class DataError(MredmdError, ValueError):
    """Input data does not match the declared sampling schedule."""


class DivergenceError(MredmdError, RuntimeError):
    """A trajectory or estimate became non-finite."""


class MredmdWarning(UserWarning):
    """Base class for all package-specific warnings."""


class NegativeRealAxisWarning(MredmdWarning):
    """An eigenvalue lies on the closed negative real axis; the principal
    logarithm exists but is genuinely complex."""


class ImaginaryResidualWarning(MredmdWarning):
    """A matrix expected to be real carries an imaginary part above tolerance."""


class IllConditionedWarning(MredmdWarning):
    """A data matrix is ill-conditioned; the least-squares fit may be unreliable."""


class RankDeficiencyWarning(MredmdWarning):
    """Fewer data columns than rows; the data matrix cannot be full row rank."""


class ExtrapolationWarning(MredmdWarning):
    """An estimate is requested outside (or far beyond) the sampled window."""


class DivergenceWarning(MredmdWarning):
    """A prediction rollout became non-finite and was truncated."""


def check_integer(value, name, low, high=None):
    """``int(value)`` for an integer >= ``low`` and, unless ``high`` is
    None, <= ``high`` (NumPy integers accepted); otherwise, bools included,
    a :class:`ConfigurationError` whose message starts with ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}")
    if high is not None and value > high:
        raise ConfigurationError(f"{name} must be <= {high}, got {value!r}")
    return int(value)


def check_number(value, name, positive=False):
    """``float(value)`` for a finite real number, > 0 if ``positive``
    (NumPy scalars accepted); otherwise, bools and ints beyond the float
    range included, a :class:`ConfigurationError` whose message starts
    with ``name``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    # comparisons refuse nan, and an int beyond the float range unconverted
    if not (real and abs(value) <= sys.float_info.max and (value > 0 or not positive)):
        bound = " > 0" if positive else ""
        raise ConfigurationError(f"{name} must be a finite number{bound}, got {value!r}")
    return float(value)


@contextmanager
def labelled(label):
    """Prefix ``label: `` to the warnings raised inside, re-emitted in order
    (also before an error propagates), and to a :class:`SingularMatrixError`."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                yield
            except SingularMatrixError as exc:
                raise SingularMatrixError(f"{label}: {exc}") from exc
    finally:
        for w in caught:
            warnings.warn(f"{label}: {w.message}", w.category, stacklevel=4)


def quiet(call):
    """``(True, call())`` if the call neither warns nor fails with a
    :class:`MredmdError` or a NumPy ``LinAlgError``; ``(False, None)`` if
    it does, from its first warning on (warnings are errors inside).

    A batched call runs through this first: when it is not clean, its
    caller replays it item by item, so the warnings and errors are those
    of the items alone, in their order.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return True, call()
        except (MredmdError, np.linalg.LinAlgError, Warning):
            return False, None

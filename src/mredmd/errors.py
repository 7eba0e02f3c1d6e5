"""Exception and warning types shared across the package."""


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

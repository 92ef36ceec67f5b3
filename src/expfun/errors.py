"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems (bad model
files, rejected parameters) exit with 2, numerical failures with 3 and
failed validation checks with 4.
"""


class ExpfunError(Exception):
    """Base class for all package errors."""


class SpecFileError(ExpfunError):
    """A model-spec document could not be parsed or violates the schema."""


class DomainError(ExpfunError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureError(ExpfunError):
    """An integral could not be evaluated to the requested tolerance."""


class NoConvergence(QuadratureError):
    """Adaptive refinement hit its subdivision budget before converging."""


class IllConditioned(ExpfunError):
    """A limit extrapolation has residuals too large to be trusted."""


class NotConvergent(ExpfunError):
    """Empirical tail ratios do not stabilize; no decay index can be fitted."""


class MissingDensity(ExpfunError):
    """A fractional negative moment was requested without a density to seed it."""


class TruncationError(ExpfunError):
    """No admissible truncation point exists, or one was supplied where the
    support is already determined by the drift."""


class DenominatorError(ExpfunError):
    """A back-substitution denominator is not positive."""

    def __init__(self, index, value, message=None):
        self.index = index
        self.value = value
        if message is None:
            message = (
                f"back-substitution denominator D[{index}] = {value:.3e} <= 0; "
                "refine the grid (delta closer to 1 with more cells): the "
                "self-cell weight W_0 shrinks with the log step"
            )
        super().__init__(message)


class NonPositive(ExpfunError):
    """The solved step density has a negative or non-finite height, or no
    positive mass."""


class InfiniteFunctional(ExpfunError):
    """The exponential functional is almost surely infinite for this model."""


class CutoffError(ExpfunError):
    """The small-jump cutoff is too coarse for the jump measure."""


class InsufficientGrid(ExpfunError):
    """A validation check needs more grid resolution than is available."""

"""Exception types shared across the laboratory."""


class LyubichLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMapError(LyubichLabError, ValueError):
    """The coefficient data does not define a usable rational map."""


class RootFindingFailure(LyubichLabError):
    """The polynomial root finder did not converge; input is ill-conditioned."""


class ExceptionalRoot(LyubichLabError, ValueError):
    """The requested root has a finite backward orbit, so the preimage
    measures are undefined there."""


class BudgetExceeded(LyubichLabError):
    """A tree or sample would exceed the configured atom budget."""


class DegenerateSample(LyubichLabError, ValueError):
    """The sample is too small or too degenerate for the requested operation."""


class CoverFailure(LyubichLabError):
    """The bump net does not cover the sample at the requested radius."""


class EigSolverFailure(LyubichLabError):
    """The eigensolver of the sibling blocks failed to converge."""


class NoVanishingTail(LyubichLabError):
    """Every basis element meets the support of the given function; the
    basis ordering provides no vanishing tail."""

"""Exception hierarchy shared by all estimation and simulation routines."""

from __future__ import annotations


class PulseIVError(Exception):
    """Base class for errors raised by this package."""


class DataError(PulseIVError):
    """Malformed input data: missing columns, non-numeric cells, bad shapes."""


class SingularGram(PulseIVError):
    """A Gram matrix failed the reciprocal-condition-number check.

    The message names the offending matrix, e.g. ``"A^T A"``.
    """

    def __init__(self, matrix_name: str, rcond: float | None = None):
        self.matrix_name = matrix_name
        self.rcond = rcond
        detail = f" (rcond={rcond:.3e})" if rcond is not None else ""
        super().__init__(f"Gram matrix {matrix_name} is numerically singular{detail}")


class SingularPopulationGram(PulseIVError):
    """A population moment matrix is numerically singular."""


class UnderIdentified(PulseIVError):
    """TSLS (``kappa = 1``) does not exist, as ``q2 < d1``; use ``modified_tsls``."""


class InfeasibleConstraint(PulseIVError):
    """The exact moment condition A^T Z alpha = A^T y has no solution."""


class ZeroResidual(PulseIVError):
    """The OLS loss at the requested coefficient is numerically zero."""


class DegenerateResidual(PulseIVError):
    """The residual lies entirely in the span of the exogenous variables."""


class OutOfDomain(PulseIVError):
    """A constraint bound lies outside the solvable domain."""


class NonMonotoneDetected(PulseIVError):
    """The test statistic failed to drop below the threshold below float overflow.

    Signals numerical breakdown of the monotone search, not infeasibility:
    the finite-penalty guard has already passed when this is raised.
    """


class NonStationary(PulseIVError):
    """The structural matrix has spectral radius at or above one."""

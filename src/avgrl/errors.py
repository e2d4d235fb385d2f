"""Exception types shared across the package.

Every error raised on a contract violation derives from AvgrlError so callers
(and the CLI) can distinguish "the math said no" from programming bugs.
"""

from __future__ import annotations


class AvgrlError(Exception):
    """Base class for all package-level errors."""


class NotIrreducible(AvgrlError):
    """The induced Markov chain has more than one closed communicating class."""


class SingularSystem(AvgrlError):
    """A linear system that should be uniquely solvable was singular."""


class SingularA(AvgrlError):
    """The critic matrix A is singular; no TD(0) fixed point exists."""


class InfeasibleDimension(AvgrlError):
    """Feature construction cannot satisfy its invariants at the requested size."""


class PeriodicChain(AvgrlError):
    """Total-variation distances show no geometric decay within the horizon."""


class BudgetExceeded(AvgrlError):
    """Exhaustive enumeration would exceed the configured policy budget."""


class InvalidSpec(AvgrlError):
    """A requested value or description is out of range or inconsistent."""


class ParseError(AvgrlError):
    """A file could not be parsed into the expected schema."""


class InvariantViolation(AvgrlError):
    """An object refuses a value it would hold: a run or schedule setting, a
    parameter vector or a loaded environment breaks a stated invariant."""


class InsufficientData(AvgrlError):
    """Not enough rows to fit the requested estimate."""


class OracleFailure(AvgrlError):
    """An exact solve required during a learning run failed."""


class Diverged(AvgrlError):
    """A sampled iterate left the floating-point range: its squared norm is not finite."""

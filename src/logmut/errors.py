"""Exception taxonomy for the mutation calculus.

Every failure mode of the library maps to one of these classes so that the CLI
can translate exceptions into stable exit codes.
"""


class LogMutError(Exception):
    """Base class for all library errors."""


class InvalidDatum(LogMutError):
    """A raw edge list does not form a valid log datum."""


class ZeroVector(InvalidDatum):
    """An edge vector is (0,0)."""


class ClosureViolation(InvalidDatum):
    """The edge vectors do not sum to zero."""


class DuplicateDirection(InvalidDatum):
    """Two edges share the same primitive direction."""


class PartitionSumMismatch(InvalidDatum):
    """A partition does not sum to the integral length of its edge."""


class TooFewEdges(LogMutError):
    """Rank is undefined for data with fewer than two edges."""


class NotRankOne(LogMutError):
    """Operation requires a rank-one datum (exactly two edges)."""


class NotRankTwo(LogMutError):
    """Operation requires a rank-two datum (more than two edges)."""


class IllegalMutation(LogMutError):
    """Requested mutation violates the height bound or addresses nothing."""


class ShapeMismatch(LogMutError):
    """A wall assignment's edge count does not match the datum."""


class SubordinationRequired(LogMutError):
    """Genericity is only defined for subordinate wall assignments."""


class WallSynthesisError(LogMutError):
    """No generic wall assignment of the supported shapes exists for this datum."""


class FactorTooLarge(LogMutError):
    """A wall assignment's factor is above wallfn.MAX_GROEBNER_DEGREE."""

"""Exceptions shared by the whole package."""


class CommendError(Exception):
    """Base class for all package errors."""


class NotDivisible(CommendError):
    """Exact polynomial division has a nonzero remainder."""


class NotASquare(CommendError):
    """The polynomial (or coefficient) is not a perfect square."""


class BothZero(CommendError):
    """Resultant of two zero polynomials is undefined."""


class DegreeLimitExceeded(CommendError):
    """An iterate or orbit computation passed the session degree cap."""


class ZeroJacobian(CommendError):
    """The Jacobian determinant vanishes identically (non-open map)."""


class NotExtendable(CommendError):
    """The map does not extend to the projective plane."""


class NotIsolated(CommendError):
    """The origin is not an isolated common zero of the two curves."""


class ShapeMismatch(CommendError):
    """Input does not have the local normal shape the operation requires."""


class CommutationFails(CommendError):
    """The reduced one-variable maps do not commute."""


class InfinityWeightViolation(CommendError):
    """A weight-infinity point has a preimage outside the weight-infinity set."""


class BadPointCount(CommendError):
    """Marked point count does not fit the requested signature."""


class NoCaseMatch(CommendError):
    """A ramification portrait or a one-variable reduction fits none of the
    tabulated cases."""


class NotCommuting(CommendError):
    """The requested constructor parameters give a non-commuting pair."""


class ScalarNotSolvable(CommendError):
    """The scalar equation has no solution in the session field."""


class NotSymmetric(CommendError):
    """The polynomial is not invariant under swapping x and y."""


class NotSplit(CommendError):
    """The cubic does not split into linear factors over the session field."""


class PreconditionViolated(CommendError):
    """A documented operation precondition does not hold."""


class BudgetExceeded(CommendError):
    """A computation ran past its budget; a search's has a partial summary."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ParseError(CommendError):
    """Syntax error in a polynomial expression; carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(CommendError):
    """Variable name outside the accepted alphabet."""


class RootOfUnityUndefined(CommendError):
    """'w' used while the session field is plain Q."""

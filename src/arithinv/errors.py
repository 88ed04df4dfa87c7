"""Exception types shared across the package."""


class InvariantError(Exception):
    """Base class for all errors raised by this package."""


# arithmetic primitives

class NotSquarefree(InvariantError):
    pass


class NoConvergence(InvariantError):
    pass


class FactorBudgetExceeded(InvariantError):
    pass


class NotADiscriminant(InvariantError):
    pass


# number fields

class ZeroElement(InvariantError):
    pass


class WrongUnitCount(InvariantError):
    pass


class DependentUnits(InvariantError):
    pass


class MissingUnits(InvariantError):
    pass


class DegreeMismatch(InvariantError):
    pass


class NotASubfield(InvariantError):
    pass


# upper half plane / periods

class NotUpperHalfPlane(InvariantError):
    pass


class TauNotReduced(InvariantError):
    pass


class AgmNoConvergence(InvariantError):
    pass


# elliptic curves

class SingularCurve(InvariantError):
    pass


class PointNotOnCurve(InvariantError):
    pass


class DependentPoints(InvariantError):
    pass


# corpus / cli

class ParseError(InvariantError):
    def __init__(self, message, line):
        super().__init__(message)
        self.line = line

    def __str__(self):  # the line first, also once the corpus names the record in args
        return "line %d: %s" % (self.line, self.args[0])


class DuplicateLabel(ParseError):
    pass


class DanglingSubfieldRef(ParseError):
    pass


class UnknownLabel(InvariantError):
    pass

"""Exception hierarchy shared by all modules."""


class KleinLatticeError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(KleinLatticeError):
    pass


class EmptyInput(KleinLatticeError):
    pass


class DegenerateLattice(KleinLatticeError):
    pass


class NotDefinite(KleinLatticeError):
    pass


class NotPrimitive(KleinLatticeError):
    pass


class NotHyperbolic(KleinLatticeError):
    pass


class NonPositiveVector(KleinLatticeError):
    pass


class NontrivialStabilizer(KleinLatticeError):
    pass


class NonStabilizing(KleinLatticeError):
    """A finiteness claim failed to stabilize before the word bound ran out."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class SearchExhausted(KleinLatticeError):
    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class CoverageFailure(KleinLatticeError):
    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DisjointnessFailure(KleinLatticeError):
    def __init__(self, message, word=None):
        super().__init__(message)
        self.word = word


class ReductionFailure(KleinLatticeError):
    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class NotNormal(KleinLatticeError):
    pass


class NotStable(KleinLatticeError):
    pass


class NotExactInput(KleinLatticeError):
    pass


class NotInner(KleinLatticeError):
    pass


class NoAntiInvolution(KleinLatticeError):
    pass


class NoInvariantInteriorPoint(KleinLatticeError):
    pass


class InvalidInput(KleinLatticeError):
    pass


class Undecidable(KleinLatticeError):
    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class UnsupportedRank(KleinLatticeError):
    pass


class ParseError(KleinLatticeError):
    pass

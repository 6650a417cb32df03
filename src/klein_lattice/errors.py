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


class VerificationFailure(KleinLatticeError):
    """A computation on valid input could not be verified; the CLI exits 2."""


class NontrivialStabilizer(VerificationFailure):
    pass


class NonStabilizing(VerificationFailure):
    """A finiteness claim failed to stabilize before the word bound ran out."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class SearchExhausted(VerificationFailure):
    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class CoverageFailure(VerificationFailure):
    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DisjointnessFailure(VerificationFailure):
    def __init__(self, message, word=None):
        super().__init__(message)
        self.word = word


class ReductionFailure(VerificationFailure):
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


class Undecidable(VerificationFailure):
    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class UnsupportedRank(KleinLatticeError):
    pass


class ParseError(KleinLatticeError):
    pass

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


class SearchExhausted(VerificationFailure):
    pass


class CoverageFailure(VerificationFailure):
    pass


class DisjointnessFailure(VerificationFailure):
    pass


class ReductionFailure(VerificationFailure):
    pass


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
    pass


class UnsupportedRank(KleinLatticeError):
    pass


class ParseError(KleinLatticeError):
    pass

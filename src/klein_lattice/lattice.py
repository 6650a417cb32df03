"""Integral quadratic lattices: signatures, radicals, complements, saturation,
discriminant groups and the hyperbolic/elliptic/parabolic trichotomy.

All arithmetic is exact; a lattice is just its Gram matrix.
"""

from enum import Enum
from fractions import Fraction

from . import intlinalg as la
from .errors import DegenerateLattice, DimensionMismatch, InvalidInput
from .frozen import Frozen


def integer_rows(rows, what):
    """rows as a tuple of int tuples.  Integral Fractions convert; any other
    entry is InvalidInput rather than truncated."""
    out = []
    for row in rows:
        try:
            ints = tuple(map(int, row))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInput(f"{what} entries must be integers") from exc
        if ints != tuple(row):
            raise InvalidInput(f"{what} entries must be integers")
        out.append(ints)
    return tuple(out)


def rational_point(v, n, what):
    """The primitive integer multiple of the rational point v of length n.
    A wrong length is DimensionMismatch; a v that is not a sequence, or an
    entry without an exact numerator and denominator (a float, a string,
    None), is InvalidInput.  The entries are not scanned: primitive_vector
    reads their denominators, and a non-rational entry fails there."""
    try:
        if len(v) != n:
            raise DimensionMismatch(f"{what} length != {n}")
        return la.primitive_vector(v)
    except (AttributeError, TypeError) as exc:
        raise InvalidInput(f"{what} entries must be ints or Fractions") from exc


class IntegerLattice(Frozen):
    """Finite-rank free abelian group with an integer symmetric bilinear form.

    The one place the form <u, v> = u^T G v is evaluated: pairings, norms,
    Gram matrices of vector lists and covectors all go through it.
    """

    gram: tuple

    def __post_init__(self):
        g = integer_rows(self.gram, "gram matrix")
        object.__setattr__(self, "gram", g)
        n = len(g)
        for row in g:
            if len(row) != n:
                raise InvalidInput("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise InvalidInput("gram matrix must be symmetric")

    @property
    def rank(self):
        return len(self.gram)

    def pairing(self, u, v):
        if len(u) != self.rank or len(v) != self.rank:
            raise DimensionMismatch("vector length != lattice rank")
        return la.dot(la.mat_vec(self.gram, v), u)

    def q(self, v):
        return self.pairing(v, v)

    def gram_of(self, vectors):
        """The matrix of pairings <u, v>, u by row and v by column."""
        if any(len(v) != self.rank for v in vectors):
            raise DimensionMismatch("vector length != lattice rank")
        covectors = [la.mat_vec(self.gram, v) for v in vectors]
        return tuple(tuple(la.dot(c, u) for c in covectors) for u in vectors)

    def covector(self, v):
        """The covector <v, .> of the form, as a primitive vector."""
        if len(v) != self.rank:
            raise DimensionMismatch("vector length != lattice rank")
        return la.primitive_vector(la.mat_vec(self.gram, v))

    def det(self):
        return la.bareiss_det(self.gram)


class Signature(Frozen):
    positive: int
    zero: int
    negative: int

    def as_tuple(self):
        return (self.positive, self.zero, self.negative)


class LatticeType(Enum):
    HYPERBOLIC = "Hyperbolic"
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    OTHER = "Other"


class Sublattice(Frozen):
    """Sublattice given by an explicit basis (row vectors in ambient coords)."""

    ambient: IntegerLattice
    basis: tuple

    def __post_init__(self):
        b = integer_rows(self.basis, "sublattice basis")
        object.__setattr__(self, "basis", b)
        n = self.ambient.rank
        for row in b:
            if len(row) != n:
                raise DimensionMismatch("basis vector length != ambient rank")
        if la.rank(b) != len(b):
            raise InvalidInput("basis vectors are linearly dependent")

    @property
    def rank(self):
        return len(self.basis)

    def is_primitive(self):
        """True iff ambient/span is torsion-free (all invariant factors 1)."""
        return all(f == 1 for f in la.invariant_factors(self.basis))

    def gram(self):
        """Gram matrix of the restricted form in the given basis."""
        return self.ambient.gram_of(self.basis)

    def as_lattice(self):
        return IntegerLattice(self.gram())

    def contains(self, v):
        """Integral membership of an ambient vector in the span of the basis."""
        if not self.basis:
            return la.is_zero_vector(v)
        return la.solve_int(la.transpose(self.basis), v) is not None


def signature(lat):
    """Signature (positive, zero, negative) by exact congruence diagonalization."""
    diag, _ = la.congruence_diagonalize(lat.gram)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    zero = sum(1 for d in diag if d == 0)
    return Signature(pos, zero, neg)


def radical(lat):
    """Primitive sublattice equal to the integer kernel of the Gram matrix."""
    ker = la.int_kernel(lat.gram)
    return Sublattice(lat, tuple(ker))


def orthogonal_complement(lat, sub):
    """{v in L : <v, s> = 0 for all s in S}, a primitive sublattice."""
    if sub.ambient.gram != lat.gram:
        raise DimensionMismatch("sublattice does not live in the given lattice")
    if not sub.basis:
        return Sublattice(lat, tuple(la.identity_matrix(lat.rank)))
    rows = tuple(la.mat_vec(lat.gram, b) for b in sub.basis)
    ker = la.int_kernel(rows)
    return Sublattice(lat, tuple(ker))


def saturation(lat, sub):
    """Primitive closure (S^perp)^perp of a sublattice."""
    return orthogonal_complement(lat, orthogonal_complement(lat, sub))


def classify_type(lat):
    """Hyperbolic (1,0,r-1) / Elliptic (0,0,r) / Parabolic (0,1,r-1) / Other."""
    s = signature(lat)
    r = lat.rank
    if s.as_tuple() == (1, 0, r - 1):
        return LatticeType.HYPERBOLIC
    if s.as_tuple() == (0, 0, r):
        return LatticeType.ELLIPTIC
    if s.as_tuple() == (0, 1, r - 1):
        return LatticeType.PARABOLIC
    return LatticeType.OTHER


class DiscriminantGroup(Frozen):
    """L*/L of a nondegenerate lattice: invariant factors plus rational lifts.

    lift_matrix columns are generators of L* modulo L, in ambient coordinates;
    column i has order invariant_factors[i].
    """

    invariant_factors: tuple
    lift_matrix: tuple  # rows of Fractions; columns are the generators

    @property
    def order(self):
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def generators(self):
        cols = la.transpose(self.lift_matrix)
        return list(cols)


def discriminant_group(lat):
    """Invariant factors of coker(gram : L -> L*) with rational generator lifts."""
    d = lat.det()
    if d == 0:
        raise DegenerateLattice("discriminant group needs det != 0")
    dmat, u, v = la.snf(lat.gram)
    n = lat.rank
    factors = []
    gens = []
    for i in range(n):
        di = dmat[i][i]
        if di > 1:
            factors.append(di)
            col = tuple(Fraction(v[r][i], di) for r in range(n))
            gens.append(col)
    lift = tuple(tuple(g[r] for g in gens) for r in range(n)) if gens else ()
    return DiscriminantGroup(tuple(factors), lift)


def acts_as_scalar(matrix, lifts, eps):
    """True iff an isometry acts as eps on the classes of the dual vectors
    `lifts` modulo L: (matrix - eps) * g is integral for every lift g."""
    return all(
        (x - eps * c).denominator == 1
        for g in lifts
        for x, c in zip(la.mat_vec(matrix, g), g)
    )


def discriminant_acts_as(lat, matrix, *signs):
    """True iff the isometry acts as eps * id on the discriminant group L*/L
    for one of the given signs eps; both signs hold on 2-torsion groups, and
    vacuously on the trivial group.  L*/L is computed once."""
    gens = discriminant_group(lat).generators()
    return any(acts_as_scalar(matrix, gens, eps) for eps in signs)


def direct_sum(l1, l2):
    return IntegerLattice(la.block_diagonal(l1.gram, l2.gram))


def rescale(lat, m):
    if m == 0:
        raise InvalidInput("rescale by zero is not a lattice")
    return IntegerLattice(tuple(tuple(m * x for x in row) for row in lat.gram))


def sublattice_index(lat, sub):
    """Index [L : S] when S has full rank; None marks infinite index."""
    if sub.rank != lat.rank:
        return None
    d = la.bareiss_det(sub.basis)
    return abs(d)


# named built-in lattices -------------------------------------------------

_U = ((0, 1), (1, 0))

# E8 Cartan matrix; chain 1-3-4-5-6-7-8 with node 2 attached to node 4
_E8_EDGES = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]


def _e8_gram():
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for i, j in _E8_EDGES:
        g[i][j] = g[j][i] = -1
    return tuple(tuple(row) for row in g)


def U():
    return IntegerLattice(_U)


def E8():
    return IntegerLattice(_e8_gram())


def E8_minus():
    return rescale(E8(), -1)


def A1():
    return IntegerLattice(((2,),))


def A1_minus():
    return IntegerLattice(((-2,),))


def K3():
    """U^3 + E8(-1)^2, the rank-22 lattice of signature (3, 19)."""
    lat = U()
    lat = direct_sum(lat, U())
    lat = direct_sum(lat, U())
    lat = direct_sum(lat, E8_minus())
    lat = direct_sum(lat, E8_minus())
    return lat


BUILTIN_LATTICES = {
    "U": U,
    "E8": E8,
    "E8(-1)": E8_minus,
    "A1": A1,
    "A1(-1)": A1_minus,
    "K3": K3,
}


def builtin(name):
    try:
        return BUILTIN_LATTICES[name]()
    except (KeyError, TypeError):
        raise InvalidInput(f"unknown built-in lattice {name!r}") from None

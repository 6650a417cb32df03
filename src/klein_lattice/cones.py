"""Rational polyhedral cones and hyperbolic positive cones.

Exact double description (rays <-> halfspaces), rational closure membership,
Dirichlet fundamental domains with verification certificates, and the
Siegel-property intersection enumeration.  All arithmetic is integer/Fraction.
"""

import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations, count, product

from . import intlinalg as la
from .errors import (
    CoverageFailure,
    DimensionMismatch,
    DisjointnessFailure,
    EmptyInput,
    InvalidInput,
    NonPositiveVector,
    NonStabilizing,
    NotHyperbolic,
    NontrivialStabilizer,
    ReductionFailure,
    SearchExhausted,
    UnsupportedRank,
)
from .frozen import Frozen, replace
from .lattice import signature


# --- double description ----------------------------------------------------


def _insert_halfspace(dim, lines, rays, inserted, h, ranks):
    """One incremental DD step on rays (vector, mask), where bit j of the
    mask is set iff inserted[j] vanishes on the vector; h gets bit
    len(inserted).  The masks are updated, never recomputed.  Every ray
    satisfies every inserted halfspace, so a ray on h gains the bit, a ray
    strictly inside keeps its mask, and the combination w = dp*n + |dn|*p
    of an adjacent pair has h_j.w = dp*(h_j.n) + |dn|*(h_j.p) > 0 unless
    both terms vanish: its mask is (tp & tn) | bit.  Every inserted
    halfspace vanishes on the lines and h does not vanish on l0, so l0 gets
    bit - 1, and a moved ray d0*r - dr*l0 has h_j-pairing d0*(h_j.r) and
    gains the bit.  Repeats share a mask; the first is kept.  The
    adjacency test compares the rank of the inserted halfspaces in tp & tn
    with the step's target, so it depends on the pair only through that
    mask.  ranks maps a mask to that rank for the whole run: bit j names
    inserted[j] in every step, so a mask's rank never changes, and the
    target is compared afresh each step, so it may drop as lines run out."""
    bit = 1 << len(inserted)
    pairings = [la.dot(h, l) for l in lines]
    pivot = next((i for i, p in enumerate(pairings) if p != 0), None)
    if pivot is None:
        pos, zero, neg = [], [], []
        for r, tight in rays:
            d = la.dot(h, r)
            if d > 0:
                pos.append((r, tight, d))
            elif d == 0:
                zero.append((r, tight | bit))
            else:
                neg.append((r, tight, d))
        new_rays = [(r, tight) for r, tight, _ in pos] + zero
        adjacent_rank = dim - len(lines) - 2
        for p, tp, dp in pos:
            for nvec, tn, dn in neg:
                tcommon = tp & tn
                if tcommon not in ranks:
                    normals = [hj for j, hj in enumerate(inserted) if tcommon >> j & 1]
                    ranks[tcommon] = la.rank(normals)
                if ranks[tcommon] == adjacent_rank:
                    w = tuple(dp * a - dn * b for a, b in zip(nvec, p))
                    new_rays.append((la.primitive_vector(w), tcommon | bit))
        new_lines = lines
    else:
        l0 = lines[pivot]
        d0 = pairings[pivot]
        if d0 < 0:
            l0 = tuple(-x for x in l0)
            d0 = -d0
        new_lines = []
        for i, l in enumerate(lines):
            if i == pivot:
                continue
            nl = tuple(d0 * a - pairings[i] * b for a, b in zip(l, l0))
            new_lines.append(la.primitive_vector(nl))
        new_rays = [(la.primitive_vector(l0), bit - 1)]
        for r, tight in rays:
            dr = la.dot(h, r)
            nr = tuple(d0 * a - dr * b for a, b in zip(r, l0))
            new_rays.append((la.primitive_vector(nr), tight | bit))
    return new_lines, [(v, m) for v, m in dict(new_rays).items() if any(v)]


def dd_rays(dim, halfspaces, equalities=()):
    """Extreme rays and lineality of {x : h.x >= 0, e.x = 0}.  One rank
    per common mask serves the whole run: inserted only grows, so a mask
    names the same halfspaces in every step."""
    lines = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    rays = []
    inserted = []
    ranks = {}
    constraints = []
    for e in equalities:
        constraints.append(tuple(e))
        constraints.append(tuple(-x for x in e))
    constraints.extend(tuple(h) for h in halfspaces)
    for h in constraints:
        if la.is_zero_vector(h):
            continue
        lines, rays = _insert_halfspace(dim, lines, rays, inserted, h, ranks)
        inserted.append(h)
    # the rays are distinct and nonzero, the lines independent
    return tuple(sorted(r for r, _ in rays)), tuple(sorted(lines))


class PolyhedralCone(Frozen):
    """Rational polyhedral cone with both descriptions kept consistent.

    rays/lines generate the cone; halfspaces/equalities cut it out.  All four
    hold primitive integer vectors; rays keep their geometric orientation.
    cone_from_halfspaces and cone_from_rays are its only constructors: they
    make the two descriptions agree, which a direct call does not check,
    and dim() reads the equalities as a basis of the orthogonal complement
    of the span (tests/test_source.py fails on any other call).
    """

    ambient_dim: int
    rays: tuple
    lines: tuple
    halfspaces: tuple
    equalities: tuple

    def __post_init__(self):
        for r in self.rays:
            for h in self.halfspaces:
                if la.dot(h, r) < 0:
                    raise InvalidInput("ray violates a halfspace")
            for e in self.equalities:
                if la.dot(e, r) != 0:
                    raise InvalidInput("ray violates an equality")
        for l in self.lines:
            for h in self.halfspaces + self.equalities:
                if la.dot(h, l) != 0:
                    raise InvalidInput("line not contained in a constraint boundary")

    def contains(self, x):
        """Membership of a rational point, decided on its primitive integer
        multiple: the signs of h.x and e.x are those of h.v and e.v for
        v = lambda x, lambda > 0."""
        if len(x) != self.ambient_dim:
            raise DimensionMismatch("point dimension mismatch")
        v = la.primitive_vector(x)
        return all(la.dot(h, v) >= 0 for h in self.halfspaces) and all(
            la.dot(e, v) == 0 for e in self.equalities
        )

    def contains_strictly(self, x):
        """Interior membership; meaningful for full-dimensional cones.
        Decided on the primitive integer multiple of x, as contains is."""
        if len(x) != self.ambient_dim:
            raise DimensionMismatch("point dimension mismatch")
        v = la.primitive_vector(x)
        return all(la.dot(h, v) > 0 for h in self.halfspaces) and all(
            la.dot(e, v) == 0 for e in self.equalities
        )

    def generators(self):
        gens = list(self.rays)
        for l in self.lines:
            gens.append(l)
            gens.append(tuple(-x for x in l))
        return gens

    def dim(self):
        # the equalities are a basis of the orthogonal complement of the span
        return self.ambient_dim - len(self.equalities)

    def is_full_dimensional(self):
        return self.dim() == self.ambient_dim

    def is_zero(self):
        return not self.rays and not self.lines

    def same_cone(self, other):
        if self.ambient_dim != other.ambient_dim:
            return False
        return all(other.contains(g) for g in self.generators()) and all(
            self.contains(g) for g in other.generators()
        )


def _double_description(dim, halfspaces, equalities):
    """Both descriptions of {x : h.x >= 0, e.x = 0}, as (rays, lines,
    facets, equalities): the rays and lines by double description, then the
    facets and equalities by double description of those.  Read the other
    way round, the same tuple is (facets, equalities, rays, lines) of the
    cone that the halfspaces and equalities generate as rays and lines."""
    if dim <= 0:
        raise EmptyInput("ambient dimension must be positive")
    hs = tuple(la.primitive_vector(h) for h in halfspaces)
    eqs = tuple(la.primitive_vector(e) for e in equalities)
    for v in hs + eqs:
        if len(v) != dim:
            raise DimensionMismatch("vector dimension mismatch")
    rays, lines = dd_rays(dim, hs, eqs)
    facets, normals = dd_rays(dim, rays, lines)
    gens = rays + lines + tuple(tuple(-x for x in l) for l in lines)
    if any(la.dot(h, g) < 0 for h in hs for g in gens) or any(
        la.dot(e, g) != 0 for e in eqs for g in gens
    ):
        raise InvalidInput("double description round-trip failed")
    return rays, lines, facets, normals


def cone_from_halfspaces(dim, halfspaces, equalities=()):
    return PolyhedralCone(dim, *_double_description(dim, halfspaces, equalities))


def cone_from_rays(dim, rays, lines=()):
    hs, eqs, rs, ls = _double_description(dim, rays, lines)
    return PolyhedralCone(dim, rs, ls, hs, eqs)


def dual(cone):
    """Dual cone {y : <y, x> >= 0 for all x in the cone}."""
    return cone_from_rays(cone.ambient_dim, cone.halfspaces, cone.equalities)


def intersect(c1, c2):
    if c1.ambient_dim != c2.ambient_dim:
        raise DimensionMismatch("cones live in different dimensions")
    return cone_from_halfspaces(
        c1.ambient_dim,
        c1.halfspaces + c2.halfspaces,
        c1.equalities + c2.equalities,
    )


def transform_cone(cone, matrix):
    rays = tuple(la.mat_vec(matrix, r) for r in cone.rays)
    lines = tuple(la.mat_vec(matrix, l) for l in cone.lines)
    return cone_from_rays(cone.ambient_dim, rays, lines)


def meet_preimage(other, m, cone):
    """{x in other : m x in cone}, one cone build on other's constraints and
    the pull-backs h -> m^T h of cone's: other cap g cone is
    meet_preimage(other, g^-1, cone)."""
    mt = la.transpose(m)
    return cone_from_halfspaces(
        other.ambient_dim,
        other.halfspaces + tuple(la.mat_vec(mt, h) for h in cone.halfspaces),
        other.equalities + tuple(la.mat_vec(mt, e) for e in cone.equalities),
    )


# --- positive cones in hyperbolic lattices ---------------------------------


class PositiveCone(Frozen):
    """Selected component of {q > 0} in a hyperbolic lattice.

    Membership signs are read on the primitive integer multiple v = lambda x
    (lambda > 0) of a rational point x: q(x) and <base, x> are homogeneous of
    degree 2 and 1, so their signs are those of q(v) and base_covector.v.
    """

    lattice: object
    component_base: tuple

    def __post_init__(self):
        n = self.lattice.rank
        if signature(self.lattice).as_tuple() != (1, 0, n - 1):
            raise NotHyperbolic("positive cone needs signature (1, 0, n-1)")
        base = tuple(Fraction(x) for x in self.component_base)
        if len(base) != n:
            raise DimensionMismatch("component base length != lattice rank")
        object.__setattr__(self, "component_base", base)
        if self.lattice.q(base) <= 0:
            raise NonPositiveVector("component base must have q > 0")

    @property
    def dim(self):
        return self.lattice.rank

    @cached_property
    def base_covector(self):
        """The covector <component_base, .> as a primitive integer vector.
        Kept in the instance dictionary, outside the value's fields, so
        equality, hashing and repr do not see it."""
        return self.lattice.covector(self.component_base)

    def contains_open(self, x):
        v = la.primitive_vector(x)
        return self.lattice.q(v) > 0 and la.dot(self.base_covector, v) > 0


def rational_closure_member(pos, x):
    """Membership of a rational point in C+ = hull of rational points of C-bar.

    C+ consists of 0, the open component C, and the rational isotropic rays on
    its boundary; an irrational boundary direction cannot be represented by a
    rational input in the first place.  Decided on the primitive integer
    multiple of x, as PositiveCone.contains_open is.
    """
    if len(x) != pos.dim:
        raise DimensionMismatch("point dimension != lattice rank")
    v = la.primitive_vector(x)
    if not any(v):
        return True
    if pos.lattice.q(v) < 0:
        return False
    return la.dot(pos.base_covector, v) > 0


# --- deciding whether a polyhedral cone meets the open component C ---------


def _simplex_max(b):
    """Exact maximum of a^T B a over the standard simplex.

    Support sets are enumerated; for each one the Lagrange system is solved
    exactly when nonsingular (its right-hand side is the last unit vector, so
    the solution is the last column of the inverse), and feasible critical
    values are collected.  A minimal-support maximizer always yields a
    nonsingular system, so the true maximum is among the candidates; every
    candidate is attained, so the maximum of the candidates is exact.
    """
    m = len(b)
    best = None
    for size in range(1, m + 1):
        for support in combinations(range(m), size):
            k = len(support)
            mat = [tuple(2 * b[i][j] for j in support) + (-1,) for i in support]
            mat.append((1,) * k + (0,))
            inv = la.frac_inverse(mat)
            if inv is None:
                continue
            coords = [row[k] for row in inv[:k]]
            lam = inv[k][k]
            if any(c < 0 for c in coords):
                continue
            value = lam / 2
            if best is None or value > best:
                best = value
    return best


def cone_meets_component(cone, pos):
    """True iff the polyhedral cone contains a point with q > 0 in C."""
    if cone.ambient_dim != pos.dim:
        raise DimensionMismatch("cone and positive cone dimension mismatch")
    clipped = cone_from_halfspaces(
        cone.ambient_dim, cone.halfspaces + (pos.base_covector,), cone.equalities
    )
    mx = _simplex_max(pos.lattice.gram_of(clipped.generators()))
    return mx is not None and mx > 0


def interiors_meet_component(cone, pos):
    """True iff the cone is full-dimensional and its interior meets C."""
    return cone.is_full_dimensional() and cone_meets_component(cone, pos)


# --- Dirichlet fundamental domains ------------------------------------------


class DomainCertificate(Frozen):
    """A materialized Dirichlet domain plus the data needed to re-verify it.

    The domain is the polyhedral part; the actual fundamental domain is its
    intersection with the rational closure C+.  Its facets, the full-cone
    flag (D = C+, no facets) and whether its rays lie in C+ are read off
    the domain.  Orbit elements are retained so that the reduction
    procedure and membership tests are reproducible.
    """

    positive_cone: PositiveCone
    group: object
    xi: tuple
    word_bound: int
    domain: PolyhedralCone
    stabilization_depth: int
    orbit_elements: tuple  # (matrix, word) pairs, identity excluded
    covering_evidence: dict = None
    disjointness_evidence: dict = None

    @property
    def halfspaces(self):
        return self.domain.halfspaces

    @property
    def full_cone(self):
        return not (self.domain.halfspaces or self.domain.equalities)

    @property
    def rays_in_closure(self):
        """True when the domain is pointed with every ray in C+, or is the
        full cone, whose fundamental domain is C+ itself."""
        pos = self.positive_cone
        return self.full_cone or not self.domain.lines and all(
            rational_closure_member(pos, r) for r in self.domain.rays
        )

    def check_group(self, gamma):
        """Refuse gamma (InvalidInput) unless it is the certificate's group:
        the same lattice and the same set of generators, at any word bound."""
        group = self.group
        if group.lattice != gamma.lattice or {*group.generators} != {*gamma.generators}:
            raise InvalidInput("the certificate's group has another lattice or generators")

    def domain_contains(self, x):
        return rational_closure_member(self.positive_cone, x) and self.domain.contains(x)

    @cached_property
    def moves(self):
        """The reduction moves: the inverses of the recorded orbit elements,
        then each generator and its inverse, without repeats.  The inverses
        are the group's, read off its word tree."""
        moves = [self.group.inverse(m) for m, _ in self.orbit_elements]
        moves += [g.matrix for g in self.group.generator_elements()]
        return list(dict.fromkeys(moves))


def dirichlet_domain(gamma, pos, xi, word_bound=None):
    """Dirichlet domain D = {x in C+ : <xi, x> <= <gamma xi, x> for all gamma}.

    Materialized from orbit points up to the word bound, with implied
    halfspaces pruned; the certificate records at which depth the pruned
    halfspace set stabilized.  Raises NontrivialStabilizer if the base point
    is fixed by a nontrivial group element (or triviality cannot be
    certified), and NonStabilizing if the halfspace set was still growing at
    the bound.  Domain construction is limited to rank <= 4 (orbit growth);
    pure cone algebra has no such limit.

    The cone of depth d is cut out by the facets of the cone of depth d - 1
    and the halfspaces of the orbit points first reached at depth d.  xi is
    interior to every such cone, so each is full-dimensional, its facets are
    unique, and it is the cone that all halfspaces up to depth d cut out.
    """
    if len(xi) != pos.dim:
        raise DimensionMismatch("xi length != lattice rank")
    if pos.lattice.gram != gamma.lattice.gram:
        raise InvalidInput("positive cone and group live on different lattices")
    if word_bound is None:
        word_bound = gamma.word_bound
    if word_bound < 1:
        raise InvalidInput("word bound must be at least 1")
    if pos.dim > 4:
        raise UnsupportedRank("domain construction is limited to rank <= 4")
    from .isometry import stabilizer

    xiv = tuple(Fraction(c) for c in xi)
    if not pos.contains_open(xiv):
        raise NonPositiveVector("xi must lie in the open cone C")
    st = stabilizer(gamma, xiv)
    if not st.is_certified():
        raise NontrivialStabilizer("could not certify that the stabilizer is trivial")
    if len(st.members) != 1:
        raise NontrivialStabilizer("base point has a nontrivial stabilizer")
    n = pos.dim
    lat = pos.lattice
    x = la.primitive_vector(xiv)
    # the stabilizer of x is trivial, so distinct words of positive length
    # send x to distinct points other than x
    depth_halfspaces = []  # the covectors of the points first reached at depth d
    orbit_elements = []
    for layer in gamma.layers(word_bound)[1:]:
        new = []
        for el in layer:
            p = la.mat_vec(el.matrix, x)
            h = lat.covector(tuple(a - b for a, b in zip(p, x)))
            if la.dot(h, x) <= 0:
                raise InvalidInput(f"{el.word} moves xi out of the component C")
            new.append(h)
            orbit_elements.append((el.matrix, el.word))
        if new:
            depth_halfspaces.append(tuple(new))
    if not orbit_elements:
        return DomainCertificate(
            pos, gamma, xiv, word_bound, cone_from_halfspaces(n, ()), 0, ()
        )
    facets, facet_sets = (), []
    for new in depth_halfspaces:
        cone = cone_from_halfspaces(n, facets + new)
        facets = cone.halfspaces
        facet_sets.append(frozenset(facets))
    stabilization_depth = 1 + facet_sets.index(facet_sets[-1])
    if stabilization_depth >= word_bound:
        raise NonStabilizing(
            f"halfspace set still growing at word bound {word_bound}"
        )
    if cone.lines:
        # rays beside lines depend on the order of insertion: take them from
        # all halfspaces in orbit order, not from the depth-by-depth walk
        cone = cone_from_halfspaces(n, sum(depth_halfspaces, ()))
    return DomainCertificate(
        pos, gamma, xiv, word_bound, cone, stabilization_depth, tuple(orbit_elements)
    )


def reduce_into_domain(cert, x):
    """Move x into the domain by greedily decreasing <xi, .> over the
    recorded orbit moves.  Returns (point, matrix, steps), matrix * x = point.

    A point off the closure of C (q < 0 or <xi, .> <= 0) is refused before
    the domain is tested; 0 lies in D.  A move must lower <xi, .> and keep
    it positive; for x in the closure of C outside D, the inverse of the
    orbit element of a violated halfspace is one, as the group preserves C.
    Moves are ranked, once x is found outside D, by xi's integer covector c
    (a positive multiple of G*xi) through m^T*c: <m^T*c, x> = <c, m*x>, so
    only the chosen image m*x is formed.  With D the denominator of x, every
    <c, .> lies in (1/D)*Z (the moves are integral), so at most D*<c, x>
    moves are taken before x is in D or no move qualifies (ReductionFailure).
    """
    lat = cert.positive_cone.lattice
    cov = lat.covector(cert.xi)
    current = tuple(Fraction(c) for c in x)
    val = la.dot(cov, current)
    # the sign of q, read off a positive integer multiple
    if any(current) and (val <= 0 or lat.q(la.primitive_vector(current)) < 0):
        raise ReductionFailure("point outside the closed positive cone: no reduction")
    word_matrix = la.identity_matrix(lat.rank)
    for step in count():
        if cert.domain.contains(current):
            return current, word_matrix, step
        if step == 0:  # x is outside D: rank the moves
            ranked = [(mv, la.mat_vec(la.transpose(mv), cov)) for mv in cert.moves]
        best = None
        for mv, mc in ranked:
            v = la.dot(mc, current)
            if val > v > 0 and (best is None or v < best[0]):
                best = (v, mv)
        if best is None:
            raise ReductionFailure("no move lowers <xi, .> and keeps it positive")
        val, mv = best
        current = la.mat_vec(mv, current)
        word_matrix = la.mat_mul(mv, word_matrix)


def make_membership_tester(cert):
    """Decide membership in the certificate's group via orbit reduction.

    M is in the group iff reducing M*xi lands exactly on xi with reduction
    word W satisfying W*M = id; landing elsewhere in D, or M*xi off C (every
    member maps C to C), certifies M outside.
    """

    def tester(matrix):
        y = la.mat_vec(matrix, cert.xi)
        if not cert.positive_cone.contains_open(y):
            return "out"
        try:
            point, w, _ = reduce_into_domain(cert, y)
        except ReductionFailure:
            return "unknown"
        if tuple(point) != tuple(cert.xi):
            return "out"
        wm = la.mat_mul(w, matrix)
        return "in" if wm == la.identity_matrix(cert.positive_cone.dim) else "out"

    return tester


def find_trivial_stabilizer_point(gamma, pos):
    """Deterministic search for a rational point of C with certified trivial
    stabilizer: integer vectors enumerated by increasing height up to 12,
    lex order."""
    from .isometry import stabilizer

    n = pos.dim
    height_bound = 12
    ident = la.identity_matrix(n)
    # a nonidentity element of gamma fixing v is an integral isometry fixing
    # v, so stabilizer would count it as a member and v would be rejected
    moving = [el.matrix for el in gamma.elements_up_to() if el.matrix != ident]
    for height in range(1, height_bound + 1):
        for v in _integer_vectors_of_height(n, height):
            if not pos.contains_open(v):
                continue
            if any(la.mat_vec(m, v) == v for m in moving):
                continue
            st = stabilizer(gamma, v)
            if st.is_certified() and len(st.members) == 1:
                return v
    raise SearchExhausted(
        f"no certified trivial-stabilizer point up to height {height_bound}"
    )


def _integer_vectors_of_height(n, h):
    return (v for v in product(range(-h, h + 1), repeat=n) if max(map(abs, v)) == h)


# --- Siegel property --------------------------------------------------------


def siegel_intersections(pos, pi1, pi2, gamma, word_bound=None):
    """Distinct nonzero intersections (gamma . Pi1) cap Pi2 over the group.

    Returns (cones, report), a BoundedSearch; report records the depth at which
    the collection stopped growing.  Raises NonStabilizing when still growing
    at the bound.  Ray containment of both cones in C+ is checked first.
    """
    if pos.lattice.gram != gamma.lattice.gram:
        raise InvalidInput("positive cone and group live on different lattices")
    if word_bound is None:
        word_bound = gamma.word_bound
    if word_bound < 1:
        raise InvalidInput("word bound must be at least 1")
    for cone in (pi1, pi2):
        for r in cone.rays:
            if not rational_closure_member(pos, r):
                raise InvalidInput("input cone has a ray outside C+")
        if cone.lines:
            raise InvalidInput("input cones must be pointed (inside C+)")
    found = {}
    growth = []
    for layer in gamma.layers(word_bound):
        new = 0
        for el in layer:
            inter = meet_preimage(pi2, gamma.inverse(el.matrix), pi1)
            if inter.is_zero():
                continue
            # pointed, as pi1 and pi2 are: its rays determine it
            if inter.rays not in found:
                found[inter.rays] = inter
                new += 1
        growth.append(new)
    # the last depth always qualifies: nothing follows it
    stabilized_at = next(d for d in range(len(growth)) if not any(growth[d + 1:]))
    if stabilized_at >= word_bound:
        raise NonStabilizing(
            f"intersection collection still growing at word bound {word_bound}"
        )
    report = {
        "count": len(found),
        "stabilized_at_depth": stabilized_at,
        "word_bound": word_bound,
        "completeness": "BoundedSearch",
    }
    cones = [found[k] for k in sorted(found.keys())]
    return cones, report


# --- fundamental domain verification ----------------------------------------


def sample_cone_points(pos, samples, seed):
    """Seeded rational sample points of the open component C, drawn from the
    integer vectors in the box [-9, 9]^n."""
    rng = random.Random(seed)
    n = pos.dim
    box = 9
    out = []
    attempts = 0
    while len(out) < samples:
        attempts += 1
        if attempts > 10000 * samples:
            raise SearchExhausted(
                f"sampling the cone failed in the box [-{box}, {box}]^{n}"
            )
        v = tuple(rng.randint(-box, box) for _ in range(n))
        if pos.contains_open(v):
            out.append(v)
    return out


def verify_fundamental_domain(cert, samples=200, seed=0, disjoint_word_len=6):
    """Sampled covering plus exact interior disjointness for a certificate.

    Covering: each sample point of C is moved into D by the reduction
    procedure.  Disjointness: for every nonidentity word up to the bound,
    int(D) cap gamma . int(D) cap C is empty (exact polyhedral check).
    Raises CoverageFailure / DisjointnessFailure accordingly; returns
    (report, certificate-with-evidence) on success, a BoundedSearch as the
    covering is sampled.  samples or disjoint_word_len below 1 is
    InvalidInput: that check would pass having checked nothing.
    """
    if samples < 1:
        raise InvalidInput("covering needs at least one sample")
    if disjoint_word_len < 1:
        raise InvalidInput("disjointness needs a word bound of at least 1")
    pos = cert.positive_cone
    points = sample_cone_points(pos, samples, seed)
    max_moves = 0
    for p in points:
        try:
            reduced, _, steps = reduce_into_domain(cert, p)
        except ReductionFailure as exc:
            raise CoverageFailure(f"point {p} could not be reduced: {exc}") from exc
        if not cert.domain_contains(reduced):
            raise CoverageFailure(f"point {p} reduced outside D")
        max_moves = max(max_moves, steps)
    covering = {
        "samples": samples,
        "seed": seed,
        "max_reduction_steps": max_moves,
        "status": "pass",
    }
    dcone, group = cert.domain, cert.group
    checked = 0
    for layer in group.layers(disjoint_word_len)[1:]:
        for el in layer:
            checked += 1
            meet = meet_preimage(dcone, group.inverse(el.matrix), dcone)
            if interiors_meet_component(meet, pos):
                raise DisjointnessFailure(f"interior overlap with translate by {el.word}")
    disjointness = {
        "word_bound": disjoint_word_len,
        "checked": checked,
        "status": "pass",
    }
    report = {"covering": covering, "disjointness": disjointness, "completeness": "BoundedSearch"}
    return report, replace(
        cert, covering_evidence=covering, disjointness_evidence=disjointness
    )

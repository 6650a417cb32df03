"""Marked Hodge lattices of hyperkahler type and Klein (anti-)automorphism
predicates: period encoding, Neron-Severi/transcendental splitting, the
Torelli-style conditions, the Hilbert-scheme operator, and the finite-subgroup
classification pipeline on the ample cone.
"""

from enum import Enum
from fractions import Fraction
from math import isqrt

from . import intlinalg as la
from .errors import (
    DimensionMismatch,
    InvalidInput,
    NoInvariantInteriorPoint,
    Undecidable,
)
from .frozen import Frozen
from .cones import (
    _integer_vectors_of_height,
    cone_from_rays,
    cone_meets_component,
    intersect,
    meet_preimage,
    reduce_into_domain,
    transform_cone,
)
from .isometry import (
    GeneratedGroup,
    Isometry,
    KleinIsometry,
    group_membership,
    is_isometry,
    preserves_positive_orientation,
    search_completeness,
)
from .lattice import (
    IntegerLattice,
    LatticeType,
    Sublattice,
    acts_as_scalar,
    classify_type,
    direct_sum,
    discriminant_acts_as,
    discriminant_group,
    integer_rows,
    orthogonal_complement,
    signature,
)


class HodgeLattice(Frozen):
    """Lattice of signature (3, rank-3) with a rational period sigma = x + iy.

    Validity means q(x) = q(y), <x, y> = 0 and q(x) > 0, the rational
    encoding of a period-domain point.
    """

    lattice: IntegerLattice
    period_re: tuple
    period_im: tuple

    def __post_init__(self):
        n = self.lattice.rank
        if signature(self.lattice).as_tuple() != (3, 0, n - 3):
            raise InvalidInput("lattice must have signature (3, rank-3)")
        x = tuple(Fraction(c) for c in self.period_re)
        y = tuple(Fraction(c) for c in self.period_im)
        object.__setattr__(self, "period_re", x)
        object.__setattr__(self, "period_im", y)
        if len(x) != n or len(y) != n:
            raise DimensionMismatch("period vectors must match the rank")
        qx = self.lattice.pairing(x, x)
        qy = self.lattice.pairing(y, y)
        if qx != qy or self.lattice.pairing(x, y) != 0 or qx <= 0:
            raise InvalidInput("period must satisfy q(x) = q(y) > 0, <x,y> = 0")


def neron_severi(h):
    """NS = {v in L : <v, x> = <v, y> = 0}, a primitive sublattice."""
    lat = h.lattice
    ker = la.int_kernel((lat.covector(h.period_re), lat.covector(h.period_im)))
    return Sublattice(lat, tuple(ker))


def transcendental(h):
    return orthogonal_complement(h.lattice, neron_severi(h))


def ns_plus_t_index(h):
    """Index of NS + T in L when NS is nondegenerate, else None."""
    ns = neron_severi(h)
    t = transcendental(h)
    if ns.rank + t.rank != h.lattice.rank:
        return None
    stacked = ns.basis + t.basis
    d = la.bareiss_det(stacked)
    return abs(d) if d else None


def is_projective_type(h):
    return classify_type(neron_severi(h).as_lattice()) == LatticeType.HYPERBOLIC


class HodgeKind(Enum):
    HODGE = "Hodge"
    ANTI = "AntiHodge"
    NEITHER = "Neither"


def period_action(matrix, h_source, h_target=None):
    """(kind, (a, b)): HODGE when phi(sigma) = (a + ib) sigma', ANTI when
    phi(sigma) = (a + ib) sigma-bar', else (NEITHER, None), for the source
    period sigma = x + iy and the target period sigma' = x' + iy'.

    x' and y' are orthogonal of the same norm c > 0, so phi(x) lies in
    their span iff phi(x) = a x' + b y' with a = <phi(x), x'>/c and
    b = <phi(x), y'>/c.  Then phi(y) = -b x' + a y' is the Hodge case,
    with (a, -b), and phi(y) = b x' - a y' the anti-Hodge case, with
    (a, b).  Both hold only when a = b = 0, which is neither.
    """
    tgt = h_target or h_source
    lat = tgt.lattice
    x, y = tgt.period_re, tgt.period_im
    c = lat.pairing(x, x)
    px = la.mat_vec(matrix, h_source.period_re)
    py = la.mat_vec(matrix, h_source.period_im)
    a = lat.pairing(px, x) / c
    b = lat.pairing(px, y) / c
    if (a, b) == (0, 0) or list(px) != [a * u + b * v for u, v in zip(x, y)]:
        return HodgeKind.NEITHER, None
    if list(py) == [a * v - b * u for u, v in zip(x, y)]:
        return HodgeKind.HODGE, (a, -b)
    if list(py) == [b * u - a * v for u, v in zip(x, y)]:
        return HodgeKind.ANTI, (a, b)
    return HodgeKind.NEITHER, None


# --- monodromy specifications ------------------------------------------------


class MonodromySpec(Frozen):
    """Tagged union: full_orthogonal_plus | discriminant | generators.

    discriminant: membership means the induced action on the discriminant
    group is epsilon * id with epsilon in `signs`, plus (when required) the
    exactly computed orientation of the positive part.  generators: membership
    in the group they generate, decided by isometry.group_membership; answers
    may be 'unknown'.
    """

    kind: str
    signs: tuple = (1, -1)
    require_orientation: bool = True
    generators: tuple = ()
    word_bound: int = 8

    def __post_init__(self):
        if self.kind not in ("full_orthogonal_plus", "discriminant", "generators"):
            raise InvalidInput(f"unknown monodromy spec kind {self.kind!r}")
        if any(e not in (1, -1) for e in self.signs):
            raise InvalidInput("monodromy signs must be +1 or -1")
        if self.word_bound < 1:
            raise InvalidInput("word bound must be at least 1")


def mon_contains(spec, lat, matrix):
    """Membership of an isometry in the specified monodromy group: 'in',
    'out', or 'unknown' (generators variant only, when no word up to the
    bound reaches the matrix, the words do not exhaust a finite group and
    neither the determinant nor the orientation rules it out)."""
    if not is_isometry(lat, matrix):
        return "out"
    if spec.kind == "full_orthogonal_plus":
        return "in" if preserves_positive_orientation(lat, matrix) else "out"
    if spec.kind == "discriminant":
        if spec.require_orientation and not preserves_positive_orientation(
            lat, matrix
        ):
            return "out"
        return "in" if discriminant_acts_as(lat, matrix, *spec.signs) else "out"
    gens = tuple(Isometry(lat, m) for m in spec.generators)
    return group_membership(GeneratedGroup(lat, gens, spec.word_bound), matrix)


def mon2_khdg_member(matrix, h, spec):
    """The Klein-Hodge monodromy condition: phi is a Hodge monodromy operator,
    or phi is anti-Hodge and -phi is a monodromy operator.

    For an anti-holomorphic automorphism the pull-back and the dagger differ
    by a global sign, and exactly one of them preserves the orientation of
    the positive part (its rank, 3, is odd); the monodromy group only
    contains that one, so the anti branch tests the orientation-preserving
    representative of {phi, -phi}.  Both input conventions are thereby
    accepted.  Raises Undecidable when the generators variant answers
    'unknown'.
    """
    kind = period_action(matrix, h)[0]
    lat = h.lattice
    if kind == HodgeKind.NEITHER:
        return False
    if kind == HodgeKind.HODGE:
        verdict = mon_contains(spec, lat, matrix)
    else:
        if is_isometry(lat, matrix) and preserves_positive_orientation(lat, matrix):
            rep = matrix
        else:
            rep = tuple(tuple(-x for x in row) for row in matrix)
        verdict = mon_contains(spec, lat, rep)
    if verdict == "unknown":
        raise Undecidable(
            f"monodromy membership undecided at word bound {spec.word_bound}"
        )
    return verdict == "in"


# --- Kahler models and cone conditions -----------------------------------------


class KahlerModel(Frozen):
    """Polyhedral model of the ample (or movable) cone inside NS tensor R.

    cone lives in NS coordinates; embedding rows are the NS basis inside the
    lattice, so they must be linearly independent.  Rays must be nonnegative
    and mutually nonnegative for the lattice form (one positivity component),
    and the cone full-dimensional.
    """

    cone: object
    embedding: tuple
    lattice: IntegerLattice

    def __post_init__(self):
        emb = integer_rows(self.embedding, "embedding")
        object.__setattr__(self, "embedding", emb)
        d = len(emb)
        if any(len(row) != self.lattice.rank for row in emb):
            raise DimensionMismatch("embedding row length != lattice rank")
        if la.rank(emb) != d:
            raise InvalidInput("embedding rows must be linearly independent")
        if self.cone.ambient_dim != d:
            raise DimensionMismatch("cone dimension != NS rank")
        if not self.cone.is_full_dimensional():
            raise InvalidInput("Kahler model cone must be full-dimensional")
        if self.cone.lines:
            raise InvalidInput("Kahler model cone must be pointed")
        b = self.lattice.gram_of([self.to_lattice(r) for r in self.cone.rays])
        for i, row in enumerate(b):
            if row[i] < 0:
                raise InvalidInput("Kahler model ray with q < 0")
            if any(x < 0 for x in row[i + 1:]):
                raise InvalidInput("Kahler model rays in opposite components")

    def to_lattice(self, v):
        """NS coordinates -> ambient lattice coordinates."""
        return la.mat_vec(la.transpose(self.embedding), v)

    def ambient_cone(self):
        return cone_from_rays(
            self.lattice.rank, tuple(self.to_lattice(r) for r in self.cone.rays)
        )

    def restrict_matrix(self, matrix):
        """The matrix in NS coordinates of an isometry preserving NS, or None."""
        cols = la.transpose(self.embedding)
        out_cols = []
        for row in self.embedding:
            sol = la.solve_int(cols, la.mat_vec(matrix, row))
            if sol is None:
                return None
            out_cols.append(sol)
        # rows of embedding map to their images; restriction acts on coordinates
        return la.transpose(tuple(out_cols))

    def interior_point(self):
        """Sum of the rays: interior, since the cone is full-dimensional."""
        rays = self.cone.rays
        return la.mat_vec(la.transpose(rays), (1,) * len(rays))


# --- Torelli-style predicates ---------------------------------------------------


def torelli_anti_check(matrix, h_source, h_target, k_source, k_target, spec):
    """The four lattice-side conditions for an anti-holomorphic isomorphism:
    (1) monodromy membership, (2) isometry, (3) anti-Hodge, (4) the image of
    the source Kahler model meets the negated target model.  Returns the
    per-condition booleans, their conjunction and completeness: a BoundedSearch
    when condition 1 is undecided at the word bound, with mode='bounded'.

    Source and target are marked lattices on the same Gram matrix (the
    deformation-equivalent setting); only the periods and cone models differ.
    """
    lat = h_target.lattice
    if h_source.lattice.gram != lat.gram:
        raise InvalidInput("source and target must share the Gram matrix")
    if k_source.lattice.gram != lat.gram or k_target.lattice.gram != lat.gram:
        raise InvalidInput("Kahler models and Hodge structures live on different lattices")
    mon_verdict = mon_contains(spec, lat, matrix)
    cond1 = mon_verdict == "in"
    cond2 = is_isometry(lat, matrix)
    cond3 = period_action(matrix, h_source, h_target)[0] == HodgeKind.ANTI
    # m S meets -T in relative interiors iff -m S meets T (m may be singular)
    negated = tuple(tuple(-x for x in row) for row in matrix)
    moved = transform_cone(k_source.ambient_cone(), negated)
    target = k_target.ambient_cone()
    if moved.dim() != target.dim():
        raise InvalidInput("cone models of different dimensions")
    cond4 = intersect(moved, target).dim() == target.dim()
    return {
        "parallel_transport": cond1,
        "parallel_transport_mode": "bounded" if mon_verdict == "unknown" else "exact",
        "isometry": cond2,
        "anti_hodge": cond3,
        "kahler_condition": cond4,
        "verdict": cond1 and cond2 and cond3 and cond4,
        "completeness": search_completeness(mon_verdict == "unknown"),
    }


class KleinVerdict(Frozen):
    kind: str  # "KleinRealizable" | "NotRealizable" | "Undecided"
    sign: int = 0
    reason: str = ""

    @property
    def completeness(self):
        return search_completeness(self.kind == "Undecided")


def kaut_star_criterion(matrix, h, kmodel, spec):
    """Is phi the dagger of a Klein automorphism?  phi must lie in the
    Klein-Hodge monodromy group and send some Kahler class to a Kahler class;
    the sign is +1 on the Hodge branch and -1 on the anti-Hodge branch.

    On the anti branch the dagger is the representative of {phi, -phi} that
    preserves the positive component of NS (the dagger of an anti-holomorphic
    automorphism preserves the ample cone); the cone condition is then an
    honest chamber check.
    """
    if kmodel.lattice.gram != h.lattice.gram:
        raise InvalidInput("Kahler model and Hodge structure live on different lattices")
    try:
        member = mon2_khdg_member(matrix, h, spec)
    except Undecidable as exc:
        return KleinVerdict("Undecided", reason=str(exc))
    if not member:
        return KleinVerdict("NotRealizable", reason="not in Mon2_KHdg")
    kind = period_action(matrix, h)[0]
    dagger = matrix
    sign = 1
    if kind == HodgeKind.ANTI:
        sign = -1
        kappa = kmodel.to_lattice(kmodel.interior_point())
        if h.lattice.pairing(la.mat_vec(matrix, kappa), kappa) < 0:
            dagger = tuple(tuple(-x for x in row) for row in matrix)
    # an isometry: A cap dagger^-1 A has the dimension of dagger A cap A
    ample = kmodel.ambient_cone()
    if meet_preimage(ample, dagger, ample).dim() == ample.dim():
        return KleinVerdict("KleinRealizable", sign=sign)
    return KleinVerdict("NotRealizable", reason="cone condition fails")


# --- the Hilbert-scheme operator -------------------------------------------------


def hilbert_square_extension(h, n, sigma_star):
    """Extend an anti-Hodge Isometry sigma* to L + <-2(n-1)> as sigma* + (-id).

    Returns the extended Hodge lattice, the Klein isometry (sign -1), and a
    report verifying: involution, isometry, anti-Hodge, discriminant action
    -id on the new summand (and on the whole discriminant group when the base
    lattice is unimodular), plus an anti-invariant class of positive square
    built as (w - delta/k) with sigma*(w) = -w.
    """
    if n < 2:
        raise InvalidInput("need n >= 2")
    lat = h.lattice
    m = sigma_star.matrix
    if not is_isometry(lat, m):
        raise InvalidInput("sigma* must be an isometry")
    if la.mat_mul(m, m) != la.identity_matrix(lat.rank):
        raise InvalidInput("sigma* must be an involution")
    if period_action(m, h)[0] != HodgeKind.ANTI:
        raise InvalidInput("sigma* must be anti-Hodge for the given period")
    ext = direct_sum(lat, IntegerLattice(((-2 * (n - 1),),)))
    rank = lat.rank
    phi = la.block_diagonal(m, ((-1,),))
    h_ext = HodgeLattice(
        ext, tuple(h.period_re) + (0,), tuple(h.period_im) + (0,)
    )
    klein = KleinIsometry(Isometry(ext, phi), -1)
    report = {}
    report["involution"] = la.mat_mul(phi, phi) == la.identity_matrix(rank + 1)
    report["isometry"] = is_isometry(ext, phi)
    report["anti_hodge"] = period_action(phi, h_ext)[0] == HodgeKind.ANTI
    # delta-part discriminant action: delta* = delta / (2(n-1))
    delta_gen = tuple(
        Fraction(0) if i < rank else Fraction(1, 2 * (n - 1)) for i in range(rank + 1)
    )
    report["discriminant_minus_id_on_delta"] = acts_as_scalar(phi, [delta_gen], -1)
    if abs(lat.det()) == 1:
        report["discriminant_factors"] = discriminant_group(ext).invariant_factors
        report["discriminant_minus_id"] = discriminant_acts_as(ext, phi, -1)
    anti_class = _anti_invariant_kahler_certificate(h, m, n)
    if anti_class is not None:
        w, k = anti_class
        cls = tuple(Fraction(c) for c in w) + (Fraction(-1, k),)
        q_cls = ext.q(cls)
        img = la.mat_vec(phi, cls)
        report["anti_invariant_class"] = cls
        report["anti_invariant_pullback_negates"] = img == tuple(-c for c in cls)
        report["anti_invariant_positive"] = q_cls > 0
    else:
        report["anti_invariant_class"] = None
        report["anti_invariant_pullback_negates"] = False
        report["anti_invariant_positive"] = False
    report["all_pass"] = all(
        report[key] is True
        for key in (
            "involution",
            "isometry",
            "anti_hodge",
            "discriminant_minus_id_on_delta",
            "anti_invariant_pullback_negates",
            "anti_invariant_positive",
        )
    )
    return h_ext, klein, report


def _anti_invariant_kahler_certificate(h, m, n):
    """Find rational w with sigma*(w) = -w, w orthogonal to the period and
    q(w) > 0; return (w, k) with q(w - delta/k) > 0."""
    lat = h.lattice
    rows = [lat.covector(h.period_re), lat.covector(h.period_im)]
    for i in range(lat.rank):
        rows.append(
            tuple(m[i][j] + (1 if i == j else 0) for j in range(lat.rank))
        )
    ker = la.int_kernel(tuple(rows))
    if not ker:
        return None
    ker_cols = la.transpose(ker)
    for height in range(1, 8):
        for coeffs in _integer_vectors_of_height(len(ker), height):
            w = la.mat_vec(ker_cols, coeffs)
            qw = lat.q(w)
            if qw > 0:
                # the least k with k^2 * q(w) > 2(n - 1); q(w) is an integer
                return w, isqrt(2 * (n - 1) // qw) + 1
    return None


# --- anti-invariant interior classes ----------------------------------------------


def anti_invariant_class(kmodel, klein):
    """A rational interior class of the model fixed by the dagger action.

    Computed as the orbit sum of an interior point under the (finite-order)
    dagger restriction; for an involution this is omega + dagger(omega).
    Cannot fail when the dagger preserves the cone, which is asserted.
    """
    dag = klein.dagger_matrix() if isinstance(klein, KleinIsometry) else klein
    r = kmodel.restrict_matrix(dag)
    if r is None:
        raise InvalidInput("dagger action does not preserve the NS span")
    # r maps the pointed full-dimensional cone onto itself iff it permutes its rays up to scale
    rays = kmodel.cone.rays
    if sorted(la.primitive_vector(la.mat_vec(r, ray)) for ray in rays) != sorted(rays):
        raise InvalidInput("dagger action does not preserve the cone")
    order = la.matrix_order(r, 64)
    if order is None:
        raise InvalidInput("dagger restriction has no order up to 64")
    omega = kmodel.interior_point()
    total = list(omega)
    current = tuple(omega)
    for _ in range(order - 1):
        current = la.mat_vec(r, current)
        for i in range(len(total)):
            total[i] += current[i]
    c = tuple(total)
    if la.mat_vec(r, c) != c or not kmodel.cone.contains_strictly(c):
        raise NoInvariantInteriorPoint(
            "orbit sum failed; the cone is not dagger-invariant"
        )
    return c


# --- Proposition-style finite subgroup machinery ------------------------------------


def _meets_domain(cert, m):
    """Whether m lies in the set S: m(Sigma) cap Sigma meets the open cone C
    for the domain Sigma of cert.  m^-1 maps that intersection onto
    {x in Sigma : m x in Sigma}, so no inverse is needed; when Sigma is the
    full cone that set is the whole space, which meets C for every m.  A
    meet in a cusp ray alone does not count: the parabolic words that meet
    Sigma there would make S grow with the word bound."""
    meet = meet_preimage(cert.domain, m, cert.domain)
    if meet.is_zero():
        return False
    return cone_meets_component(meet, cert.positive_cone)


def prop_key_reduction(group_elements, cert, y):
    """Conjugate a finite dagger-image group into the neighborhood of the
    fundamental domain: fix x = sum g.y, reduce x into the domain by the
    certificate, conjugate by the reduction word, and verify every conjugated
    element phi satisfies: phi(Sigma) cap Sigma meets C."""
    pos = cert.positive_cone
    mats = []
    for g in group_elements:
        mats.append(g.dagger_matrix() if isinstance(g, KleinIsometry) else g)
    matset = set(mats)
    for a in mats:
        for b in mats:
            if la.mat_mul(a, b) not in matset:
                raise InvalidInput("input is not closed under composition")
    yv = tuple(Fraction(c) for c in y)
    if not pos.contains_open(yv):
        raise InvalidInput("base point must lie in the open cone")
    images = [la.mat_vec(mt, yv) for mt in mats]
    if images:
        x = la.mat_vec(la.transpose(images), (1,) * len(images))
    else:
        x = (Fraction(0),) * pos.dim
    for mt in mats:
        assert la.mat_vec(mt, x) == x
    reduced, w, _ = reduce_into_domain(cert, x)
    winv = la.unimodular_inverse(w)
    conjugated = [la.mat_mul(w, la.mat_mul(mt, winv)) for mt in mats]
    per_element = [
        {"matrix": cm, "meets_domain": _meets_domain(cert, cm)} for cm in conjugated
    ]
    return w, conjugated, {
        "fixed_point": x,
        "reduced_point": reduced,
        "all_in_S": all(e["meets_domain"] for e in per_element),
        "elements": per_element,
    }


def classify_finite_subgroups_on_cone(gamma, cert):
    """Conjugacy classes of finite subgroups of the cone action, through the
    finite set S = {phi : phi(Sigma) cap Sigma meets C}.  A finite subgroup
    fixes a point of C, which reduces into Sigma, so a conjugate of it lies
    in S; a word whose translate meets Sigma only in a cusp ray is left out.

    Enumerates words up to the group's bound, keeps those meeting the domain,
    lists the subgroups inside S by cyclic extension, and deduplicates by
    bounded conjugation.  Returns (representatives, report); completeness is
    BoundedSearch by construction.  A certificate of another group than
    gamma is refused (InvalidInput).
    """
    from .cohomology import conjugacy_representatives, extension_subgroups

    cert.check_group(gamma)
    elements = gamma.elements_up_to()
    s_set = sorted({el.matrix for el in elements if _meets_domain(cert, el.matrix)})
    ident = la.identity_matrix(gamma.lattice.rank)
    subgroups = extension_subgroups(
        s_set, la.mat_mul, ident, allowed=frozenset(s_set)
    )
    conjugators = [el.matrix for el in elements]
    classes = [
        tuple(sorted(h))
        for h in conjugacy_representatives(subgroups, conjugators, la.mat_mul, gamma.inverse)
    ]
    report = {
        "s_size": len(s_set),
        "word_bound": gamma.word_bound,
        "completeness": "BoundedSearch",
        "class_count": len(classes),
    }
    return classes, report

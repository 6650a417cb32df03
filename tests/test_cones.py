import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest

from klein_lattice import cones, frozen
from klein_lattice import intlinalg as la
from klein_lattice import serialize as ser
from klein_lattice.cones import (
    DomainCertificate,
    PositiveCone,
    cone_from_halfspaces,
    cone_from_rays,
    cone_meets_component,
    dirichlet_domain,
    dual,
    find_trivial_stabilizer_point,
    interiors_meet_component,
    intersect,
    make_membership_tester,
    meet_preimage,
    rational_closure_member,
    reduce_into_domain,
    sample_cone_points,
    siegel_intersections,
    transform_cone,
    verify_fundamental_domain,
)
from klein_lattice.errors import (
    CoverageFailure,
    DimensionMismatch,
    DisjointnessFailure,
    InvalidInput,
    NonPositiveVector,
    NonStabilizing,
    NotHyperbolic,
    NontrivialStabilizer,
    ReductionFailure,
)
from klein_lattice.hodge import HodgeLattice, prop_key_reduction
from klein_lattice.isometry import GeneratedGroup, Isometry, stabilizer
from klein_lattice.lattice import IntegerLattice, U

from cases import DIHEDRAL_UNITS, REFLECTION_GROUPS, dihedral_fixture, reflection_group

PELL = ((3, 4), (2, 3))


def test_quadrant_self_dual():
    q = cone_from_halfspaces(2, ((1, 0), (0, 1)))
    assert set(q.rays) == {(1, 0), (0, 1)}
    assert dual(q).same_cone(q)


def test_intersect_quadrant():
    c1 = cone_from_halfspaces(2, ((1, 0),))
    c2 = cone_from_halfspaces(2, ((0, 1),))
    ci = intersect(c1, c2)
    assert set(ci.rays) == {(1, 0), (0, 1)}


def test_double_description_roundtrip():
    rng = random.Random(9)
    for _ in range(40):
        dim = rng.randint(2, 4)
        k = rng.randint(1, dim + 2)
        rays = []
        for _ in range(k):
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
            if any(v):
                rays.append(v)
        if not rays:
            continue
        c = cone_from_rays(dim, tuple(rays))
        again = cone_from_rays(dim, c.rays, c.lines)
        assert again.same_cone(c)
        assert again.rays == c.rays
        for r in rays:
            assert c.contains(r)


def pinned_cones(count, seed):
    """Seeded cones of dimension 1-5 from both builders and dual: up to
    dim + 2 vectors with entries in [-3, 3] and 0-2 equalities (or lines)
    with entries in [-2, 2], zero vectors and repeats included."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 5)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(0, dim + 2))]
        extra = [tuple(rng.randint(-2, 2) for _ in range(dim))
                 for _ in range(rng.randint(0, 2))]
        c = cone_from_halfspaces(dim, vecs, extra)
        yield c
        yield cone_from_rays(dim, vecs, extra)
        yield dual(c)


def test_double_description_outputs_are_pinned():
    # a rewrite of dd_rays or of the builder must give these cones byte for
    # byte; dim() reads the dimension off the equalities, which holds
    # because they are a basis of the orthogonal complement of the span
    digest = hashlib.sha256()
    for c in pinned_cones(500, 18):
        digest.update(repr((c.ambient_dim, c.rays, c.lines, c.halfspaces, c.equalities)).encode())
        assert c.dim() == la.rank(c.generators())
    assert digest.hexdigest() == (
        "58fdd499227f73febd68da00684ad0b58dd757efab0590146073f23267ad0287"
    )


def test_every_dd_step_keeps_each_mask_equal_to_its_tight_set(monkeypatch):
    # _insert_halfspace updates the masks without rescanning: after each
    # step, bit j of a ray's mask must be set iff inserted[j] vanishes on it
    real = cones._insert_halfspace
    steps = []

    def checked(dim, lines, rays, inserted, h, ranks):
        new_lines, new_rays = real(dim, lines, rays, inserted, h, ranks)
        after = inserted + [h]
        for v, mask in new_rays:
            assert mask == sum(1 << j for j, hj in enumerate(after) if la.dot(hj, v) == 0)
        steps.append(len(new_lines) < len(lines))
        return new_lines, new_rays

    monkeypatch.setattr(cones, "_insert_halfspace", checked)
    for _ in pinned_cones(500, 18):
        pass
    # both branches ran: steps that used up a line and steps that did not
    assert len(set(steps)) == 2 and len(steps) > 10000


def baseline_halfspaces(dim):
    # the ROADMAP Baseline cone of dimension dim: 4(dim - 1) halfspaces
    # (|v|_1 + k, v), v with entries in [-3, 3] and k in [1, 3]
    rng = random.Random(dim)
    halfspaces = []
    for _ in range(4 * (dim - 1)):
        v = [rng.randint(-3, 3) for _ in range(dim - 1)]
        halfspaces.append((sum(map(abs, v)) + rng.randint(1, 3), *v))
    return halfspaces


def test_adjacency_is_decided_once_per_common_mask(monkeypatch):
    # the dim-5 Baseline cone, 16 halfspaces with 57 rays; one rank test per
    # (positive, negative) pair made 10,138, one per common mask in each
    # step 1,520, one per mask in each run 559, and one per mask with at
    # least as many bits as the step's target 261
    halfspaces = baseline_halfspaces(5)
    real = la.rank
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(la, "rank", counted)
    c = cone_from_halfspaces(5, halfspaces)
    first = len(calls)
    assert len(c.rays) == 57 and first <= 300
    digest = hashlib.sha256(
        repr((c.ambient_dim, c.rays, c.lines, c.halfspaces, c.equalities)).encode()
    )
    assert digest.hexdigest() == (
        "1c03bf99d8e83d17fb65d21593dc346e16ef2604c0bd61686246cefe1025d6df"
    )
    # the ranks live for one run: a second build pays for every mask again
    assert cone_from_halfspaces(5, halfspaces) == c
    assert len(calls) == 2 * first
    # the dim-4 Baseline cone, 20 rays and 12 facets: 67 rank tests before
    # masks with too few bits for the target were skipped, 41 since
    calls.clear()
    c = cone_from_halfspaces(4, baseline_halfspaces(4))
    assert (len(c.rays), len(c.halfspaces)) == (20, 12) and len(calls) <= 41


def test_no_rank_test_has_fewer_rows_than_its_target(monkeypatch):
    # the rank of k rows is at most k, so a common mask with fewer bits
    # than dim - len(lines) - 2 cannot be adjacent and must not be ranked
    real_step = cones._insert_halfspace
    real_rank = la.rank
    target = [None]
    checked = []

    def step(dim, lines, rays, inserted, h, ranks):
        target[0] = dim - len(lines) - 2
        try:
            return real_step(dim, lines, rays, inserted, h, ranks)
        finally:
            target[0] = None

    def rank(rows):
        if target[0] is not None:
            assert len(rows) >= target[0]
            checked.append(len(rows))
        return real_rank(rows)

    monkeypatch.setattr(cones, "_insert_halfspace", step)
    monkeypatch.setattr(la, "rank", rank)
    for _ in pinned_cones(500, 18):
        pass
    # 1,084 rank tests ran inside a step, none below its target
    assert checked


@pytest.mark.parametrize("build, vectors", [
    (cone_from_halfspaces, [(1.5, 1)]),
    (cone_from_rays, [(1, "1/2")]),
    (cone_from_halfspaces, [(1, 0), None]),
    (cone_from_halfspaces, [(0.0, 0.0), (1, 0)]),
])
def test_a_non_rational_entry_is_invalid_input(build, vectors):
    with pytest.raises(InvalidInput):
        build(2, vectors)


@pytest.fixture(scope="module")
def point_readers(pell_lattice, pell_cone, pell_group, pell_cert):
    """Every library entry point that takes a rational point, as (length,
    call); each reads the point through lattice.rational_point."""
    quadrant = cone_from_halfspaces(2, [(1, 0), (0, 1)])
    euclidean = IntegerLattice(la.identity_matrix(3))
    return (
        (2, quadrant.contains),
        (2, quadrant.contains_strictly),
        (2, pell_cone.contains_open),
        (2, lambda x: rational_closure_member(pell_cone, x)),
        (2, lambda x: cone_from_rays(2, [x])),
        (2, lambda x: PositiveCone(pell_lattice, x)),
        (2, lambda x: dirichlet_domain(pell_group, pell_cone, x)),
        (2, lambda x: reduce_into_domain(pell_cert, x)),
        (2, lambda x: GeneratedGroup(pell_lattice, (), component_base=x)),
        (2, lambda x: stabilizer(pell_group, x)),
        (3, lambda x: HodgeLattice(euclidean, x, (0, 1, 0))),
        (3, lambda x: HodgeLattice(euclidean, (1, 0, 0), x)),
        (2, lambda x: prop_key_reduction((), pell_cert, x)),
    )


@pytest.mark.parametrize("point", [(0.5, 1), (0.0, 0.0), (1, None), ("1", 2)])
def test_membership_refuses_a_non_rational_point(point_readers, point):
    # the same InvalidInput at every entry point: no AttributeError or
    # TypeError, no float stored or computed with, no string parsed, and a
    # float zero does not pass as the zero vector
    for n, read in point_readers:
        with pytest.raises(InvalidInput):
            read(point + (0,) * (n - 2))


@pytest.mark.parametrize("point", [5, Fraction(1, 2)])
def test_every_point_reader_refuses_a_non_sequence(point_readers, point):
    for _, read in point_readers:
        with pytest.raises(InvalidInput):
            read(point)


def test_every_point_reader_refuses_a_wrong_length(point_readers):
    # reduce_into_domain included: a wrong length is not a failed reduction
    for n, read in point_readers:
        with pytest.raises(DimensionMismatch):
            read((-1, 0, 5) + (0,) * (n - 2))


def test_a_valid_point_keeps_its_value_and_type(pell_lattice, pell_group, pell_cone, pell_cert):
    # the Fraction sites store Fractions and GeneratedGroup the given values,
    # so equality, hash, repr and JSON see the same points as before
    def fractions(v):
        assert {type(c) for c in v} == {Fraction}
        return v

    euclidean = IntegerLattice(la.identity_matrix(3))
    for p in ((3, 1), (Fraction(3, 2), Fraction(1, 2))):
        assert fractions(PositiveCone(pell_lattice, p).component_base) == p
        assert GeneratedGroup(pell_lattice, (), component_base=p).component_base is p
        fractions(reduce_into_domain(pell_cert, p)[0])
        key = prop_key_reduction((la.identity_matrix(2),), pell_cert, p)[2]
        assert fractions(key["fixed_point"]) == p
    assert fractions(pell_cert.xi) == (1, 0)
    xi = (Fraction(1, 2), 0)
    assert fractions(dirichlet_domain(pell_group, pell_cone, xi, 4).xi) == xi
    assert fractions(reduce_into_domain(pell_cert, (1, 0))[0]) == (1, 0)
    h = HodgeLattice(euclidean, (1, 0, 0), (0, Fraction(1), 0))
    assert fractions(h.period_re) == (1, 0, 0)
    assert fractions(h.period_im) == (0, 1, 0)


def test_round_trip_checks_the_input_equalities(monkeypatch):
    # the round trip checks the input equalities as well as the halfspaces:
    # a first pass that returns a generator off y = 0 must be refused
    real = cones.dd_rays
    passes = []

    def broken(dim, halfspaces, equalities=()):
        passes.append(dim)
        if len(passes) == 1:
            return ((1, 1),), ()
        return real(dim, halfspaces, equalities)

    monkeypatch.setattr(cones, "dd_rays", broken)
    with pytest.raises(InvalidInput):
        cone_from_halfspaces(2, [(1, 0)], [(0, 1)])


def test_dual_dual_identity_on_full_dimensional():
    c = cone_from_rays(3, ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)))
    assert c.is_full_dimensional()
    assert dual(dual(c)).same_cone(c)


def test_non_pointed_and_zero_cones():
    hp = cone_from_halfspaces(2, ((1, 0),))
    assert len(hp.lines) == 1
    z = cone_from_halfspaces(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))
    assert z.is_zero()
    full = cone_from_halfspaces(2, ())
    assert len(full.lines) == 2 and not full.halfspaces


def test_contains_is_exact_on_rationals():
    from fractions import Fraction

    c = cone_from_rays(2, ((2, 1), (2, -1)))
    assert c.contains((1, 0))
    assert c.contains((Fraction(1), Fraction(1, 2)))
    assert not c.contains((Fraction(1), Fraction(51, 100)))


@pytest.mark.parametrize("point", [(1,), (1, 0, 0)])
def test_membership_refuses_a_point_of_the_wrong_length(point):
    c = cone_from_rays(2, ((2, 1), (2, -1)))
    with pytest.raises(DimensionMismatch):
        c.contains(point)
    with pytest.raises(DimensionMismatch):
        c.contains_strictly(point)


def test_rational_closure_membership(pell_cone):
    assert rational_closure_member(pell_cone, (1, 0))
    assert rational_closure_member(pell_cone, (0, 0))
    assert not rational_closure_member(pell_cone, (0, 1))  # q < 0
    assert not rational_closure_member(pell_cone, (-1, 0))  # wrong component
    # U has rational isotropic boundary rays inside C+
    pos_u = PositiveCone(U(), (1, 1))
    assert rational_closure_member(pos_u, (1, 0))
    assert rational_closure_member(pos_u, (0, 1))
    assert not rational_closure_member(pos_u, (0, -1))


# (diagonal Gram matrix, component base, rational isotropic vectors): the
# Pell form 2x^2 - 4y^2 has none
SIGN_TEST_LATTICES = {
    "pell": ((2, -4), (1, 0), ()),
    "signflip": ((2, -2, -2), (1, 0, 0), ((1, 1, 0), (1, 0, -1), (-1, 1, 0))),
    "triangle-2-4-inf": ((1, -1, -1), (10, 2, 1), ((1, 1, 0), (5, 3, -4), (-1, 0, 1))),
    "coxeter-3-4-4": (
        (1, -1, -1, -1), (10, 3, 2, 1), ((1, 1, 0, 0), (3, -2, 2, 1), (-1, 0, 1, 0)),
    ),
}


@pytest.mark.parametrize("name", sorted(SIGN_TEST_LATTICES))
def test_membership_signs_on_primitive_vectors_match_fractions(name):
    # the membership tests read their signs on primitive integer vectors;
    # the reference evaluates the same forms on the Fraction point
    diag, base, isotropic = SIGN_TEST_LATTICES[name]
    n = len(diag)
    lat = IntegerLattice(tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)))
    pos = PositiveCone(lat, base)
    rng = random.Random(25)
    cones_ = [
        cone_from_rays(n, tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)))
        for k in (n - 1, n, n + 2)
    ]
    # a lower-dimensional cone has equalities, a full-dimensional one none
    assert any(c.equalities for c in cones_) and any(c.is_full_dimensional() for c in cones_)

    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    points = [(0,) * n]
    for _ in range(300):
        points.append(tuple(rational() for _ in range(n)))
    for v in isotropic:
        assert lat.q(v) == 0
        points += [tuple(c * Fraction(k, 3) for c in v) for k in (-4, -1, 2, 5)]
    # points on the cones' boundaries, where >= and > part
    points += [tuple(a * Fraction(k, 2) for a in r) for c in cones_ for r in c.rays for k in (-1, 3)]
    seen = {True: 0, False: 0}
    for x in points:
        xv = tuple(Fraction(c) for c in x)
        q, side = lat.q(xv), lat.pairing(xv, pos.component_base)
        assert pos.contains_open(x) == (q > 0 and side > 0)
        assert rational_closure_member(pos, x) == (not any(xv) or q >= 0 and side > 0)
        seen[rational_closure_member(pos, x)] += 1
        for c in cones_:
            hs = [la.dot(h, xv) for h in c.halfspaces]
            eqs = [la.dot(e, xv) for e in c.equalities]
            on_span = all(d == 0 for d in eqs)
            assert c.contains(x) == (all(d >= 0 for d in hs) and on_span)
            assert c.contains_strictly(x) == (all(d > 0 for d in hs) and on_span)
        for lam in (Fraction(1, 7), Fraction(5, 3), 4):
            y = tuple(lam * c for c in x)
            assert pos.contains_open(y) == pos.contains_open(x)
            assert rational_closure_member(pos, y) == rational_closure_member(pos, x)
            for c in cones_:
                assert c.contains(y) == c.contains(x)
                assert c.contains_strictly(y) == c.contains_strictly(x)
    assert seen[True] and seen[False]


def test_positive_cone_validation():
    with pytest.raises(NotHyperbolic):
        PositiveCone(IntegerLattice(((2, 0), (0, 2))), (1, 0))
    with pytest.raises(NonPositiveVector):
        PositiveCone(IntegerLattice(((2, 0), (0, -4))), (0, 1))


def test_empty_input_rejected():
    from klein_lattice.errors import EmptyInput

    with pytest.raises(EmptyInput):
        cone_from_rays(0, ())
    with pytest.raises(EmptyInput):
        cone_from_halfspaces(-1, ())


def test_domain_construction_rank_limit():
    from klein_lattice.errors import UnsupportedRank

    gram = [[-2 if i == j else 0 for j in range(5)] for i in range(5)]
    gram[0][0] = 2
    lat = IntegerLattice(tuple(map(tuple, gram)))
    pos = PositiveCone(lat, (1, 0, 0, 0, 0))
    gamma = GeneratedGroup(lat, (), word_bound=3, component_base=(1, 0, 0, 0, 0))
    with pytest.raises(UnsupportedRank):
        dirichlet_domain(gamma, pos, (1, 0, 0, 0, 0))
    # pure cone algebra has no rank limit
    c = cone_from_rays(5, tuple(tuple(1 if j <= i else 0 for j in range(5)) for i in range(5)))
    assert c.is_full_dimensional()


def test_reduction_of_a_point_past_the_recorded_orbit(pell_cert):
    far = (3, 1)
    for _ in range(22):  # deep in the orbit: needs two moves of depth <= 20
        far = la.mat_vec(PELL, far)
    assert pell_cert.positive_cone.contains_open(far)
    point, _, steps = reduce_into_domain(pell_cert, far)
    assert pell_cert.domain_contains(point) and steps >= 2


def test_membership_tester_takes_every_move_the_point_needs(monkeypatch):
    # the (2,4,inf) triangle group at word bound 3, with 16 moves; u = g1*g2,
    # the product of the reflections in (0, 0, -1) and (1, 1, 1), is
    # parabolic, and u^1510*xi lies 1007 moves from xi: past a fixed budget
    # of 1000, which would have answered unknown
    diag, roots, xi, _ = REFLECTION_GROUPS["triangle-2-4-inf"]
    gamma = reflection_group(diag, roots, xi, 3)
    cert = dirichlet_domain(gamma, PositiveCone(gamma.lattice, xi), xi)
    assert len(cert.moves) == 16
    g = [el.matrix for el in gamma.generator_elements()]
    u = la.mat_mul(g[1], g[2])
    assert u != la.identity_matrix(3) and sum(u[i][i] for i in range(3)) == 3
    m = la.identity_matrix(3)
    for _ in range(1510):
        m = la.mat_mul(u, m)
    real, products = la.mat_mul, []
    monkeypatch.setattr(la, "mat_mul", lambda a, b: products.append(1) or real(a, b))
    assert make_membership_tester(cert)(m) == "in"
    assert len(products) == 1007 + 1  # one product per move, then W*M


def test_reduction_takes_no_move_out_of_the_component(pell_lattice, pell_cert):
    # a group that also holds -I, which dirichlet_domain and the JSON reader
    # refuse: a move to -x lowers <xi, .> below 0, and taking it would send
    # the reduction off the cone
    minus = ((-1, 0), (0, -1))
    group = GeneratedGroup(
        pell_lattice, pell_cert.group.generators + (Isometry(pell_lattice, minus),),
        word_bound=20, component_base=(1, 0),
    )
    group.layers(20)  # the moves' inverses are read off the word tree
    cert = frozen.replace(pell_cert, group=group)
    assert minus in cert.moves
    y = la.mat_vec(PELL, pell_cert.xi)
    _, _, pell_steps = reduce_into_domain(pell_cert, y)
    point, w, steps = reduce_into_domain(cert, y)
    assert point == pell_cert.xi and steps == pell_steps
    assert w == la.unimodular_inverse(PELL)
    report, _ = verify_fundamental_domain(cert, samples=5, disjoint_word_len=2)
    assert report["covering"]["status"] == report["disjointness"]["status"] == "pass"


def test_reduction_refuses_a_point_off_the_closed_cone(monkeypatch, pell_lattice, pell_cert):
    # <xi, .> has no lower bound off the closure of C, so no step is taken
    # there; one word-matrix product is one step
    real, steps = la.mat_mul, []

    def counting(a, b):
        steps.append(1)
        return real(a, b)

    monkeypatch.setattr(la, "mat_mul", counting)
    far = (Fraction(3), Fraction(1))
    for _ in range(22):
        far = la.mat_vec(PELL, far)
    _, _, taken = reduce_into_domain(pell_cert, far)
    assert taken >= 2 and len(steps) == taken
    # -xi, -(3, 1), and two points with q < 0, one of them with <xi, x> > 0
    for x in ((-1, 0), (-3, -1), (0, 1), (1, 3)):
        steps.clear()
        with pytest.raises(ReductionFailure, match="outside the closed positive cone"):
            reduce_into_domain(pell_cert, x)
        assert steps == []
    p2 = real(PELL, PELL)
    gamma = GeneratedGroup(pell_lattice, (Isometry(pell_lattice, p2),), component_base=(1, 0))
    tester = make_membership_tester(dirichlet_domain(gamma, pell_cert.positive_cone, (1, 0)))
    steps.clear()
    assert tester(((-1, 0), (0, -1))) == "out" and steps == []


def test_reduction_refuses_an_off_cone_point_that_the_domain_holds(pell_lattice, pell_cone):
    # the entry check runs before the domain test: D = {x2 <= 0} holds
    # (0, -1) and (1, -3) (q < 0) and (-5, -1) (<xi, .> < 0), and the full
    # cone of the trivial group holds (-1, 0); none lies in the closure of C
    flip = GeneratedGroup(
        pell_lattice, (Isometry(pell_lattice, ((1, 0), (0, -1))),),
        word_bound=4, component_base=(1, 0),
    )
    cert = dirichlet_domain(flip, pell_cone, (3, -1))
    assert cert.domain.halfspaces == ((0, -1),) and not cert.rays_in_closure
    trivial = GeneratedGroup(pell_lattice, (), word_bound=4, component_base=(1, 0))
    full = dirichlet_domain(trivial, pell_cone, (1, 0))
    assert full.full_cone
    for c, x in ((cert, (0, -1)), (cert, (1, -3)), (cert, (-5, -1)), (cert, (-5, 1)), (full, (-1, 0))):
        with pytest.raises(ReductionFailure, match="outside the closed positive cone"):
            reduce_into_domain(c, x)
    for c in (cert, full):
        assert reduce_into_domain(c, (0, 0)) == ((0, 0), la.identity_matrix(2), 0)
    # every member keeps xi in C, so a matrix that moves it off C is out,
    # whether or not its image lands in D
    tester = make_membership_tester(cert)
    assert cert.domain.contains((-3, -1))
    assert tester(((-1, 0), (0, 1))) == tester(((-1, 0), (0, -1))) == "out"


def test_reduction_forms_one_image_per_step(monkeypatch, pell_cert):
    # the moves are ranked by their integer covectors m^T*c, so a step forms
    # the Fraction image m*x of the chosen move only, not of every move
    real, images = la.mat_vec, []
    moves = set(pell_cert.moves)

    def counting(a, v):
        if a in moves and any(isinstance(c, Fraction) for c in v):
            images.append(1)
        return real(a, v)

    far = (3, 1)
    for _ in range(22):
        far = la.mat_vec(PELL, far)
    assert len(pell_cert.moves) > 2
    monkeypatch.setattr(la, "mat_vec", counting)
    point, _, steps = reduce_into_domain(pell_cert, far)
    assert pell_cert.domain_contains(point) and steps >= 2
    assert len(images) == steps


def test_reduction_forms_no_covector_for_a_point_in_the_domain(monkeypatch, pell_cert):
    # the move covectors m^T*c are formed only once x fails the first domain
    # test, so reducing a point already in D transposes no move
    real, calls = la.transpose, []

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(la, "transpose", counting)
    xi = pell_cert.xi
    assert reduce_into_domain(pell_cert, xi) == (xi, la.identity_matrix(2), 0)
    assert calls == []


def test_dirichlet_domain_pell(pell_cert):
    assert set(pell_cert.domain.rays) == {(2, 1), (2, -1)}
    assert set(pell_cert.halfspaces) == {(1, 2), (1, -2)}
    assert pell_cert.stabilization_depth <= 2
    assert pell_cert.rays_in_closure


def test_certificate_derives_its_facets_and_flags(pell_cert):
    assert len(DomainCertificate._fields) == 9
    for name in ("halfspaces", "full_cone", "rays_in_closure"):
        assert name not in DomainCertificate._fields
        assert isinstance(vars(DomainCertificate)[name], property)
    assert pell_cert.halfspaces is pell_cert.domain.halfspaces
    # a domain with a line is not pointed, so its rays do not span it inside C+
    half_plane = frozen.replace(pell_cert, domain=cone_from_halfspaces(2, ((1, 2),)))
    assert not half_plane.full_cone and not half_plane.rays_in_closure


def test_dirichlet_domain_trivial_group(pell_lattice, pell_cone):
    gamma = GeneratedGroup(pell_lattice, (), word_bound=4, component_base=(1, 0))
    cert = dirichlet_domain(gamma, pell_cone, (1, 0))
    assert cert.full_cone and cert.halfspaces == ()
    report, _ = verify_fundamental_domain(cert, samples=20, seed=1)
    assert report["covering"]["status"] == "pass"


def test_dirichlet_domain_dihedral_half_sector(pell_cert, dihedral_cert):
    # the dihedral domain is half of the cyclic-domain sector
    assert len(dihedral_cert.halfspaces) == 2
    for ray in dihedral_cert.domain.rays:
        assert pell_cert.domain.contains(ray)
    assert not pell_cert.domain.same_cone(dihedral_cert.domain)


def test_dirichlet_rejects_fixed_base(dihedral_group, pell_cone):
    with pytest.raises(NontrivialStabilizer):
        dirichlet_domain(dihedral_group, pell_cone, (1, 0))


@pytest.mark.parametrize(
    "diag, roots, xi, bound", list(REFLECTION_GROUPS.values()), ids=list(REFLECTION_GROUPS)
)
def test_dirichlet_domain_of_a_reflection_group_is_its_chamber(diag, roots, xi, bound):
    # Vinberg's roots of diag(1, -1, ..., -1): for xi inside the chamber the
    # Dirichlet domain of the reflection group is the chamber, cut out by
    # exactly the root walls, and depth 1 already finds every wall
    gamma = reflection_group(diag, roots, xi, bound)
    gram = gamma.lattice.gram
    cert = dirichlet_domain(gamma, PositiveCone(gamma.lattice, xi), xi)
    walls = {la.primitive_vector(la.mat_vec(gram, r)) for r in roots}
    assert all(la.dot(h, xi) > 0 for h in walls)
    assert set(cert.halfspaces) == walls
    assert len(cert.halfspaces) == len(roots)
    assert cert.stabilization_depth == 1


def test_dirichlet_nonstabilizing(pell_lattice, pell_cone):
    gamma = GeneratedGroup(
        pell_lattice, (Isometry(pell_lattice, PELL),), word_bound=1,
        component_base=(1, 0),
    )
    with pytest.raises(NonStabilizing):
        dirichlet_domain(gamma, pell_cone, (1, 0), word_bound=1)


def test_dirichlet_domain_rank3_finite_group():
    # sign-flip group of order 4 on diag(2,-2,-2): the domain is cut by the
    # four reflection walls and verification runs the 3-D machinery
    lat = IntegerLattice(((2, 0, 0), (0, -2, 0), (0, 0, -2)))
    pos = PositiveCone(lat, (1, 0, 0))
    g1 = Isometry(lat, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))
    g2 = Isometry(lat, ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    gamma = GeneratedGroup(lat, (g1, g2), word_bound=6, component_base=(1, 0, 0))
    xi = find_trivial_stabilizer_point(gamma, pos)
    cert = dirichlet_domain(gamma, pos, xi)
    assert len(cert.halfspaces) == 2
    report, _ = verify_fundamental_domain(
        cert, samples=40, seed=2, disjoint_word_len=4
    )
    assert report["covering"]["status"] == "pass"
    assert report["disjointness"]["status"] == "pass"
    # second Pell-style lattice: diag(2,-6), unit [[2,3],[1,2]]
    lat2 = IntegerLattice(((2, 0), (0, -6)))
    pos2 = PositiveCone(lat2, (1, 0))
    m2 = Isometry(lat2, ((2, 3), (1, 2)))
    gamma2 = GeneratedGroup(lat2, (m2,), word_bound=14, component_base=(1, 0))
    cert2 = dirichlet_domain(gamma2, pos2, (1, 0), word_bound=14)
    assert cert2.rays_in_closure
    report2, _ = verify_fundamental_domain(
        cert2, samples=60, seed=6, disjoint_word_len=5
    )
    assert report2["covering"]["status"] == "pass"
    cones2, rep2 = siegel_intersections(
        pos2, cert2.domain, cert2.domain, gamma2, word_bound=14
    )
    assert rep2["count"] == 3


PELL_UNITS = {2: (3, 2), 3: (2, 1), 5: (9, 4)}  # a^2 - k b^2 = 1
SIGN_FLIPS = (((1, 0, 0), (0, -1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, -1)))


def domain_case(name):
    """(gamma, positive cone, xi, word bound) of a named Dirichlet domain."""
    if name == "signflip":
        lat = IntegerLattice(((2, 0, 0), (0, -2, 0), (0, 0, -2)))
        pos = PositiveCone(lat, (1, 0, 0))
        gens = tuple(Isometry(lat, m) for m in SIGN_FLIPS)
        gamma = GeneratedGroup(lat, gens, word_bound=6, component_base=(1, 0, 0))
        return gamma, pos, find_trivial_stabilizer_point(gamma, pos), 6
    lat = IntegerLattice(((2, 0), (0, -4)))
    pos = PositiveCone(lat, (1, 0))
    if name == "dihedral":
        gens = (Isometry(lat, PELL), Isometry(lat, ((1, 0), (0, -1))))
        return GeneratedGroup(lat, gens, 12, component_base=(1, 0)), pos, (3, -1), 12
    if name == "rational-xi":
        gamma = GeneratedGroup(lat, (Isometry(lat, PELL),), 20, component_base=(1, 0))
        return gamma, pos, (Fraction(3, 2), Fraction(1, 2)), 20
    k, bound = (int(part) for part in name[len("pell"):].split("-"))
    a, b = PELL_UNITS[k]
    lat = IntegerLattice(((2, 0), (0, -2 * k)))
    gamma = GeneratedGroup(
        lat, (Isometry(lat, ((a, k * b), (b, a))),), bound, component_base=(1, 0)
    )
    return gamma, PositiveCone(lat, (1, 0)), (1, 0), bound


def domain_from_scratch(gamma, pos, xi, word_bound):
    """The reference construction: Fraction orbit points, and the cone of
    each depth rebuilt from every halfspace up to that depth."""
    xiv = tuple(Fraction(c) for c in xi)
    seen = {xiv}
    raw = []  # (depth, covector, matrix, word)
    for depth, layer in enumerate(gamma.layers(word_bound)[1:], start=1):
        for el in layer:
            p = la.mat_vec(el.matrix, xiv)
            if p in seen:
                continue
            seen.add(p)
            diff = tuple(a - b for a, b in zip(p, xiv))
            raw.append((depth, la.primitive_vector(la.mat_vec(pos.lattice.gram, diff)),
                        el.matrix, el.word))
    depth_cones = [
        cone_from_halfspaces(pos.dim, tuple(dict.fromkeys(h for dep, h, _, _ in raw if dep <= d)))
        for d in range(1, raw[-1][0] + 1)
    ]
    final = depth_cones[-1]
    sets = [frozenset(c.halfspaces) for c in depth_cones]
    return {
        "halfspaces": final.halfspaces,
        "domain": (final.rays, final.lines),
        "stabilization_depth": 1 + sets.index(sets[-1]),
        "orbit_elements": tuple((m, w) for _, _, m, w in raw),
        "rays_in_closure": not final.lines and all(
            pos.lattice.q(r) >= 0 and pos.lattice.pairing(r, pos.component_base) > 0
            for r in final.rays
        ),
    }


@pytest.mark.parametrize(
    "name",
    ["pell2-8", "pell2-20", "pell3-8", "pell3-20", "pell5-8", "pell5-20", "dihedral",
     "signflip", "rational-xi"],
)
def test_depth_by_depth_domain_matches_from_scratch(name):
    gamma, pos, xi, bound = domain_case(name)
    cert = dirichlet_domain(gamma, pos, xi, word_bound=bound)
    got = {
        "halfspaces": cert.halfspaces,
        "domain": (cert.domain.rays, cert.domain.lines),
        "stabilization_depth": cert.stabilization_depth,
        "orbit_elements": cert.orbit_elements,
        "rays_in_closure": cert.rays_in_closure,
    }
    assert got == domain_from_scratch(gamma, pos, xi, bound)
    assert cert.xi == tuple(Fraction(c) for c in xi)


def test_domain_construction_inserts_few_halfspaces(monkeypatch, pell_group, pell_cone):
    # building each depth from the previous facets: 4 insertions at depth 1
    # and 6 at each later depth; rebuilding from every halfspace takes 460
    real = cones._insert_halfspace
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cones, "_insert_halfspace", counting)
    dirichlet_domain(pell_group, pell_cone, (1, 0), word_bound=20)
    assert len(calls) <= 150


def test_dirichlet_domain_checks_its_input(pell_lattice, pell_group, pell_cone):
    with pytest.raises(DimensionMismatch):
        dirichlet_domain(pell_group, pell_cone, (1, 0, 7))
    other = PositiveCone(IntegerLattice(((2, 0), (0, -6))), (1, 0))
    with pytest.raises(InvalidInput):
        dirichlet_domain(pell_group, other, (1, 0))
    for bound in (0, -3):
        with pytest.raises(InvalidInput):
            dirichlet_domain(pell_group, pell_cone, (1, 0), word_bound=bound)
    # x -> (-x0, x1) swaps the two components of {q > 0}
    swap = GeneratedGroup(
        pell_lattice, (Isometry(pell_lattice, ((-1, 0), (0, 1))),), 4,
        component_base=(1, 0),
    )
    with pytest.raises(InvalidInput):
        dirichlet_domain(swap, pell_cone, (3, 1))


def test_full_cone_certificate_of_an_infinite_group_fails(pell_group, pell_cone):
    # C+ itself, offered as the domain of the infinite Pell group
    full = DomainCertificate(
        pell_cone, pell_group, (Fraction(1), Fraction(0)), 0,
        cone_from_halfspaces(2, ()), 0, (),
    )
    back = ser.certificate_from_json(ser.certificate_to_json(full))
    assert back.full_cone
    with pytest.raises(DisjointnessFailure):
        verify_fundamental_domain(back, samples=5, seed=1, disjoint_word_len=2)


def test_halfspaces_stable_under_doubling_bound(
    pell_group, pell_cone, dihedral_group
):
    c6 = dirichlet_domain(pell_group, pell_cone, (1, 0), word_bound=6)
    c12 = dirichlet_domain(pell_group, pell_cone, (1, 0), word_bound=12)
    assert frozenset(c6.halfspaces) == frozenset(c12.halfspaces)
    d6 = dirichlet_domain(dihedral_group, pell_cone, (3, -1), word_bound=6)
    d12 = dirichlet_domain(dihedral_group, pell_cone, (3, -1), word_bound=12)
    assert frozenset(d6.halfspaces) == frozenset(d12.halfspaces)


def test_verify_pell(pell_cert):
    report, updated = verify_fundamental_domain(
        pell_cert, samples=100, seed=11, disjoint_word_len=6
    )
    assert report["covering"]["status"] == "pass"
    assert report["disjointness"]["checked"] == 12
    assert updated.covering_evidence["seed"] == 11


@pytest.mark.parametrize(
    "samples, word_len", [(0, 6), (-5, 6), (20, 0), (20, -2)],
    ids=["no-samples", "negative-samples", "no-words", "negative-word-bound"],
)
def test_verify_needs_samples_and_words(pell_cert, samples, word_len):
    # with nothing sampled or no word checked, a "pass" would check nothing
    with pytest.raises(InvalidInput):
        verify_fundamental_domain(
            pell_cert, samples=samples, seed=1, disjoint_word_len=word_len
        )


def test_verify_shrunken_domain_fails_coverage(pell_cert):
    shrunken = cone_from_halfspaces(2, pell_cert.halfspaces + ((1, -40),))
    bad = frozen.replace(pell_cert, domain=shrunken)
    with pytest.raises(CoverageFailure):
        verify_fundamental_domain(bad, samples=50, seed=5, disjoint_word_len=2)


def test_verify_enlarged_domain_fails_disjointness(pell_cert, pell_cone, pell_group):
    # half-plane containing the domain and overlapping its translates
    bad_cone = cone_from_rays(2, ((1, 2), (2, -1)))
    bad = frozen.replace(pell_cert, domain=bad_cone)
    with pytest.raises(DisjointnessFailure):
        verify_fundamental_domain(bad, samples=5, seed=5, disjoint_word_len=4)


def test_reduction_terminates_and_is_reproducible(pell_cert):
    pts = sample_cone_points(pell_cert.positive_cone, 25, seed=42)
    for p in pts:
        q1, w1, s1 = reduce_into_domain(pell_cert, p)
        q2, w2, s2 = reduce_into_domain(pell_cert, p)
        assert (q1, w1, s1) == (q2, w2, s2)
        assert pell_cert.domain_contains(q1)


def test_reduction_outputs_are_pinned(pell_cert):
    # a rewrite of the move loop (integer points, per-move covectors) must
    # give these reductions byte for byte: seeded integer and rational points
    # near 0..6 xi, moved by products of up to three recorded orbit elements,
    # on the six dihedral certificates, both reflection groups and the Pell
    # group; a point off the closure of C pins its refusal message
    certs = [dihedral_fixture(k)[2] for k in DIHEDRAL_UNITS]
    for diag, roots, xi, bound in REFLECTION_GROUPS.values():
        gamma = reflection_group(diag, roots, xi, bound)
        certs.append(dirichlet_domain(gamma, PositiveCone(gamma.lattice, xi), xi))
    certs.append(pell_cert)
    rng = random.Random(30)
    digest = hashlib.sha256()
    taken, refused = [], 0
    for cert in certs:
        c = cert.positive_cone.lattice.covector(cert.xi)
        deep = [m for m, _ in cert.orbit_elements]
        for _ in range(24):
            k = rng.randint(0, 6)
            v = tuple(k * a + rng.randint(-2, 2) for a in cert.xi)
            for _ in range(rng.randint(0, 3)):
                v = la.mat_vec(rng.choice(deep), v)
            x = v if rng.random() < 0.5 else tuple(Fraction(a, rng.randint(1, 5)) for a in v)
            try:
                point, w, steps = reduce_into_domain(cert, x)
            except ReductionFailure as err:
                refused += 1
                digest.update(str(err).encode())
                continue
            # <c, .> lies in (1/D)Z and falls at each move while positive
            den = lcm(*(Fraction(a).denominator for a in x))
            assert steps <= den * la.dot(c, x)
            taken.append(steps)
            rows = [[str(Fraction(a)) for a in row] for row in (point, *w)]
            digest.update(repr((rows, steps)).encode())
    assert refused > 20 and len(taken) > 100 and max(taken) >= 3
    assert digest.hexdigest() == (
        "cd9128b437a84005d4eeaf2c3c32522beeef316f9e9e01e05d41a8d0c526cd8f"
    )


def test_membership_tester(pell_cert):
    tester = make_membership_tester(pell_cert)
    assert tester(la.mat_mul(PELL, PELL)) == "in"
    assert tester(((1, 0), (0, -1))) == "out"
    assert tester(la.unimodular_inverse(PELL)) == "in"


def test_membership_tester_of_the_index_two_subgroup(pell_lattice, pell_cone):
    # Gamma = <P^2>: its domain from (1, 0) is twice the Pell domain, so
    # P.xi = (3, 2) already lies in it and P is certified outside
    p2 = la.mat_mul(PELL, PELL)
    gamma = GeneratedGroup(pell_lattice, (Isometry(pell_lattice, p2),), component_base=(1, 0))
    cert = dirichlet_domain(gamma, pell_cone, (1, 0))
    assert sorted(cert.domain.halfspaces) == [(2, -3), (2, 3)]
    tester = make_membership_tester(cert)
    assert la.mat_vec(PELL, (1, 0)) == (3, 2) and cert.domain_contains((3, 2))
    assert tester(PELL) == "out"
    assert tester(p2) == "in"
    assert tester(la.mat_mul(p2, PELL)) == "out"
    # -xi leaves the positive cone, which every member preserves
    assert tester(((-1, 0), (0, -1))) == "out"
    # the stabilizer of xi hands its one nonidentity candidate to the tester
    asked = []
    st_ = stabilizer(gamma, (1, 0), tester=lambda m: asked.append(m) or tester(m))
    assert asked == [((1, 0), (0, -1))]
    assert st_.is_certified()
    assert [m.matrix for m in st_.members] == [((1, 0), (0, 1))]


def first_trivial_stabilizer_point(gamma, pos, height_bound=12):
    """Reference search: the stabilizer of every cone point, in order."""
    for height in range(1, height_bound + 1):
        for v in cones._integer_vectors_of_height(pos.dim, height):
            if pos.contains_open(v):
                st_ = stabilizer(gamma, v)
                if st_.is_certified() and len(st_.members) == 1:
                    return v
    return None


def test_find_trivial_stabilizer_point_examples(
    pell_lattice, pell_cone, pell_group, dihedral_group
):
    # trivial group: first point found is the first cone point enumerated
    gamma0 = GeneratedGroup(pell_lattice, (), word_bound=4, component_base=(1, 0))
    assert find_trivial_stabilizer_point(gamma0, pell_cone) == (1, 0)
    # Pell group is torsion-free on C: (1,0) already works
    assert find_trivial_stabilizer_point(pell_group, pell_cone) == (1, 0)
    # O+(U): any point off the diagonal works, and the diagonal is excluded
    u = U()
    pos_u = PositiveCone(u, (1, 1))
    gamma_u = GeneratedGroup(
        u, (Isometry(u, ((0, 1), (1, 0))),), word_bound=4,
        full_orthogonal_plus=True, component_base=(1, 1),
    )
    pt = find_trivial_stabilizer_point(gamma_u, pos_u)
    assert pt[0] != pt[1] and pos_u.contains_open(pt)
    # dihedral: the found point has certified trivial stabilizer
    pt_d = find_trivial_stabilizer_point(dihedral_group, pell_cone)
    from klein_lattice.isometry import stabilizer

    st_ = stabilizer(dihedral_group, pt_d)
    assert st_.is_certified() and len(st_.members) == 1
    # skipping points that a group element fixes picks the same points
    assert pt == first_trivial_stabilizer_point(gamma_u, pos_u)
    assert pt_d == first_trivial_stabilizer_point(dihedral_group, pell_cone)


def test_siegel_pell(pell_cert, pell_group, pell_cone):
    cones, report = siegel_intersections(
        pell_cone, pell_cert.domain, pell_cert.domain, pell_group, word_bound=20
    )
    assert report["count"] == 3
    assert not any(c.lines for c in cones)
    ray_sets = sorted(c.rays for c in cones)
    assert ray_sets == [((2, -1),), ((2, -1), (2, 1)), ((2, 1),)]
    cones10, _ = siegel_intersections(
        pell_cone, pell_cert.domain, pell_cert.domain, pell_group, word_bound=10
    )
    assert not any(c.lines for c in cones10)
    assert {c.rays for c in cones10} == set(ray_sets)


def test_siegel_trivial_group(pell_lattice, pell_cone, pell_cert):
    gamma0 = GeneratedGroup(pell_lattice, (), word_bound=4, component_base=(1, 0))
    cones, report = siegel_intersections(
        pell_cone, pell_cert.domain, pell_cert.domain, gamma0, word_bound=4
    )
    assert len(cones) == 1 and cones[0].same_cone(pell_cert.domain)


def test_siegel_disjoint_translates(pell_cone, pell_group, pell_cert):
    m4 = la.mat_mul(la.mat_mul(PELL, PELL), la.mat_mul(PELL, PELL))
    far = transform_cone(pell_cert.domain, m4)
    inter = intersect(pell_cert.domain, far)
    assert inter.is_zero()
    small = cone_from_rays(2, ((5, 2), (5, 1)))
    gamma0 = GeneratedGroup(
        pell_cone.lattice, (), word_bound=2, component_base=(1, 0)
    )
    cones, _ = siegel_intersections(pell_cone, far, small, gamma0, word_bound=2)
    assert cones == []


def test_siegel_rejects_rays_outside_closure(pell_cone, pell_group):
    bad = cone_from_rays(2, ((0, 1), (1, 0)))
    with pytest.raises(InvalidInput):
        siegel_intersections(pell_cone, bad, bad, pell_group, word_bound=3)


def test_cone_meets_component(pell_cone):
    inside = cone_from_rays(2, ((2, 1), (2, -1)))
    assert cone_meets_component(inside, pell_cone)
    outside = cone_from_rays(2, ((1, 1), (1, 2)))  # q < 0 sector
    assert not cone_meets_component(outside, pell_cone)
    negative = cone_from_rays(2, ((-2, 1), (-2, -1)))  # other component
    assert not cone_meets_component(negative, pell_cone)
    # a wide cone crossing the light cone does meet C
    wide = cone_from_rays(2, ((1, 1), (1, -1)))
    assert cone_meets_component(wide, pell_cone)


def test_interiors_meet_component(pell_cert, pell_cone):
    # D cap D meets C; D cap PELL D = {x in D : PELL^-1 x in D} does not
    d = pell_cert.domain
    assert interiors_meet_component(meet_preimage(d, la.identity_matrix(2), d), pell_cone)
    pell_inv = la.unimodular_inverse(PELL)
    assert not interiors_meet_component(meet_preimage(d, pell_inv, d), pell_cone)

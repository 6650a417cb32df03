import hashlib
import json
import time
from fractions import Fraction

import pytest

from klein_lattice import intlinalg as la
from klein_lattice import serialize as ser
from klein_lattice.cohomology import finite_subgroup_classes_matrix
from klein_lattice.cones import (
    PositiveCone,
    cone_from_rays,
    cone_meets_component,
    dirichlet_domain,
    intersect,
    meet_preimage,
    transform_cone,
)
from klein_lattice.errors import InvalidInput, Undecidable
from klein_lattice.hodge import (
    HodgeKind,
    HodgeLattice,
    KahlerModel,
    MonodromySpec,
    anti_invariant_class,
    classify_finite_subgroups_on_cone,
    hilbert_square_extension,
    is_projective_type,
    kaut_star_criterion,
    mon2_khdg_member,
    mon_contains,
    neron_severi,
    ns_plus_t_index,
    period_action,
    prop_key_reduction,
    torelli_anti_check,
    transcendental,
)
from klein_lattice.hodge import _meets_domain
from klein_lattice.isometry import GeneratedGroup, Isometry, KleinIsometry
from klein_lattice.lattice import (
    IntegerLattice,
    LatticeType,
    U,
    classify_type,
    direct_sum,
)

from cases import (
    DIHEDRAL_UNITS,
    EICHLER,
    REFLECTION_GROUPS,
    SHIPPED,
    SWAP,
    config_diag4,
    config_u3,
    dihedral_fixture,
    hilbert_kahler_model,
    padded,
    reflection_group,
    undecided_on_hilbert_square,
)

PELL = ((3, 4), (2, 3))
REFLECTION = ((1, 0), (0, -1))
EICHLER6 = padded(EICHLER, 6)


# --- period and NS machinery -----------------------------------------------------


def test_period_validity_checked():
    lat = direct_sum(direct_sum(U(), U()), U())
    with pytest.raises(InvalidInput):
        HodgeLattice(lat, (1, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0))  # <x,y> != 0
    with pytest.raises(InvalidInput):
        HodgeLattice(lat, (1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0))  # q(x) = 0
    with pytest.raises(InvalidInput):
        HodgeLattice(U(), (1, 1), (1, -1))  # wrong signature


def test_neron_severi_orthogonal_blocks():
    h, _ = config_diag4()
    ns = neron_severi(h)
    assert sorted(ns.basis) == [(0, 0, 0, 1), (0, 0, 1, 0)]
    t = transcendental(h)
    assert sorted(t.basis) == [(0, 1, 0, 0), (1, 0, 0, 0)]
    assert ns_plus_t_index(h) == 1
    assert classify_type(ns.as_lattice()) == LatticeType.HYPERBOLIC
    assert is_projective_type(h)


def test_neron_severi_u3():
    h, _ = config_u3()
    ns = neron_severi(h)
    assert ns.rank == 4
    assert is_projective_type(h)
    assert ns_plus_t_index(h) == 4  # NS + T has index 4 here


def test_rational_period_ns_has_corank_two_and_finite_index():
    # a rational period spans a positive definite plane, so NS is its
    # nondegenerate complement of rank n - 2 and NS + T has finite index
    from itertools import product

    lat = IntegerLattice(((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 2, 1), (0, 0, 1, -2)))
    periods = 0
    for x in product(range(-1, 2), repeat=4):
        for y in product(range(-1, 2), repeat=4):
            qx, qy = lat.q(x), lat.q(y)
            if lat.pairing(x, y) != 0 or qx != qy or qx <= 0:
                continue
            h = HodgeLattice(lat, x, y)
            assert neron_severi(h).rank == 2
            assert transcendental(h).rank == 2
            index = ns_plus_t_index(h)
            assert index is not None and index > 0
            periods += 1
    assert periods > 0


def test_k3_lattice_period_gives_hyperbolic_ns():
    from klein_lattice.lattice import K3

    lat = K3()
    h = HodgeLattice(
        lat,
        tuple(1 if i in (0, 1) else 0 for i in range(22)),
        tuple(1 if i in (2, 3) else 0 for i in range(22)),
    )
    ns = neron_severi(h)
    assert ns.rank == 20
    assert classify_type(ns.as_lattice()) == LatticeType.HYPERBOLIC
    assert is_projective_type(h)


def signed_permutations_diag4():
    """The 96 signed permutations that fix the last basis vector up to sign."""
    from itertools import permutations, product

    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=4):
            m = [[0] * 4 for _ in range(4)]
            for i in range(3):
                m[perm[i]][i] = signs[i]
            m[3][3] = signs[3]
            yield tuple(map(tuple, m))


def test_period_action_distribution_neither_dominates():
    # over the full signed-permutation isometry group of diag(2,2,2,-2),
    # isometries moving the period plane (kind NEITHER) dominate
    h, _ = config_diag4()
    counts = {HodgeKind.HODGE: 0, HodgeKind.ANTI: 0, HodgeKind.NEITHER: 0}
    for m in signed_permutations_diag4():
        counts[period_action(m, h)[0]] += 1
    assert counts[HodgeKind.NEITHER] > counts[HodgeKind.HODGE] + counts[HodgeKind.ANTI]
    assert counts[HodgeKind.HODGE] == counts[HodgeKind.ANTI] > 0


def test_projectivity_examples():
    # NS = <2>: projective; NS = <-2>: not; NS parabolic: not
    lat = IntegerLattice(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, -2)))
    h_pos = HodgeLattice(lat, (1, 0, 0, 0), (0, 1, 0, 0))
    ns = neron_severi(h_pos).as_lattice()
    assert classify_type(ns) == LatticeType.HYPERBOLIC


# --- hodge type solves --------------------------------------------------------------


def test_period_action_examples():
    h, sigma = config_diag4()
    ident = la.identity_matrix(4)
    assert period_action(ident, h) == (HodgeKind.HODGE, (1, 0))
    assert period_action(sigma, h) == (HodgeKind.ANTI, (1, 0))
    mv = ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1))
    assert period_action(mv, h) == (HodgeKind.NEITHER, None)
    # rotation x -> y, y -> -x sends sigma to -i*sigma: Hodge with (0, -1)
    rot = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert period_action(rot, h) == (HodgeKind.HODGE, (0, -1))


def reference_period_solve(matrix, h_source, h_target, anti):
    """The elimination that the closed form in hodge replaced: solve for
    (a, b) with phi(x) = a x' -+ b y', phi(y) = +-b x' + a y' (upper signs
    Hodge, lower anti-Hodge) as a 2n x 2 Fraction system."""
    x_tgt, y_tgt = h_target.period_re, h_target.period_im
    px = la.mat_vec(matrix, h_source.period_re)
    py = la.mat_vec(matrix, h_source.period_im)
    ysign = 1 if anti else -1
    rows = [(x, ysign * y) for x, y in zip(x_tgt, y_tgt)]
    rows += [(-ysign * y, x) for x, y in zip(x_tgt, y_tgt)]
    sol = la.solve_frac(tuple(rows), tuple(px) + tuple(py))
    return None if sol is None or sol == (0, 0) else sol


def as_kind(hodge, anti):
    """(kind, (a, b)) from the Hodge and anti-Hodge solutions."""
    assert hodge is None or anti is None
    if hodge is not None:
        return HodgeKind.HODGE, hodge
    if anti is not None:
        return HodgeKind.ANTI, anti
    return HodgeKind.NEITHER, None


def test_closed_form_period_action_matches_the_elimination():
    h, _ = config_diag4()
    x, y = h.period_re, h.period_im
    # x' = y, y' = -x is again a valid period of the same lattice
    turned = HodgeLattice(h.lattice, y, tuple(-c for c in x))
    cases = [(m, h) for m in signed_permutations_diag4()]
    for _, maker in SHIPPED:
        src, sigma = maker()
        n = src.lattice.rank
        neg = tuple(tuple(-c for c in row) for row in sigma)
        zero = tuple((0,) * n for _ in range(n))
        cases += [(m, src) for m in (la.identity_matrix(n), sigma, neg, zero)]
    seen = set()
    for m, src in cases:
        for tgt in (src, turned) if src is h else (src,):
            got = period_action(m, src, tgt)
            assert got == as_kind(
                reference_period_solve(m, src, tgt, anti=False),
                reference_period_solve(m, src, tgt, anti=True),
            )
            if tgt is src:
                assert period_action(m, src) == got
            seen.add((tgt is turned, got[0]))
    # every kind occurs for both targets
    assert seen == {(t, k) for t in (False, True) for k in HodgeKind}


def test_hodge_and_anti_exclusive_on_shipped():
    for _, maker in SHIPPED:
        h, sigma = maker()
        n = h.lattice.rank
        neg = tuple(tuple(-x for x in row) for row in sigma)
        kinds = [period_action(m, h)[0] for m in (la.identity_matrix(n), sigma, neg)]
        assert kinds == [HodgeKind.HODGE, HodgeKind.ANTI, HodgeKind.ANTI]


# --- monodromy and the Klein-Hodge group ------------------------------------------------


def test_mon_contains_variants():
    h, sigma = config_u3()
    lat = h.lattice
    full = MonodromySpec("full_orthogonal_plus")
    assert mon_contains(full, lat, la.identity_matrix(6)) == "in"
    assert mon_contains(full, lat, sigma) == "in"  # orientation +1
    neg = tuple(tuple(-x for x in row) for row in la.identity_matrix(6))
    assert mon_contains(full, lat, neg) == "out"  # orientation (-1)^3
    gens = MonodromySpec("generators", generators=(sigma,), word_bound=4)
    assert mon_contains(gens, lat, sigma) == "in"
    assert mon_contains(gens, lat, la.identity_matrix(6)) == "in"
    other6 = padded(SWAP, 6)
    # {id, sigma} is closed, so the walk certifies everything else outside
    assert mon_contains(gens, lat, other6) == "out"
    # no word of the transvection has determinant -1
    eichler = MonodromySpec("generators", generators=(EICHLER6,), word_bound=4)
    assert mon_contains(eichler, lat, other6) == "out"
    assert mon_contains(eichler, lat, la.mat_mul(EICHLER6, EICHLER6)) == "in"
    assert mon_contains(eichler, lat, padded(((1, 1), (0, 1)), 6)) == "out"  # not an isometry
    # the transvection preserves the orientation of the positive part, which
    # -id (det +1) reverses
    assert mon_contains(eichler, lat, neg) == "out"
    # an infinite group with a determinant -1 generator leaves it open
    open_spec = MonodromySpec(
        "generators", generators=(EICHLER6, padded(SWAP, 6, 4)), word_bound=4
    )
    assert mon_contains(open_spec, lat, other6) == "unknown"
    with pytest.raises(InvalidInput):
        MonodromySpec("discriminant", signs=(3,))


def test_mon_contains_builds_the_discriminant_group_once(monkeypatch):
    from klein_lattice import lattice

    built = []
    real = lattice.discriminant_group
    monkeypatch.setattr(
        lattice, "discriminant_group", lambda lat: built.append(lat) or real(lat)
    )
    lat = IntegerLattice(((-6,),))  # L*/L = Z/6, where -1 is not +1
    both = MonodromySpec("discriminant", signs=(1, -1), require_orientation=False)
    plus = MonodromySpec("discriminant", signs=(1,), require_orientation=False)
    assert mon_contains(both, lat, ((-1,),)) == "in"
    assert len(built) == 1
    assert mon_contains(plus, lat, ((-1,),)) == "out"
    assert mon_contains(both, lat, ((1,),)) == "in"


def test_mon2_khdg_examples():
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    spec = MonodromySpec("discriminant", signs=(-1,))
    assert mon2_khdg_member(klein.matrix, h_ext, spec) is True
    assert mon2_khdg_member(klein.dagger_matrix(), h_ext, spec) is True
    assert mon2_khdg_member(la.identity_matrix(7), h_ext, MonodromySpec("full_orthogonal_plus")) is True
    # Hodge isometry violating the sign-set: identity against {-1} on Z/4
    h_ext3, _, _ = hilbert_square_extension(h, 3, Isometry(h.lattice, sigma))
    assert mon2_khdg_member(la.identity_matrix(7), h_ext3, spec) is False
    # the trivial group certifies that phi is not a member
    trivial = MonodromySpec("generators", generators=(), word_bound=2)
    assert mon2_khdg_member(klein.matrix, h_ext, trivial) is False
    own = MonodromySpec("generators", generators=(klein.matrix,), word_bound=2)
    assert mon2_khdg_member(klein.matrix, h_ext, own) is True
    # an infinite group that the words cannot settle raises
    with pytest.raises(Undecidable, match="word bound 3"):
        mon2_khdg_member(klein.matrix, h_ext, undecided_on_hilbert_square())


# --- the Hilbert operator -----------------------------------------------------------------


@pytest.mark.parametrize("name,maker", SHIPPED)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hilbert_extension_full_report(name, maker, n):
    h, sigma = maker()
    h_ext, klein, report = hilbert_square_extension(h, n, Isometry(h.lattice, sigma))
    assert klein.sign == -1
    assert report["involution"]
    assert report["isometry"]
    assert report["anti_hodge"]
    assert report["discriminant_minus_id_on_delta"]
    assert report["anti_invariant_pullback_negates"]
    assert report["anti_invariant_positive"]
    assert report["all_pass"]
    if abs(h.lattice.det()) == 1:
        assert report["discriminant_factors"] == (2 * (n - 1),)
        assert report["discriminant_minus_id"]
    # the extended period satisfies the same equations
    assert h_ext.lattice.rank == h.lattice.rank + 1


def test_hilbert_extension_takes_the_least_k_in_closed_form():
    # the anti-invariant class is w - delta/k with k the least integer with
    # k^2 * q(w) > 2(n - 1), as the step-by-one search finds it
    h, sigma = config_u3()
    for n in range(2, 61):
        _, _, report = hilbert_square_extension(h, n, Isometry(h.lattice, sigma))
        cls = report["anti_invariant_class"]
        qw = h.lattice.q(cls[:-1])
        k = 1
        while k * k * qw <= 2 * (n - 1):
            k += 1
        assert cls[-1] == Fraction(-1, k)
    start = time.perf_counter()
    _, _, report = hilbert_square_extension(h, 10**30, Isometry(h.lattice, sigma))
    assert time.perf_counter() - start < 1
    assert report["all_pass"]


def test_hilbert_extension_rejects_bad_sigma():
    h, sigma = config_u3()
    with pytest.raises(InvalidInput):
        hilbert_square_extension(h, 2, Isometry(h.lattice, la.identity_matrix(6)))
    rot = [[0] * 6 for _ in range(6)]
    rot[0][1], rot[1][0] = 1, 1
    rot[2][2] = rot[3][3] = rot[4][5] = rot[5][4] = 1
    with pytest.raises(InvalidInput):
        # anti-Hodge but not an involution is impossible here; use non-anti
        hilbert_square_extension(h, 2, Isometry(h.lattice, tuple(map(tuple, rot))))


# --- anti-invariant classes ------------------------------------------------------------------


@pytest.mark.parametrize("name,maker", SHIPPED)
def test_anti_invariant_class_on_models(name, maker):
    h, sigma = maker()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    km = hilbert_kahler_model(h_ext)
    c = anti_invariant_class(km, klein)
    assert km.cone.contains_strictly(c)
    r = km.restrict_matrix(klein.dagger_matrix())
    assert la.mat_vec(r, c) == tuple(c)
    c_lat = km.to_lattice(c)
    assert la.mat_vec(klein.matrix, c_lat) == tuple(-x for x in c_lat)


def test_anti_invariant_class_quadrant_swap():
    # cone = quadrant, dagger = coordinate swap: the class lies on the diagonal
    lat = IntegerLattice(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    h = HodgeLattice(lat, (1, 0, 0, 0), (0, 1, 0, 0))
    ns = neron_severi(h)
    assert sorted(ns.basis) == [(0, 0, 0, 1), (0, 0, 1, 0)]
    km = KahlerModel(cone_from_rays(2, ((1, 0), (0, 1))), ns.basis, lat)
    swap4 = (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
    )
    k = KleinIsometry(Isometry(lat, swap4), 1)
    c = anti_invariant_class(km, k)
    assert c[0] == c[1]
    # twice the swap maps the cone onto itself only up to scale
    twice = tuple(tuple(2 * x for x in row) for row in swap4)
    assert km.restrict_matrix(twice) == ((0, 2), (2, 0))
    with pytest.raises(InvalidInput, match="no order up to 64"):
        anti_invariant_class(km, twice)
    # a singular dagger sends both rays onto (1, 0)
    singular = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0))
    assert km.restrict_matrix(singular) == ((1, 1), (0, 0))
    with pytest.raises(InvalidInput, match="does not preserve the cone"):
        anti_invariant_class(km, singular)


def test_anti_invariant_identity_dagger():
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    km = hilbert_kahler_model(h_ext)
    ident = KleinIsometry(Isometry(h_ext.lattice, la.identity_matrix(7)), 1)
    c = anti_invariant_class(km, ident)
    assert km.cone.contains_strictly(c)


def test_restrict_matrix_needs_the_ns_span_kept_integrally():
    lat = IntegerLattice(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    quadrant = cone_from_rays(2, ((1, 0), (0, 1)))
    km = KahlerModel(quadrant, ((0, 0, 1, 0), (0, 0, 0, 1)), lat)
    swap = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    assert km.restrict_matrix(swap) == ((0, 1), (1, 0))
    # e3 -> e1 + e3 leaves the span of e3 and e4
    shear = ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert km.restrict_matrix(shear) is None
    with pytest.raises(InvalidInput, match="dagger action does not preserve the NS span"):
        anti_invariant_class(km, shear)
    # in the basis 2 e3, e4 the swap sends e4 to e3, of coordinates (1/2, 0)
    coarse = KahlerModel(quadrant, ((0, 0, 2, 0), (0, 0, 0, 1)), lat)
    assert coarse.restrict_matrix(swap) is None
    with pytest.raises(InvalidInput, match="dagger action does not preserve the NS span"):
        anti_invariant_class(coarse, KleinIsometry(Isometry(lat, swap), 1))


def test_a_restriction_without_a_small_order_names_the_bound():
    # diag(2, 1) fixes both rays of the quadrant up to scale, so it passes the
    # cone check; its order is searched up to 64 only, and the error says so
    km = KahlerModel(cone_from_rays(2, ((1, 0), (0, 1))), ((1, 0), (0, 1)), U())
    with pytest.raises(InvalidInput, match="^dagger restriction has no order up to 64$"):
        anti_invariant_class(km, ((2, 0), (0, 1)))


def test_kahler_embedding_rows_must_be_independent():
    # 2 e3 repeats e3: the identity would restrict to ((1, 2), (0, 0))
    lat = IntegerLattice(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, -2)))
    quadrant = cone_from_rays(2, ((1, 0), (0, 1)))
    with pytest.raises(InvalidInput, match="linearly independent"):
        KahlerModel(quadrant, ((0, 0, 1, 0), (0, 0, 2, 0)), lat)
    with pytest.raises(InvalidInput, match="linearly independent"):
        KahlerModel(quadrant, ((0, 0, 1, 0), (0, 0, 0, 0)), lat)
    km = KahlerModel(quadrant, ((0, 0, 1, 0), (0, 1, 0, 0)), lat)
    assert km.restrict_matrix(la.identity_matrix(4)) == la.identity_matrix(2)


def test_kahler_embedding_entries_must_be_integers():
    # truncated, this would be the identity embedding
    square = cone_from_rays(2, ((1, 0), (0, 1)))
    with pytest.raises(InvalidInput):
        KahlerModel(square, ((Fraction(3, 2), 0), (0, 1)), U())
    assert KahlerModel(square, ((Fraction(2, 2), 0), (0, 1)), U()).embedding == ((1, 0), (0, 1))


# --- torelli and the kaut criterion ------------------------------------------------------------


def test_torelli_on_hilbert_operator():
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    km = hilbert_kahler_model(h_ext)
    spec = MonodromySpec("discriminant", signs=(-1,))
    out = torelli_anti_check(klein.matrix, h_ext, h_ext, km, km, spec)
    assert out["verdict"] is True
    assert all(
        out[k] for k in ("parallel_transport", "isometry", "anti_hodge", "kahler_condition")
    )


def test_torelli_identity_fails_condition_3():
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    km = hilbert_kahler_model(h_ext)
    out = torelli_anti_check(
        la.identity_matrix(7), h_ext, h_ext, km, km, MonodromySpec("full_orthogonal_plus")
    )
    assert out["anti_hodge"] is False and out["verdict"] is False


def test_kaut_criterion_branches():
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    km = hilbert_kahler_model(h_ext)
    spec = MonodromySpec("discriminant", signs=(-1,))
    v = kaut_star_criterion(klein.matrix, h_ext, km, spec)
    assert v.kind == "KleinRealizable" and v.sign == -1
    v_dag = kaut_star_criterion(klein.dagger_matrix(), h_ext, km, spec)
    assert v_dag.kind == "KleinRealizable" and v_dag.sign == -1
    v_id = kaut_star_criterion(
        la.identity_matrix(7), h_ext, km, MonodromySpec("full_orthogonal_plus")
    )
    assert v_id.kind == "KleinRealizable" and v_id.sign == 1


def test_kaut_criterion_hodge_k_to_minus_k():
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    km = hilbert_kahler_model(h_ext)
    swap = ((0, 1), (1, 0))
    mh = tuple(
        tuple(
            swap[i][j]
            if i < 2 and j < 2
            else (
                swap[i - 2][j - 2]
                if 2 <= i < 4 and 2 <= j < 4
                else ((-1 if i == j else 0) if i >= 4 and j >= 4 else 0)
            )
            for j in range(7)
        )
        for i in range(7)
    )
    assert period_action(mh, h_ext)[0] == HodgeKind.HODGE
    spec = MonodromySpec("discriminant", signs=(1, -1), require_orientation=False)
    v = kaut_star_criterion(mh, h_ext, km, spec)
    assert v.kind == "NotRealizable" and "cone" in v.reason


def test_kaut_criterion_undecided_on_bounded_mon():
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    km = hilbert_kahler_model(h_ext)
    trivial = MonodromySpec("generators", generators=(), word_bound=1)
    v = kaut_star_criterion(klein.matrix, h_ext, km, trivial)
    assert v.kind == "NotRealizable"
    v = kaut_star_criterion(klein.matrix, h_ext, km, undecided_on_hilbert_square())
    assert v.kind == "Undecided"


# --- the cone classification pipeline -----------------------------------------------------------


def test_prop_key_reduction_reflection_classes(dihedral_cert):
    ident = la.identity_matrix(2)
    w1, conj1, rep1 = prop_key_reduction([ident, REFLECTION], dihedral_cert, (5, 2))
    assert rep1["all_in_S"]
    ms = la.mat_mul(PELL, REFLECTION)
    w2, conj2, rep2 = prop_key_reduction([ident, ms], dihedral_cert, (5, 2))
    assert rep2["all_in_S"]
    # the conjugated copies fix the reduced point
    for mats, rep in ((conj1, rep1), (conj2, rep2)):
        for m in mats:
            assert la.mat_vec(m, rep["reduced_point"]) == tuple(rep["reduced_point"])


def test_prop_key_reduction_trivial_group(pell_cert):
    ident = la.identity_matrix(2)
    w, conj, rep = prop_key_reduction([ident], pell_cert, (3, 1))
    assert rep["all_in_S"] and conj == [ident]


def test_prop_key_rejects_non_closed(pell_cert):
    with pytest.raises(InvalidInput):
        prop_key_reduction([PELL], pell_cert, (3, 1))


def test_classify_subgroups_dihedral(dihedral_group, dihedral_cert):
    classes, report = classify_finite_subgroups_on_cone(dihedral_group, dihedral_cert)
    assert report["completeness"] == "BoundedSearch"
    assert len(classes) == 3
    assert sorted(len(c) for c in classes) == [1, 2, 2]


def test_classify_subgroups_pell_trivial(pell_group, pell_cert):
    classes, _ = classify_finite_subgroups_on_cone(pell_group, pell_cert)
    assert len(classes) == 1


def test_classify_subgroups_refuses_a_certificate_of_another_group(
    pell_group, pell_cert, dihedral_group, dihedral_cert
):
    # the domain of one group is no fundamental domain of the other, and
    # the answer would still be a class list
    for gamma, cert in ((dihedral_group, pell_cert), (pell_group, dihedral_cert)):
        with pytest.raises(InvalidInput):
            classify_finite_subgroups_on_cone(gamma, cert)
    # the word bound may differ: the same generators give the same group
    fewer_words = GeneratedGroup(
        dihedral_group.lattice, dihedral_group.generators, word_bound=3,
        component_base=(1, 0),
    )
    classes, _ = classify_finite_subgroups_on_cone(fewer_words, dihedral_cert)
    assert len(classes) == 3


def test_classify_subgroups_cross_module_agreement(dihedral_group, dihedral_cert):
    cone_classes, _ = classify_finite_subgroups_on_cone(dihedral_group, dihedral_cert)
    mat_classes, _ = finite_subgroup_classes_matrix(dihedral_group)
    assert len(cone_classes) == len(mat_classes) == 3
    conjugators = [el.matrix for el in dihedral_group.elements_up_to()]

    def same_class(h1, h2):
        s1 = frozenset(h1)
        for c in conjugators:
            cinv = la.unimodular_inverse(c)
            if frozenset(la.mat_mul(la.mat_mul(c, m), cinv) for m in h2) == s1:
                return True
        return False

    for cl in cone_classes:
        assert any(same_class(cl, m) for m in mat_classes)


def test_classify_subgroups_matches_closed_subset_scan(dihedral_group, dihedral_cert):
    # reference: every subset of S containing the identity and closed under
    # composition, deduplicated by conjugation with the enumerated words
    from itertools import combinations

    from klein_lattice.cohomology import extension_subgroups

    domain = dihedral_cert.domain
    words = [el.matrix for el in dihedral_group.elements_up_to()]
    s_set = sorted(
        {m for m in words if not intersect(transform_cone(domain, m), domain).is_zero()}
    )
    ident = la.identity_matrix(2)
    nonidentity = [m for m in s_set if m != ident]
    closed = set()
    for r in range(len(nonidentity) + 1):
        for combo in combinations(nonidentity, r):
            cand = frozenset(combo) | {ident}
            if all(la.mat_mul(a, b) in cand for a in cand for b in cand):
                closed.add(cand)
    expected = []
    seen = set()
    for h in sorted(closed, key=lambda s: (len(s), sorted(s))):
        if h in seen:
            continue
        for c in words:
            cinv = la.unimodular_inverse(c)
            seen.add(frozenset(la.mat_mul(la.mat_mul(c, m), cinv) for m in h))
        expected.append(tuple(sorted(h)))
    found = extension_subgroups(s_set, la.mat_mul, ident, allowed=frozenset(s_set))
    assert found == closed
    classes, report = classify_finite_subgroups_on_cone(dihedral_group, dihedral_cert)
    assert report["s_size"] == len(s_set)
    assert classes == expected


def test_classify_subgroups_order4_matches_abstract_lattice():
    # the sign-flip V4 on diag(2,-2,-2): the cone pipeline recovers all five
    # subgroup classes of the abstract Klein four-group
    from klein_lattice.cohomology import klein_four
    from klein_lattice.isometry import GeneratedGroup
    from klein_lattice.cones import PositiveCone, dirichlet_domain, find_trivial_stabilizer_point

    lat = IntegerLattice(((2, 0, 0), (0, -2, 0), (0, 0, -2)))
    pos = PositiveCone(lat, (1, 0, 0))
    g1 = Isometry(lat, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))
    g2 = Isometry(lat, ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    gamma = GeneratedGroup(lat, (g1, g2), word_bound=6, component_base=(1, 0, 0))
    xi = find_trivial_stabilizer_point(gamma, pos)
    cert = dirichlet_domain(gamma, pos, xi)
    classes, _ = classify_finite_subgroups_on_cone(gamma, cert)
    abstract = klein_four().subgroups_up_to_conjugacy()
    assert len(classes) == len(abstract) == 5


def test_classify_subgroups_finite_group_case():
    # a finite gamma: all subgroups up to conjugacy are recovered
    u = U()
    swap = Isometry(u, ((0, 1), (1, 0)))
    from klein_lattice.isometry import GeneratedGroup
    from klein_lattice.cones import PositiveCone, dirichlet_domain

    gamma = GeneratedGroup(u, (swap,), word_bound=6, full_orthogonal_plus=True,
                           component_base=(1, 1))
    pos = PositiveCone(u, (1, 1))
    cert = dirichlet_domain(gamma, pos, (2, 1))
    classes, _ = classify_finite_subgroups_on_cone(gamma, cert)
    assert len(classes) == 2  # trivial and the full order-2 group


@pytest.fixture(scope="module")
def dihedral_fixtures():
    return {k: dihedral_fixture(k) for k in DIHEDRAL_UNITS}


def test_s_test_matches_the_two_build_oracle(dihedral_fixtures):
    # the reference builds m(D) from its rays and then intersects it with D;
    # the pull-back of D by m^-1 is the same cone, and m is in S iff that
    # meet is nonzero and meets the open cone C
    certs = [cert for _, _, cert in dihedral_fixtures.values()]
    for diag, roots, xi, bound in REFLECTION_GROUPS.values():
        gamma = reflection_group(diag, roots, xi, bound)
        certs.append(dirichlet_domain(gamma, PositiveCone(gamma.lattice, xi), xi))
    for cert in certs:
        gamma, domain = cert.group, cert.domain
        answers = set()
        for el in gamma.elements_up_to():
            m = el.matrix
            meet = intersect(transform_cone(domain, m), domain)
            assert meet_preimage(domain, gamma.inverse(m), domain).same_cone(meet)
            want = not meet.is_zero() and cone_meets_component(meet, cert.positive_cone)
            assert _meets_domain(cert, m) == want
            answers.add(want)
        assert answers == {True, False}


def test_every_matrix_meets_the_full_cone_domain(pell_cone):
    # the trivial group's domain is C+ itself: the pull-back meet of the
    # full cone is the whole space, which meets C whatever m is
    trivial = GeneratedGroup(pell_cone.lattice, (), component_base=(1, 0))
    cert = dirichlet_domain(trivial, pell_cone, (1, 0))
    assert cert.full_cone
    for m in (((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((1, 0), (0, -1)), ((3, 4), (2, 3)),
              ((3, -4), (-2, 3)), ((0, 1), (1, 0)), ((0, 0), (0, 0))):
        assert _meets_domain(cert, m)


def test_s_of_the_triangle_group_holds_only_finite_order_words():
    # the (2,4,inf) domain has the cusp ray (1, 1, 0), where parabolic words
    # meet it; they meet it nowhere in C, so S leaves them out and does not
    # grow with the word bound
    diag, roots, xi, bound = REFLECTION_GROUPS["triangle-2-4-inf"]
    gamma = reflection_group(diag, roots, xi, bound)
    cert = dirichlet_domain(gamma, PositiveCone(gamma.lattice, xi), xi)
    ident = la.identity_matrix(3)
    sets = []
    for word_bound in (4, 8):
        g = reflection_group(diag, roots, xi, word_bound)
        s = {el.matrix for el in g.elements_up_to() if _meets_domain(cert, el.matrix)}
        _, report = classify_finite_subgroups_on_cone(g, cert)
        assert report["s_size"] == len(s) == 10
        assert report["class_count"] == 11
        sets.append(s)
    assert sets[0] == sets[1]
    for m in sets[0]:
        # an element of finite order in GL_3(Z) has order 1, 2, 3, 4 or 6
        powers = [m]
        while len(powers) < 6:
            powers.append(la.mat_mul(m, powers[-1]))
        assert ident in powers


# sha256 of the JSON of [bound, matrix classes, cone classes] for bounds 3
# and 4, each class a sorted matrix list, per dihedral fixture
PINNED_CLASSES = {
    2: "49ea7e87b5707851d507177f5a66e599386b240902ae53f8c6a766991a951def",
    3: "f2bb1c77edfd3ce9c26a6c23e7de6679e7b98c565a75e11795efc96f81946812",
    5: "88797929e3fd10d8f9e0d72b4f3af6b65f70fb42f76266030af300ccb71203e7",
    6: "c0614bd1fcbcef86d91f34490af5cd958086cd6e7e96f98eae6e598f461ce3a1",
    7: "cd658595f441e8346f746baf408dab395e5c3174d589d129697cf765f3b80c3e",
    10: "9f436d96638bc087163c5525f0f1b155f65c69d342fc284ab1642cdf2b58d77d",
}


def test_finite_subgroup_classes_are_pinned(dihedral_fixtures):
    for k, (lat, gens, cert) in dihedral_fixtures.items():
        out = []
        for bound in (3, 4):
            gamma = GeneratedGroup(lat, gens, word_bound=bound, component_base=(1, 0))
            mat, _ = finite_subgroup_classes_matrix(gamma)
            cone, _ = classify_finite_subgroups_on_cone(gamma, cert)
            assert len(mat) == len(cone) == 3
            out.append([bound, [sorted(h) for h in mat], [sorted(h) for h in cone]])
        assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == PINNED_CLASSES[k]


def test_only_generators_are_inverted_by_elimination(monkeypatch, dihedral_fixtures):
    real, calls = la.unimodular_inverse, []

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(la, "unimodular_inverse", counting)
    lat, gens, cert = dihedral_fixtures[2]
    generators = [g.matrix for g in gens]
    # one matrix task: both routes on one group
    gamma = GeneratedGroup(lat, gens, word_bound=4, component_base=(1, 0))
    finite_subgroup_classes_matrix(gamma)
    classify_finite_subgroups_on_cone(gamma, cert)
    assert calls == generators
    # the reader walks the words of a fresh group, and the moves use its tree
    calls.clear()
    back = ser.certificate_from_json(ser.certificate_to_json(cert))
    assert len(back.moves) > len(generators)
    assert calls == generators

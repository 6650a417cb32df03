from fractions import Fraction

import pytest

from klein_lattice import intlinalg as la
from klein_lattice.cohomology import finite_subgroup_classes_matrix
from klein_lattice.cones import cone_from_rays, intersect, transform_cone
from klein_lattice.errors import InvalidInput, Undecidable
from klein_lattice.hodge import (
    HodgeKind,
    HodgeLattice,
    KahlerModel,
    MonodromySpec,
    anti_hodge_solution,
    anti_invariant_class,
    classify_finite_subgroups_on_cone,
    hilbert_square_extension,
    hodge_kind,
    hodge_solution,
    is_anti_hodge,
    is_hodge_isometry,
    is_projective_type,
    kaut_star_criterion,
    mon2_khdg_member,
    mon_contains,
    neron_severi,
    ns_plus_t_index,
    prop_key_reduction,
    torelli_anti_check,
    transcendental,
)
from klein_lattice.isometry import Isometry, KleinIsometry
from klein_lattice.lattice import (
    IntegerLattice,
    LatticeType,
    U,
    classify_type,
    direct_sum,
)

PELL = ((3, 4), (2, 3))
REFLECTION = ((1, 0), (0, -1))
SWAP = ((0, 1), (1, 0))
# the Eichler transvection x -> x + <e2, x> e1 - <e1, x> e2 of U + U with
# basis e1, f1, e2, f2: unipotent, so of infinite order
EICHLER = ((1, 0, 0, 1), (0, 1, 0, 0), (0, -1, 1, 0), (0, 0, 0, 1))


def padded(block, n, at=0):
    """The n x n identity with block placed on the diagonal at index at."""
    k = len(block)
    return tuple(
        tuple(
            block[i - at][j - at] if at <= i < at + k and at <= j < at + k
            else int(i == j)
            for j in range(n)
        )
        for i in range(n)
    )


EICHLER6 = padded(EICHLER, 6)


def undecided_on_hilbert_square():
    """Generators on U^3 + <-2> that neither reach nor exclude the Hilbert
    operator of config_u3: the transvection on U1 + U2 and the swap on U3,
    which has determinant -1."""
    return MonodromySpec(
        "generators", generators=(padded(EICHLER, 7), padded(SWAP, 7, 4)), word_bound=3
    )


# --- shipped configurations ---------------------------------------------------


def config_u3():
    """Unimodular rank-6 toy: U^3, period in the first two summands,
    sigma* = swap on U1, -id on the rest."""
    lat = direct_sum(direct_sum(U(), U()), U())
    h = HodgeLattice(lat, (1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0))
    swap = ((0, 1), (1, 0))
    sigma = tuple(
        tuple(
            swap[i][j]
            if i < 2 and j < 2
            else ((-1 if i == j else 0) if i >= 2 and j >= 2 else 0)
            for j in range(6)
        )
        for i in range(6)
    )
    return h, sigma


def config_diag5():
    """Rank-5 toy with a non-scalar dagger on NS."""
    lat = IntegerLattice(
        (
            (2, 0, 0, 0, 0),
            (0, 2, 0, 0, 0),
            (0, 0, 2, 0, 0),
            (0, 0, 0, -2, 0),
            (0, 0, 0, 0, -2),
        )
    )
    h = HodgeLattice(lat, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
    sigma = tuple(
        tuple(d if i == j else 0 for j in range(5))
        for i, d in enumerate((1, -1, -1, 1, -1))
    )
    return h, sigma


def config_diag4():
    lat = IntegerLattice(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, -2)))
    h = HodgeLattice(lat, (1, 0, 0, 0), (0, 1, 0, 0))
    sigma = tuple(
        tuple(d if i == j else 0 for j in range(4))
        for i, d in enumerate((1, -1, -1, -1))
    )
    return h, sigma


SHIPPED = [("u3", config_u3), ("diag5", config_diag5), ("diag4", config_diag4)]


def hilbert_kahler_model(h_ext, n):
    """A dagger-invariant simplicial model on NS of the extension."""
    ns = neron_severi(h_ext)
    d = ns.rank
    if d == 5:  # u3 case
        rays = ((1, 0, 4, 4, 0), (0, 1, 4, 4, 0), (0, 0, 5, 4, 0), (0, 0, 4, 5, 0), (0, 0, 4, 4, 1))
    elif d == 4:  # diag5 case
        rays = ((4, 1, 1, -1), (4, -1, 1, -1), (4, 1, -1, -1), (4, -1, -1, -1), (4, 0, 0, 1))
    elif d == 3:  # diag4 case
        rays = ((4, 1, -1), (4, -1, -1), (4, 0, 1))
    else:
        raise AssertionError(f"unexpected NS rank {d}")
    return KahlerModel(cone_from_rays(d, rays), ns.basis, h_ext.lattice)


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


def test_hodge_kind_distribution_neither_dominates():
    # over the full signed-permutation isometry group of diag(2,2,2,-2),
    # isometries moving the period plane (kind NEITHER) dominate
    from itertools import permutations, product

    h, _ = config_diag4()
    counts = {HodgeKind.HODGE: 0, HodgeKind.ANTI: 0, HodgeKind.NEITHER: 0}
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=4):
            m = [[0] * 4 for _ in range(4)]
            for i in range(3):
                m[perm[i]][i] = signs[i]
            m[3][3] = signs[3]
            counts[hodge_kind(tuple(map(tuple, m)), h)] += 1
    assert counts[HodgeKind.NEITHER] > counts[HodgeKind.HODGE] + counts[HodgeKind.ANTI]
    assert counts[HodgeKind.HODGE] == counts[HodgeKind.ANTI] > 0


def test_projectivity_examples():
    # NS = <2>: projective; NS = <-2>: not; NS parabolic: not
    lat = IntegerLattice(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, -2)))
    h_pos = HodgeLattice(lat, (1, 0, 0, 0), (0, 1, 0, 0))
    ns = neron_severi(h_pos).as_lattice()
    assert classify_type(ns) == LatticeType.HYPERBOLIC


# --- hodge type solves --------------------------------------------------------------


def test_hodge_kind_examples():
    h, sigma = config_diag4()
    ident = la.identity_matrix(4)
    assert hodge_solution(ident, h) == (1, 0)
    assert hodge_kind(ident, h) == HodgeKind.HODGE
    assert anti_hodge_solution(sigma, h) == (1, 0)
    assert hodge_kind(sigma, h) == HodgeKind.ANTI
    assert is_anti_hodge(sigma, h) and not is_hodge_isometry(sigma, h)
    mv = ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1))
    assert hodge_kind(mv, h) == HodgeKind.NEITHER
    # rotation x -> y, y -> -x sends sigma to -i*sigma: Hodge with (0, -1)
    rot = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert hodge_solution(rot, h) == (0, -1)


def test_hodge_and_anti_exclusive_on_shipped():
    for _, maker in SHIPPED:
        h, sigma = maker()
        n = h.lattice.rank
        mats = [la.identity_matrix(n), sigma,
                tuple(tuple(-x for x in row) for row in sigma)]
        for m in mats:
            hs = hodge_solution(m, h)
            ah = anti_hodge_solution(m, h)
            assert not (hs is not None and ah is not None)


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
    km = hilbert_kahler_model(h_ext, 2)
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


def test_anti_invariant_identity_dagger():
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    km = hilbert_kahler_model(h_ext, 2)
    ident = KleinIsometry(Isometry(h_ext.lattice, la.identity_matrix(7)), 1)
    c = anti_invariant_class(km, ident)
    assert km.cone.contains_strictly(c)


# --- torelli and the kaut criterion ------------------------------------------------------------


def test_torelli_on_hilbert_operator():
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    km = hilbert_kahler_model(h_ext, 2)
    spec = MonodromySpec("discriminant", signs=(-1,))
    out = torelli_anti_check(klein.matrix, h_ext, h_ext, km, km, spec)
    assert out["verdict"] is True
    assert all(
        out[k] for k in ("parallel_transport", "isometry", "anti_hodge", "kahler_condition")
    )


def test_torelli_identity_fails_condition_3():
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    km = hilbert_kahler_model(h_ext, 2)
    out = torelli_anti_check(
        la.identity_matrix(7), h_ext, h_ext, km, km, MonodromySpec("full_orthogonal_plus")
    )
    assert out["anti_hodge"] is False and out["verdict"] is False


def test_kaut_criterion_branches():
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    km = hilbert_kahler_model(h_ext, 2)
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
    km = hilbert_kahler_model(h_ext, 2)
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
    assert hodge_kind(mh, h_ext) == HodgeKind.HODGE
    spec = MonodromySpec("discriminant", signs=(1, -1), require_orientation=False)
    v = kaut_star_criterion(mh, h_ext, km, spec)
    assert v.kind == "NotRealizable" and "cone" in v.reason


def test_kaut_criterion_undecided_on_bounded_mon():
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    km = hilbert_kahler_model(h_ext, 2)
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

import hashlib
import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from klein_lattice import intlinalg as la
from klein_lattice import serialize as ser
from klein_lattice.errors import (
    DimensionMismatch,
    InvalidInput,
    NonPositiveVector,
    NotDefinite,
    NotHyperbolic,
    NotPrimitive,
)
from klein_lattice.isometry import (
    GeneratedGroup,
    Isometry,
    KleinIsometry,
    dagger_apply,
    dagger_compose,
    fixes_pointwise_implies_identity,
    group_membership,
    is_isometry,
    isometry_group_definite,
    isometry_group_order_definite,
    klein_inverse,
    preserves_positive_orientation,
    stabilizer,
    vectors_of_norm,
)
from klein_lattice.lattice import (
    A1_minus,
    E8,
    E8_minus,
    IntegerLattice,
    K3,
    Sublattice,
    U,
    direct_sum,
)

from cases import reflection

PELL = ((3, 4), (2, 3))
REFLECTION = ((1, 0), (0, -1))


def test_is_isometry_examples():
    u = U()
    assert is_isometry(u, ((0, 1), (1, 0)))
    assert is_isometry(u, ((1, 0), (0, 1)))
    d = IntegerLattice(((2, 0), (0, -4)))
    assert is_isometry(d, PELL)
    assert not is_isometry(d, ((2, 0), (0, 1)))
    assert not is_isometry(u, ((1, 1), (0, 1)))


def test_definite_group_small():
    g1 = isometry_group_definite(A1_minus())
    assert [g.matrix for g in g1] == [((-1,),), ((1,),)]
    g2 = isometry_group_definite(IntegerLattice(((-2, 0), (0, -2))))
    assert len(g2) == 8
    mats = {g.matrix for g in g2}
    # closed under product and inverse, and every member is an isometry
    for a in g2:
        assert la.unimodular_inverse(a.matrix) in mats
        for b in g2:
            assert la.mat_mul(a.matrix, b.matrix) in mats


def brute_force_isometries(gram, bound=2):
    """Oracle: scan all integer matrices with small entries."""
    n = len(gram)
    out = []
    for entries in product(range(-bound, bound + 1), repeat=n * n):
        m = tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))
        mt = la.transpose(m)
        if la.mat_mul(mt, la.mat_mul(gram, m)) == gram and abs(la.bareiss_det(m)) == 1:
            out.append(m)
    return sorted(out)


def test_definite_group_matches_bruteforce_oracle():
    for gram in (((-2,),), ((-2, 0), (0, -2)), ((2, -1), (-1, 2)), ((-2, 1), (1, -4))):
        lat = IntegerLattice(gram)
        assert [g.matrix for g in isometry_group_definite(lat)] == brute_force_isometries(gram)


def test_definite_group_counting_route():
    assert isometry_group_order_definite(A1_minus()) == 2
    assert isometry_group_order_definite(IntegerLattice(((-2, 0), (0, -2)))) == 8
    a2 = IntegerLattice(((2, -1), (-1, 2)))
    assert isometry_group_order_definite(a2) == 12
    assert len(isometry_group_definite(a2)) == 12


def test_not_definite():
    with pytest.raises(NotDefinite):
        isometry_group_definite(U())
    for gram in (((1, 0), (0, -1)), ((2, 3), (3, 2)), ((1, 1), (1, 1)), ((2, 0), (0, 0))):
        with pytest.raises(NotDefinite):
            vectors_of_norm(gram, 2)


# each group's order and the sha256 of repr() of its sorted matrix list: a fixed
# reference for which isometries isometry_group_definite returns, in which order
GROUP_DIGESTS = {
    "A2": (((2, -1), (-1, 2)), 12,
           "7137e490ed1fec476e716f6af9e4e2356f02d31f773bedfb30f99b2e17e9cb2a"),
    "D4": (((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)), 1152,
           "7f2fe2172b4c7910a6088f7751dd340504340120094ef94c976fc78c9cb5a68b"),
    "A1(-1)+A1(-1)+<-4>": (((-2, 0, 0), (0, -2, 0), (0, 0, -4)), 16,
                           "1dcc0833271f9c809812d91527a1cc21ecad1f68fb38f1addd6bea873eb29f4b"),
    "no-roots": (((4, 1, 1, 1), (1, 4, 1, 1), (1, 1, 4, 1), (1, 1, 1, 4)), 48,
                 "a7f7878ad8d4df4863f0b1a2f91dd4e7d95f8fd40e32ac3166929d3bc450a747"),
}


@pytest.mark.parametrize("name", sorted(GROUP_DIGESTS))
def test_definite_group_lists_and_orders_are_unchanged(name):
    gram, order, digest = GROUP_DIGESTS[name]
    lat = IntegerLattice(gram)
    mats = [m.matrix for m in isometry_group_definite(lat)]
    assert mats == sorted(mats) and len(mats) == order
    assert hashlib.sha256(repr(mats).encode()).hexdigest() == digest
    assert isometry_group_order_definite(lat) == order


def test_vectors_of_norm_match_a_box_search():
    rng = random.Random(31)
    checked = 0
    while checked < 12:
        n = rng.randint(2, 4)
        b = tuple(tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n))
        gram = la.mat_mul(la.transpose(b), b)
        gram = tuple(
            tuple(x + (rng.randint(0, 1) if i == j else 0) for j, x in enumerate(row))
            for i, row in enumerate(gram)
        )
        det = la.bareiss_det(gram)
        if det == 0:
            continue
        checked += 1
        minors = [
            la.bareiss_det(tuple(
                tuple(x for j, x in enumerate(row) if j != i)
                for r, row in enumerate(gram) if r != i
            ))
            for i in range(n)
        ]
        for m in range(1, 7):
            # x_i^2 <= m (gram^-1)_ii = m * minor_ii / det bounds every coordinate
            radius = max(isqrt(m * minor // det) for minor in minors)
            box = range(-radius, radius + 1)
            expected = [
                x for x in product(box, repeat=n) if la.dot(la.mat_vec(gram, x), x) == m
            ]
            assert vectors_of_norm(gram, m) == expected


def test_vectors_of_norm_e8_roots():
    assert len(vectors_of_norm(E8().gram, 2)) == 240


def test_e8_isometry_group_order_stretch():
    """|O(E8(-1))| = 696729600, counted by the stabilizer chain and
    cross-checked by a Schreier-Sims orbit-stabilizer oracle over the
    reflections in the eight basis roots."""
    lat = E8_minus()
    order = isometry_group_order_definite(lat)
    assert order == 696729600
    assert _schreier_sims_order(lat) == 696729600


def _schreier_sims_order(lat):
    """Order of the group generated by the reflections in the basis vectors
    (roots of norm -2), by Schreier-Sims over the base e_1, ..., e_n.

    Level i holds the orbit of e_i under the strong generators that fix
    e_1, ..., e_(i-1), with a transversal element and its inverse per orbit
    point; each strong generator is inverted once, when it is added.  A
    Schreier generator of level i is sifted through the levels below it,
    and only a nontrivial residue (an element not yet in the group) becomes
    a new strong generator.  The base spans the lattice, so a residue that
    fixes every base point is the identity.
    """
    g = lat.gram
    n = lat.rank
    ident = la.identity_matrix(n)
    base = [tuple(int(j == i) for j in range(n)) for i in range(n)]

    def reflection(i):
        # s_i(e_c) = e_c - 2<e_c, e_i>/<e_i, e_i> e_i = e_c + <e_c, e_i> e_i
        return tuple(
            tuple(int(r == c) + (g[i][c] if r == i else 0) for c in range(n))
            for r in range(n)
        )

    def first_moved(m):
        return next((j for j, b in enumerate(base) if la.mat_vec(m, b) != b), n)

    strong = []  # (index of the first base point moved, matrix, inverse)

    def add_strong(m):
        depth = first_moved(m)
        strong.append((depth, m, la.unimodular_inverse(m)))
        return depth

    for i in range(n):
        add_strong(reflection(i))
    levels = [None] * n

    def build(i):
        """Orbit of base[i] under the strong generators fixing base[:i]:
        point -> (transversal element, its inverse)."""
        gens = [(m, minv) for depth, m, minv in strong if depth >= i]
        orbit = {base[i]: (ident, ident)}
        frontier = [base[i]]
        while frontier:
            x = frontier.pop()
            t, tinv = orbit[x]
            for m, minv in gens:
                y = la.mat_vec(m, x)
                if y not in orbit:
                    orbit[y] = la.mat_mul(m, t), la.mat_mul(tinv, minv)
                    frontier.append(y)
        levels[i] = [m for m, _ in gens], orbit

    def sift(m, start):
        """The residue of m after levels start.., and the level it stops at."""
        for j in range(start, n):
            y = la.mat_vec(m, base[j])
            if y not in levels[j][1]:
                return m, j
            m = la.mat_mul(levels[j][1][y][1], m)
        return m, n

    def new_residue(i):
        """The residue of the first Schreier generator of level i that is
        not yet in the group, with the level its sifting stopped at."""
        gens, orbit = levels[i]
        for x, (t, _) in orbit.items():
            for m in gens:
                schreier = la.mat_mul(orbit[la.mat_vec(m, x)][1], la.mat_mul(m, t))
                if schreier != ident:
                    residue = sift(schreier, i + 1)
                    if residue[0] != ident:
                        return residue
        return None

    for i in range(n):
        build(i)
    i = n - 1
    while i >= 0:
        residue = new_residue(i)
        if residue is None:
            i -= 1
            continue
        depth = add_strong(residue[0])
        assert depth == residue[1] < n  # a residue fixing the base is the identity
        for j in range(i + 1, depth + 1):
            build(j)
        i = depth
    order = 1
    for _, orbit in levels:
        order *= len(orbit)
    return order


def test_fixes_pointwise_corank1_identityonly():
    l = direct_sum(U(), A1_minus())
    n = Sublattice(l, ((1, 0, 0), (0, 0, 1)))
    assert fixes_pointwise_implies_identity(l, n).kind == "IdentityOnly"


def test_fixes_pointwise_counterexample_u_plus_u():
    l = direct_sum(U(), U())
    n = Sublattice(l, ((1, 0, 0, 0),))
    out = fixes_pointwise_implies_identity(l, n)
    assert out.kind == "Counterexample"
    m = out.witness
    assert is_isometry(l, m)
    assert la.mat_vec(m, (1, 0, 0, 0)) == (1, 0, 0, 0)
    assert m != la.identity_matrix(4)


def test_fixes_pointwise_corank1_z_minus_one_branch():
    # diag(2,-2) with N = <e1>: the reflection in e2 fixes N pointwise
    l = IntegerLattice(((2, 0), (0, -2)))
    out = fixes_pointwise_implies_identity(l, Sublattice(l, ((1, 0),)))
    assert out.kind == "Counterexample"
    assert out.witness == ((1, 0), (0, -1))


def test_fixes_pointwise_corank1_z_plus_one_branch():
    # e1 - e2 lies in the radical and is orthogonal to N = <e1, e2>, so the
    # transvection e3 -> e3 - e1 + e2 fixes N pointwise
    l = IntegerLattice(((1, 1, 2), (1, 1, 2), (2, 2, 2)))
    out = fixes_pointwise_implies_identity(l, Sublattice(l, ((1, 0, 0), (0, 1, 0))))
    assert out.kind == "Counterexample"
    assert out.witness == ((1, 0, -1), (0, 1, 1), (0, 0, 1))


def test_fixes_pointwise_of_the_zero_sublattice():
    # every isometry fixes N = 0 pointwise; corank 1 takes the z = -1 branch
    # with an empty Gram block of N, and corank >= 2 the bounded search
    minus_id = ((-1, 0), (0, -1))
    for gram, witness in (
        (((2,),), ((-1,),)),
        (((1,),), ((-1,),)),
        (((-2,),), ((-1,),)),
        (((1, 0), (0, -1)), minus_id),
        (((0, 1), (1, 0)), minus_id),
        (((2, 1), (1, -2)), ((-1, -1), (0, 1))),
        (((1, 0, 0), (0, -1, 0), (0, 0, -1)), ((-1, 0, 0), (0, -1, 0), (0, 0, -1))),
    ):
        l = IntegerLattice(gram)
        out = fixes_pointwise_implies_identity(l, Sublattice(l, ()))
        assert out.kind == "Counterexample"
        assert out.witness == witness


def test_fixes_pointwise_corank2_undecided():
    # frozen instance: the bounded search finds nothing at bound 1
    l = IntegerLattice(((0, 1, 4), (1, -4, 3), (4, 3, -1)))
    out = fixes_pointwise_implies_identity(l, Sublattice(l, ((1, 0, 0),)))
    assert out.kind == "Undecided"


def test_fixes_pointwise_requires_primitive():
    u = U()
    with pytest.raises(NotPrimitive):
        fixes_pointwise_implies_identity(u, Sublattice(u, ((2, 0),)))


def test_fixes_pointwise_corank0():
    u = U()
    out = fixes_pointwise_implies_identity(u, Sublattice(u, ((1, 0), (0, 1))))
    assert out.kind == "IdentityOnly"


# --- klein isometries ---------------------------------------------------------


def test_dagger_sign_involution():
    u = U()
    k = KleinIsometry(Isometry(u, la.identity_matrix(2)), -1)
    c = dagger_compose(k, k)
    assert c.sign == 1 and c.matrix == la.identity_matrix(2)
    assert dagger_apply(k, (2, 3)) == (-2, -3)


def test_dagger_of_holomorphic_is_plain_pullback():
    u = U()
    swap = Isometry(u, ((0, 1), (1, 0)))
    k = KleinIsometry(swap, 1)
    assert k.dagger_matrix() == swap.matrix


KLEIN_MATS = [
    ((0, 1), (1, 0)),
    ((1, 0), (0, 1)),
    ((-1, 0), (0, -1)),
    ((0, -1), (-1, 0)),
]


@given(
    st.sampled_from(KLEIN_MATS),
    st.sampled_from((1, -1)),
    st.sampled_from(KLEIN_MATS),
    st.sampled_from((1, -1)),
)
@settings(max_examples=64, deadline=None)
def test_dagger_composition_law(m1, s1, m2, s2):
    u = U()
    f = KleinIsometry(Isometry(u, m1), s1)
    g = KleinIsometry(Isometry(u, m2), s2)
    fg = dagger_compose(f, g)
    assert fg.sign == s1 * s2
    # (f o g)^dag = g^dag o f^dag as matrices
    assert fg.dagger_matrix() == la.mat_mul(g.dagger_matrix(), f.dagger_matrix())
    inv = klein_inverse(f)
    assert la.mat_mul(inv.dagger_matrix(), f.dagger_matrix()) == la.identity_matrix(2)


def test_klein_generators_carry_their_sign(pell_lattice):
    # a Klein generator acts by its dagger, here -diag(1, -1), an involution,
    # so it has no separate inverse letter
    klein = KleinIsometry(Isometry(pell_lattice, ((1, 0), (0, -1))), -1)
    gamma = GeneratedGroup(pell_lattice, (Isometry(pell_lattice, PELL), klein))
    gens = {g.word: (g.matrix, g.sign) for g in gamma.generator_elements()}
    assert gens == {
        "g0": (PELL, 1),
        "g0^-1": (la.unimodular_inverse(PELL), 1),
        "g1": (((-1, 0), (0, 1)), -1),
    }
    words = {el.word: el.sign for layer in gamma.layers(2) for el in layer}
    assert words["g1*g0"] == -1 and words["g0*g0"] == 1
    for word, sign in words.items():
        assert sign == (-1) ** word.split("*").count("g1")
    back = ser.generated_group_from_json(ser.generated_group_to_json(gamma))
    assert [(el.matrix, el.sign, el.word) for el in back.elements_up_to(2)] == [
        (el.matrix, el.sign, el.word) for el in gamma.elements_up_to(2)
    ]


def test_isometry_entries_must_be_integers(pell_lattice):
    # truncated, this would be the identity
    with pytest.raises(InvalidInput):
        Isometry(pell_lattice, ((Fraction(3, 2), 0), (0, 1)))
    assert Isometry(pell_lattice, ((Fraction(6, 2), 4), (2, 3))).matrix == ((3, 4), (2, 3))


@pytest.mark.parametrize(
    "options, error",
    [
        ({"full_orthogonal_plus": True}, InvalidInput),
        ({"component_base": (1, 0, 0)}, DimensionMismatch),
        ({"component_base": (0, 1)}, NonPositiveVector),
        ({"component_base": (0, 0)}, NonPositiveVector),
    ],
    ids=["O-plus-without-base", "base-of-wrong-rank", "base-with-q-negative", "zero-base"],
)
def test_generated_group_checks_its_component_base(pell_lattice, options, error):
    # with the base (0, 1), q < 0, group_membership would call PELL out
    # and -PELL in; without a base, O+ would fail at the first membership
    # call instead of where the group is built
    gens = (Isometry(pell_lattice, ((3, 4), (2, 3))),)
    with pytest.raises(error):
        GeneratedGroup(pell_lattice, gens, **options)
    doc = {"lattice": {"gram": [[2, 0], [0, -4]]}, "generators": [{"matrix": [[3, 4], [2, 3]]}]}
    for key, value in options.items():
        doc[key] = list(value) if key == "component_base" else value
    with pytest.raises(error):
        ser.generated_group_from_json(doc)
    # the other component's vectors are bases too
    GeneratedGroup(pell_lattice, gens, full_orthogonal_plus=True, component_base=(-1, 0))


# --- stabilizers ----------------------------------------------------------------


def test_stabilizer_oplus_u():
    u = U()
    gamma = GeneratedGroup(
        u,
        (Isometry(u, ((0, 1), (1, 0))),),
        word_bound=6,
        full_orthogonal_plus=True,
        component_base=(1, 1),
    )
    st_ = stabilizer(gamma, (1, 1))
    assert st_.is_certified()
    assert sorted(m.matrix for m in st_.members) == [
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
    ]
    # every member fixes x; the set is closed under products
    mats = {m.matrix for m in st_.members}
    for a in mats:
        assert la.mat_vec(a, (1, 1)) == (1, 1)
        for b in mats:
            assert la.mat_mul(a, b) in mats


def test_stabilizer_pell_certified_trivial(pell_group):
    st_ = stabilizer(pell_group, (1, 0))
    assert st_.is_certified()
    assert len(st_.members) == 1
    # oracle: every element of the cyclic Pell group has |trace| >= 2 and
    # det 1; the only candidate fixing (1,0) besides id has det -1
    assert la.bareiss_det(PELL) == 1


def test_stabilizer_dihedral(dihedral_group):
    st_ = stabilizer(dihedral_group, (1, 0))
    assert len(st_.members) == 2  # the reflection fixes (1, 0)
    st2 = stabilizer(dihedral_group, (3, 1))
    assert st2.is_certified() and len(st2.members) == 1


def test_stabilizer_contains_constructed_fix(dihedral_group):
    # x = sum of the orbit of y under <reflection> is fixed by construction
    refl = ((1, 0), (0, -1))
    y = (5, 2)
    x = tuple(a + b for a, b in zip(y, la.mat_vec(refl, y)))
    st_ = stabilizer(dihedral_group, x)
    assert refl in {m.matrix for m in st_.members}


def test_stabilizer_of_an_open_reflection_group_is_bounded():
    # the reflections in (0, 1, 0) and (1, 1, 1) of diag(2, -2, -2) generate
    # an infinite group, so the words up to length 4 settle only the members
    lat = IntegerLattice(((2, 0, 0), (0, -2, 0), (0, 0, -2)))
    r1 = Isometry(lat, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))
    r2 = Isometry(lat, ((3, -2, -2), (2, -1, -2), (2, -2, -1)))
    gamma = GeneratedGroup(lat, (r1, r2), word_bound=4)
    st_ = stabilizer(gamma, (1, 0, 0))
    assert st_.completeness == "BoundedSearch" and st_.bound == 4
    assert [m.matrix for m in st_.members] == [r1.matrix, la.identity_matrix(3)]
    assert len(st_.unresolved) == 6
    for m in st_.unresolved:
        assert la.mat_vec(m, (1, 0, 0)) == (1, 0, 0)
        assert group_membership(gamma, m) == "unknown"


def test_stabilizer_errors(pell_group):
    with pytest.raises(NotHyperbolic):
        stabilizer(
            GeneratedGroup(A1_minus(), (), component_base=None), (1,)
        )
    from klein_lattice.errors import NonPositiveVector

    with pytest.raises(NonPositiveVector):
        stabilizer(pell_group, (0, 1))
    # (1, 0, 0) truncated to rank 2 would be the point (1, 0)
    with pytest.raises(DimensionMismatch):
        stabilizer(pell_group, (1, 0, 0))


def test_group_membership_verdicts(pell_group):
    m2 = la.mat_mul(PELL, PELL)
    assert group_membership(pell_group, m2) == "in"
    assert group_membership(pell_group, ((1, 0), (0, -1))) == "out"  # det -1
    assert group_membership(pell_group, ((1, 1), (0, 1))) == "out"  # not an isometry
    # the Eichler transvection preserves the orientation of the positive
    # part of U^3, and -id (det +1) reverses it, so no word reaches -id
    u3 = direct_sum(direct_sum(U(), U()), U())
    eichler = (
        (1, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, -1, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
    )
    gamma = GeneratedGroup(u3, (Isometry(u3, eichler),), word_bound=4)
    neg = tuple(tuple(-int(i == j) for j in range(6)) for i in range(6))
    assert group_membership(gamma, neg) == "out"


def test_group_membership_closed_enumeration_certifies_out():
    # a finite group closes its BFS, so absence is a certified 'out' even
    # without an invariant obstruction (det +1 candidate below)
    d = IntegerLattice(((2, 0, 0), (0, -2, 0), (0, 0, -2)))
    g1 = Isometry(d, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))
    g2 = Isometry(d, ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    gamma = GeneratedGroup(d, (g1, g2), word_bound=8, component_base=(1, 0, 0))
    elements, closed = gamma.enumeration()
    assert closed and len(elements) == 4
    swap23 = ((1, 0, 0), (0, 0, 1), (0, 1, 0))  # det -1... use a det +1 outsider
    rot = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
    assert la.bareiss_det(rot) == 1
    assert group_membership(gamma, rot) == "out"


def uncached_layers(gamma, bound):
    """The word BFS of GeneratedGroup.layers, without a cache, as
    (matrix, sign, word) triples."""
    ident = la.identity_matrix(gamma.lattice.rank)
    gens = gamma.generator_elements()
    seen = {ident}
    layers = [[(ident, 1, "e")]]
    for _ in range(bound):
        new = []
        for m, sign, word in layers[-1]:
            for g in gens:
                p = la.mat_mul(g.matrix, m)
                if p not in seen:
                    seen.add(p)
                    new.append((p, g.sign * sign, g.word if word == "e" else f"{g.word}*{word}"))
        layers.append(new)
        if not new:
            break
    return layers


def test_cached_layers_equal_an_uncached_bfs(pell_lattice):
    # the sign flips of diag(2,-2,-2) exhaust at depth 3 (layers 1, 2, 1, 0)
    d = IntegerLattice(((2, 0, 0), (0, -2, 0), (0, 0, -2)))
    flips = (((1, 0, 0), (0, -1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    finite = GeneratedGroup(d, tuple(Isometry(d, m) for m in flips), word_bound=5)
    pell = GeneratedGroup(pell_lattice, (Isometry(pell_lattice, PELL),), word_bound=5)
    for gamma, bounds in ((finite, (2, 5, 0, 3, -1, 1, 4, 8)), (pell, (3, 1, 6, 0, 9))):
        for bound in bounds:
            layers = gamma.layers(bound)
            assert isinstance(layers, tuple)
            assert all(isinstance(layer, tuple) for layer in layers)
            got = [[(el.matrix, el.sign, el.word) for el in layer] for layer in layers]
            want = uncached_layers(gamma, bound)
            assert got == want
            _, closed = gamma.enumeration(bound)
            assert closed == (not want[-1])
    assert [len(layer) for layer in finite.layers(8)] == [1, 2, 1, 0]
    assert finite.enumeration(3)[1] and not finite.enumeration(2)[1]


def test_inverses_are_read_off_the_word_tree(pell_lattice):
    lat3 = IntegerLattice(((1, 0, 0), (0, -1, 0), (0, 0, -1)))
    # the reflections in the roots (0,-1,1), (0,0,-1), (1,1,1) of (2,4,inf)
    roots = (
        ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
        ((1, 0, 0), (0, 1, 0), (0, 0, -1)),
        ((3, -2, -2), (2, -1, -2), (2, -2, -1)),
    )
    sign_flips = (REFLECTION, ((-1, 0), (0, 1)))

    def on(lat, *mats):
        return tuple(Isometry(lat, m) for m in mats)

    groups = {
        "pell": (GeneratedGroup(pell_lattice, on(pell_lattice, PELL)), 6),
        "dihedral": (GeneratedGroup(pell_lattice, on(pell_lattice, PELL, REFLECTION)), 5),
        # both generators are involutions, and the group has order 4
        "involutions": (GeneratedGroup(pell_lattice, on(pell_lattice, *sign_flips)), 4),
        "klein": (GeneratedGroup(pell_lattice, tuple(
            KleinIsometry(g, -1) for g in on(pell_lattice, PELL, REFLECTION)
        )), 5),
        "reflections": (GeneratedGroup(lat3, on(lat3, *roots)), 4),
    }
    letters = {name: len(g.generator_elements()) for name, (g, _) in groups.items()}
    assert letters == {"pell": 2, "dihedral": 3, "involutions": 2, "klein": 3, "reflections": 3}
    for name, (gamma, bound) in groups.items():
        ident = la.identity_matrix(gamma.lattice.rank)
        elements = [el.matrix for layer in gamma.layers(bound) for el in layer]
        assert len(elements) >= 4
        for m in elements:
            inv = gamma.inverse(m)
            assert la.mat_mul(m, inv) == ident, name
            assert gamma.inverse(inv) == m, name
            assert inv == la.unimodular_inverse(m), name
    # P^3 is in the group but two letters past the walk; a reflection is not in it
    pell = GeneratedGroup(pell_lattice, on(pell_lattice, PELL))
    pell.layers(1)
    p3 = la.mat_mul(PELL, la.mat_mul(PELL, PELL))
    for m in (p3, REFLECTION):
        with pytest.raises(InvalidInput, match="not reached"):
            pell.inverse(m)
    pell.layers(3)
    assert pell.inverse(p3) == la.unimodular_inverse(p3)


def test_enumeration_runs_once_per_group(monkeypatch, pell_lattice):
    real = la.mat_mul
    calls = []

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(la, "mat_mul", counting)

    def pell():
        return GeneratedGroup(
            pell_lattice, (Isometry(pell_lattice, PELL),), word_bound=10,
            component_base=(1, 0),
        )

    gamma = pell()
    gamma.layers()
    first = len(calls)
    assert first > 0
    gamma.layers()
    gamma.layers(4)
    assert len(calls) == first
    # (1, 0) has the candidate diag(1, -1), which group_membership looks up
    # in the enumeration; the second stabilizer call finds it walked already
    gamma, other = pell(), pell()
    calls.clear()
    stabilizer(gamma, (1, 0))
    with_bfs = len(calls)
    calls.clear()
    other.layers()
    bfs = len(calls)
    calls.clear()
    stabilizer(gamma, (1, 0))
    assert bfs > 0 and len(calls) == with_bfs - bfs


def test_enumerated_group_equals_a_fresh_one(pell_lattice):
    def pell():
        return GeneratedGroup(
            pell_lattice, (Isometry(pell_lattice, PELL),), word_bound=6,
            component_base=(1, 0),
        )

    walked, fresh = pell(), pell()
    walked.layers(8)
    assert walked == fresh
    assert hash(walked) == hash(fresh)
    assert repr(walked) == repr(fresh)
    assert {fresh: "found"}[walked] == "found"


def test_orientation():
    d = IntegerLattice(((2, 0), (0, -4)))
    assert preserves_positive_orientation(d, PELL)
    assert preserves_positive_orientation(d, ((1, 0), (0, -1)))
    assert not preserves_positive_orientation(d, ((-1, 0), (0, 1)))


def test_orientation_counts_the_reflections_in_positive_roots():
    # the reflection in a root r reverses the orientation of the positive
    # part iff <r, r> > 0, so a product of reflections preserves it iff it
    # takes an even number of positive roots
    rng = random.Random(35)
    uu = direct_sum(U(), U())
    for lat in (uu, direct_sum(uu, A1_minus()), K3()):
        n = lat.rank
        roots = {2: [], -2: []}
        while min(map(len, roots.values())) < 6:
            r = [0] * n
            for i in rng.sample(range(n), min(n, 3)):
                r[i] = rng.choice((-1, 1))
            roots.get(lat.q(tuple(r)), []).append(tuple(r))
        # <r, r> = +-2, so each reflection is an integer matrix
        reflections = {r: tuple(tuple(map(int, row)) for row in reflection(lat.gram, r))
                       for r in roots[2] + roots[-2]}
        for _ in range(30):
            word = [rng.choice(list(reflections)) for _ in range(rng.randint(0, 5))]
            m = la.identity_matrix(n)
            for r in word:
                m = la.mat_mul(reflections[r], m)
            even = sum(lat.q(r) > 0 for r in word) % 2 == 0
            assert preserves_positive_orientation(lat, m) == even

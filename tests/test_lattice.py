import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from klein_lattice import intlinalg as la
from klein_lattice.errors import DegenerateLattice, DimensionMismatch, InvalidInput
from klein_lattice.lattice import (
    A1,
    A1_minus,
    E8,
    E8_minus,
    IntegerLattice,
    K3,
    LatticeType,
    Sublattice,
    U,
    builtin,
    classify_type,
    direct_sum,
    discriminant_acts_as,
    discriminant_group,
    orthogonal_complement,
    radical,
    rescale,
    saturation,
    signature,
    sublattice_index,
)

from cases import char_poly_sign_counts, rand_sym


def test_signature_examples():
    assert signature(U()).as_tuple() == (1, 0, 1)
    assert signature(K3()).as_tuple() == (3, 0, 19)
    assert signature(IntegerLattice(((0, 0), (0, -2)))).as_tuple() == (0, 1, 1)
    # <0> + U: the diagonal is zero and row 0 is too, so the diagonalization
    # keeps entry 0 at zero and adds row and column 2 to 1 to make a pivot
    zero_u = IntegerLattice(((0, 0, 0), (0, 0, 1), (0, 1, 0)))
    assert signature(zero_u).as_tuple() == (1, 1, 1)


def test_signature_against_charpoly_oracle():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 6)
        g = rand_sym(rng, n)
        s = signature(IntegerLattice(g))
        assert s.as_tuple() == char_poly_sign_counts(g)


def test_signature_of_zero_diagonal_forms_against_charpoly_oracle():
    # a zero pivot takes the +-1 congruence move, which the oracle above
    # seldom reaches: every diagonal entry here is zero, or a U block sits
    # beside definite blocks
    rng = random.Random(35)
    blocks = [((0,),), ((0, 1), (1, 0)), ((0, 2), (2, 0)), ((2,),), ((-4,),),
              ((2, -1), (-1, 2))]
    grams = [((0, 0, 0), (0, 0, 1), (0, 1, 0))]
    for _ in range(150):
        n = rng.randint(1, 7)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.choice((0, 0, rng.randint(-3, 3)))
        grams.append(g)
    for _ in range(60):
        g = ()
        for _ in range(rng.randint(2, 4)):
            g = la.block_diagonal(g, rng.choice(blocks))
        grams.append(g)
    for g in grams:
        assert signature(IntegerLattice(g)).as_tuple() == char_poly_sign_counts(g)


@given(st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_signature_invariant_under_unimodular_congruence(n, rnd):
    g = rand_sym(rnd, n, 4)
    # random unimodular P as a product of elementary operations
    p = [list(row) for row in la.identity_matrix(n)]
    for _ in range(6):
        i, j = rnd.randrange(n), rnd.randrange(n)
        if i == j:
            continue
        c = rnd.randint(-2, 2)
        for k in range(n):
            p[k][i] += c * p[k][j]
    p = tuple(tuple(row) for row in p)
    g2 = la.mat_mul(la.transpose(p), la.mat_mul(g, p))
    assert signature(IntegerLattice(g)).as_tuple() == signature(
        IntegerLattice(g2)
    ).as_tuple()


def test_radical_examples():
    assert radical(U()).rank == 0
    r = radical(IntegerLattice(((0, 0), (0, -2))))
    assert r.basis == ((1, 0),)
    l3 = IntegerLattice(((0, 0, 1), (0, -2, 0), (1, 0, 0)))
    assert la.bareiss_det(l3.gram) == 2
    assert radical(l3).rank == 0


def test_radical_rank_equals_zero_count():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 6)
        lat = IntegerLattice(rand_sym(rng, n))
        assert radical(lat).rank == signature(lat).zero


def test_orthogonal_complement_examples():
    u = U()
    assert orthogonal_complement(u, Sublattice(u, ((1, 0),))).basis == ((1, 0),)
    l = direct_sum(U(), A1_minus())
    c = orthogonal_complement(l, Sublattice(l, ((0, 0, 1),)))
    assert sorted(c.basis) == [(0, 1, 0), (1, 0, 0)]
    d = IntegerLattice(((2, 0), (0, -4)))
    c2 = orthogonal_complement(d, Sublattice(d, ((1, 1),)))
    assert c2.basis in (((2, 1),), ((-2, -1),))


def test_saturation():
    u = U()
    assert saturation(u, Sublattice(u, ((2, 0),))).basis == ((1, 0),)
    # idempotence on primitive input
    l = direct_sum(U(), A1_minus())
    prim = Sublattice(l, ((1, 0, 0), (0, 1, 0)))
    sat = saturation(l, prim)
    assert sorted(sat.basis) == sorted(prim.basis)
    sat2 = saturation(l, sat)
    assert sorted(sat2.basis) == sorted(sat.basis)
    # inclusion monotone: S <= T implies sat(S) <= sat(T)
    small = Sublattice(l, ((2, 0, 0),))
    big = Sublattice(l, ((1, 0, 0), (0, 2, 0)))
    sat_small, sat_big = saturation(l, small), saturation(l, big)
    for b in sat_small.basis:
        assert sat_big.contains(b)


def test_saturation_finite_index_on_random_full_rank_sublattices():
    rng = random.Random(5)
    done = 0
    while done < 30:
        n = rng.randint(2, 4)
        g = rand_sym(rng, n)
        lat = IntegerLattice(g)
        if la.bareiss_det(g) == 0:
            continue
        rows = tuple(
            tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)
        )
        if la.bareiss_det(rows) == 0:
            continue
        done += 1
        sub = Sublattice(lat, rows)
        sat = saturation(lat, sub)
        assert sat.rank == n
        # contains the original with finite index
        for b in sub.basis:
            assert sat.contains(b)


def test_discriminant_groups():
    assert discriminant_group(U()).invariant_factors == ()
    for n in range(2, 7):
        dg = discriminant_group(IntegerLattice(((-2 * (n - 1),),)))
        assert dg.invariant_factors == (2 * (n - 1),)
    assert discriminant_group(E8_minus()).invariant_factors == ()
    with pytest.raises(DegenerateLattice):
        discriminant_group(IntegerLattice(((0, 0), (0, -2))))


def test_discriminant_order_equals_det():
    rng = random.Random(29)
    done = 0
    while done < 60:
        n = rng.randint(1, 5)
        g = rand_sym(rng, n)
        d = la.bareiss_det(g)
        if d == 0:
            continue
        done += 1
        dg = discriminant_group(IntegerLattice(g))
        assert dg.order == abs(d)


def test_discriminant_lift_matrix_orders():
    lat = IntegerLattice(((2, 0), (0, -4)))
    dg = discriminant_group(lat)
    assert dg.order == 8
    gens = dg.generators()
    g = lat.gram
    for gen, order in zip(gens, dg.invariant_factors):
        # order * gen must be integral (in L), gen itself not
        scaled = tuple(order * c for c in gen)
        assert all(Fraction(c).denominator == 1 for c in scaled)
        assert any(Fraction(c).denominator != 1 for c in gen)
        # gen pairs integrally against all of L (it lies in the dual)
        for i in range(lat.rank):
            e = tuple(1 if j == i else 0 for j in range(lat.rank))
            assert Fraction(lat.pairing(gen, e)).denominator == 1


def acts_as_in_coordinates(lat, matrix, eps):
    """Reference: with U*G*V = D, L*/L is the sum of Z/d_j generated by the
    columns V e_j / d_j, and a dual vector y has coordinates D * V^-1 * y mod
    d.  The isometry acts as eps iff the image of generator j has coordinate
    eps at j and 0 elsewhere."""
    d, _, v = la.snf(lat.gram)
    vinv = la.unimodular_inverse(v)
    orders = [d[i][i] for i in range(lat.rank)]
    for j, dj in enumerate(orders):
        gen = tuple(Fraction(row[j], dj) for row in v)
        coords = la.mat_vec(vinv, la.mat_vec(matrix, gen))
        for i, di in enumerate(orders):
            w = di * coords[i]
            assert w.denominator == 1  # the image lies in L*
            if (int(w) - (eps if i == j else 0)) % di:
                return False
    return True


@pytest.mark.parametrize(
    "gram, neither",
    [(((2, -1), (-1, 2)), 0), (((2, 0, 0), (0, 4, 0), (0, 0, 6)), 4),
     (((4, 2), (2, 4)), 10), (((-6,),), 0), (((2, 1, 0), (1, 4, 1), (0, 1, 6)), 0)],
    ids=["A2", "diag-2-4-6", "4-2-2-4", "minus-6", "tridiagonal"],
)
def test_discriminant_acts_as_matches_coordinates(gram, neither):
    from klein_lattice.isometry import isometry_group_definite

    lat = IntegerLattice(gram)
    acts_as_neither = 0
    for phi in isometry_group_definite(lat):
        ref = {eps: acts_as_in_coordinates(lat, phi.matrix, eps) for eps in (1, -1)}
        for signs in ((1,), (-1,), (1, -1)):
            expected = any(ref[eps] for eps in signs)
            assert discriminant_acts_as(lat, phi.matrix, *signs) is expected
        acts_as_neither += not (ref[1] or ref[-1])
    assert acts_as_neither == neither


@pytest.mark.parametrize("n,also_plus", [(2, True), (3, False), (4, False)])
def test_discriminant_acts_as_sign(n, also_plus):
    # <-2(n-1)> has discriminant group Z/2(n-1); -1 = +1 only on Z/2
    lat = IntegerLattice(((-2 * (n - 1),),))
    assert discriminant_acts_as(lat, ((-1,),), -1)
    assert discriminant_acts_as(lat, ((-1,),), 1) is also_plus
    assert discriminant_acts_as(lat, ((1,),), 1)
    assert discriminant_acts_as(lat, ((-1,),), 1, -1)
    assert not discriminant_acts_as(lat, ((-1,),))
    # on the trivial group of U both signs hold
    minus_u = ((-1, 0), (0, -1))
    assert discriminant_acts_as(U(), minus_u, 1)
    assert discriminant_acts_as(U(), minus_u, -1)


def test_classify_type():
    assert classify_type(A1_minus()) == LatticeType.ELLIPTIC
    assert classify_type(IntegerLattice(((0, 0), (0, -2)))) == LatticeType.PARABOLIC
    assert classify_type(IntegerLattice(((2, 0), (0, -4)))) == LatticeType.HYPERBOLIC
    assert classify_type(U()) == LatticeType.HYPERBOLIC
    assert classify_type(K3()) == LatticeType.OTHER


def test_plumbing():
    ds = direct_sum(U(), A1_minus())
    assert ds.rank == 3 and abs(ds.det()) == 2
    assert ds.gram == ((0, 1, 0), (1, 0, 0), (0, 0, -2))
    # q(x, y, z) = 2xy - 2z^2 on a list of vectors, and its covectors
    vectors = ((1, 1, 0), (0, 0, 1), (1, -1, 2))
    assert ds.gram_of(vectors) == ((2, 0, 0), (0, -2, -4), (0, -4, -10))
    assert Sublattice(ds, vectors).gram() == ds.gram_of(vectors)
    assert ds.gram_of(()) == ()
    assert ds.covector((2, 4, 1)) == (2, 1, -1)
    assert ds.covector((Fraction(1, 2), 0, 0)) == (0, 1, 0)
    assert ds.covector((0, 0, 0)) == (0, 0, 0)
    assert rescale(A1(), -1).gram == A1_minus().gram
    u = U()
    assert sublattice_index(u, Sublattice(u, ((2, 0), (0, 1)))) == 2
    assert sublattice_index(u, Sublattice(u, ((2, 0),))) is None


def test_builtins():
    assert builtin("U").gram == ((0, 1), (1, 0))
    assert builtin("K3").rank == 22
    assert E8().det() == 1
    assert signature(E8()).as_tuple() == (8, 0, 0)
    with pytest.raises(InvalidInput):
        builtin("nope")


def test_gram_entries_must_be_integers():
    # truncated, this would be diag(2, 1)
    with pytest.raises(InvalidInput):
        IntegerLattice(((Fraction(5, 2), 0), (0, 1.9)))
    lat = IntegerLattice(((Fraction(4, 2), 0), (0, -4)))
    assert lat.gram == ((2, 0), (0, -4)) and type(lat.gram[0][0]) is int


def test_sublattice_basis_entries_must_be_integers():
    # truncated, this would be the basis ((1, 0),)
    with pytest.raises(InvalidInput):
        Sublattice(U(), ((Fraction(3, 2), 0),))
    assert Sublattice(U(), ((Fraction(2, 1), 0),)).basis == ((2, 0),)


def test_validation():
    with pytest.raises(InvalidInput):
        IntegerLattice(((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(InvalidInput):
        Sublattice(U(), ((1, 0), (2, 0)))  # dependent basis
    assert Sublattice(U(), ((2, 0),)).is_primitive() is False
    assert Sublattice(U(), ((1, 0),)).is_primitive() is True


@pytest.mark.parametrize("v", [(1,), (1, 2, 3)])
def test_form_evaluations_refuse_a_vector_of_the_wrong_length(v):
    # unchecked, covector((1,)) read (1, 0) and covector((1, 2, 3)) (1, -4)
    lat = IntegerLattice(((2, 0), (0, -4)))
    for evaluate in (lat.covector, lat.q, lambda u: lat.gram_of([u]),
                     lambda u: lat.gram_of([(1, 0), u]), lambda u: lat.pairing(u, (1, 0))):
        with pytest.raises(DimensionMismatch):
            evaluate(v)
    assert lat.covector((3, 3)) == (1, -2) and lat.gram_of([(1, 1)]) == ((-2,),)

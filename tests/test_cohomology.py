import hashlib
import json
import random
from itertools import permutations, product as iproduct

import pytest

from klein_lattice import cohomology
from klein_lattice import intlinalg as la
from klein_lattice import serialize as ser
from klein_lattice.cohomology import (
    AbelianGGroup,
    FgAbelian,
    FiniteGroup,
    GGroup,
    KleinGroupData,
    ShortExactSequence,
    SplitExtensionSpec,
    cocycles_equivalent,
    conjugation_action,
    cyclic,
    dihedral,
    direct_product,
    enumerate_cocycles,
    extension_subgroups,
    filtration_driver_finite,
    filtration_driver_split,
    finite_subgroup_classes_matrix,
    h1_abelian,
    h1_abelian_elements,
    h1_finite,
    inner_twist_bijection,
    is_cocycle,
    klein_four,
    les_of_pointed_sets,
    quaternion8,
    real_structure_classifier,
    subgroup_closure,
    symmetric,
    torsion_elements,
    trivial_action,
    twist_fiber_check,
    twist_subgroup,
)
from klein_lattice.errors import (
    InvalidInput,
    NoAntiInvolution,
    NotExactInput,
    NotInner,
    NotNormal,
)
from klein_lattice.isometry import GeneratedGroup, Isometry
from klein_lattice.lattice import IntegerLattice

from cases import (
    ACTING_GROUPS,
    SHIPPED_KLEIN_GROUPS,
    cocycles_equivalent_abelian,
    make_ses,
    s3_sign_sequence,
    ses_corpus,
)


# --- group builders -------------------------------------------------------------


def test_builders():
    assert symmetric(3).order == 6
    assert dihedral(4).order == 8
    assert quaternion8().order == 8
    assert klein_four().is_abelian()
    assert not dihedral(4).is_abelian()
    q8 = quaternion8()
    assert sorted(q8.element_order(x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_quaternion8_table_is_pinned():
    # elements 1, -1, i, -i, j, -j, k, -k: i*j = k, j*i = -k, i*i = -1
    assert quaternion8().table == (
        (0, 1, 2, 3, 4, 5, 6, 7),
        (1, 0, 3, 2, 5, 4, 7, 6),
        (2, 3, 1, 0, 6, 7, 5, 4),
        (3, 2, 0, 1, 7, 6, 4, 5),
        (4, 5, 7, 6, 1, 0, 2, 3),
        (5, 4, 6, 7, 0, 1, 3, 2),
        (6, 7, 4, 5, 3, 2, 1, 0),
        (7, 6, 5, 4, 2, 3, 0, 1),
    )


def test_subgroup_machinery():
    s3 = symmetric(3)
    assert len(s3.all_subgroups()) == 6
    assert len(s3.subgroups_up_to_conjugacy()) == 4
    d4 = dihedral(4)
    assert len(d4.all_subgroups()) == 10
    assert len(d4.subgroups_up_to_conjugacy()) == 8
    q8 = quaternion8()
    assert len(q8.all_subgroups()) == 6
    assert len(q8.subgroups_up_to_conjugacy()) == 6  # all subgroups normal
    s4 = symmetric(4)
    assert len(s4.all_subgroups()) == 30
    assert len(s4.subgroups_up_to_conjugacy()) == 11


def test_subgroup_group_refuses_repeated_or_negative_indices():
    z2 = cyclic(2)
    for subset in ([0, 0, 1], {0, -2}, [0, 1, 1]):
        with pytest.raises(InvalidInput):
            z2.subgroup_group(subset)


def test_quotient_group():
    d4 = dihedral(4)
    quot, proj = d4.quotient_group({0, 2})
    assert quot.order == 4
    assert quot.is_abelian()
    assert all(quot.op(x, x) == quot.identity for x in range(4))  # V4


# sha256 of the JSON of [table, [subgroup table, embedding] or [quotient
# table, projection] for each subgroup in all_subgroups() order], recorded
# when every builder still wrote its own table and index map
PINNED_TABLES = {
    "Z1": "22cd45b08aa11cbaef0630557d0a8e9aa49d67dea46dcec55189760b22f5359b",
    "Z2": "bf4a90631d517b580e234fe35de23583e9cb4bcfaa457d254d409e0ecc5aeb91",
    "Z3": "b81ea3b5fbc689400c14a7eeeaf3b294097e90d102c6fc7fdfaf13826a2f2342",
    "Z4": "7dcec7ed88d5cb80cd6960710e1eb4a301f13a73323472236190ab68e9686ed9",
    "Z5": "fd5c6a444febce9e0320c532738330acb484b2e2f361a7a32a9e34ec330ad480",
    "Z6": "5c64d6c8d315806bdd61da2ffbaeebd37d0387650c81e177e338935e2e537b9d",
    "V4": "f7f76a3ed9f8570c6de7cc4df839fc83d99f6a06a31309cb8eee6432fd7999ea",
    "Z2xZ2": "f7f76a3ed9f8570c6de7cc4df839fc83d99f6a06a31309cb8eee6432fd7999ea",
    "S3": "1f4eb27c5a785cf42a12d1d4e121adb13c4c55cd755dde67e7119282acae1d34",
    "S4": "31ef77ae46447ac53eedd948d414552a861d0d4c674fe24b49675320a61619e9",
    "D4": "54a33a94ef283d1fd9fd0520c3909ccc17e3421895e8559eaed6ee1bb2f21d8e",
    "D6": "e543053df68e8ddde7fe38502337ec4ee4cfb1586c3db7aca394f50ecd93383d",
    "Q8": "8dd6670daee08fcfaa7c95cfa3afd35caaa2d12e569337f9760b3e8e452ac4e1",
}


@pytest.mark.parametrize("name", sorted(ser.BUILTIN_GROUPS))
def test_builtin_group_tables_are_pinned(name):
    g = ser.BUILTIN_GROUPS[name]()
    parts = [g.table]
    for h in g.all_subgroups():
        sub, embed = g.subgroup_group(h)
        parts.append([sub.table, embed])
        if g.is_normal(h):
            quot, proj = g.quotient_group(h)
            parts.append([quot.table, proj])
    assert hashlib.sha256(json.dumps(parts).encode()).hexdigest() == PINNED_TABLES[name]


def test_small_symmetric_groups():
    assert symmetric(1).table == ((0,),)
    assert symmetric(2).table == ((0, 1), (1, 0))


# --- cocycles and H1 ---------------------------------------------------------------


def test_is_cocycle_and_equivalence():
    g = cyclic(2)
    gg = trivial_action(g, cyclic(2))
    assert is_cocycle(gg, (0, 0))
    assert is_cocycle(gg, (0, 1))
    assert not is_cocycle(gg, (1, 0))
    assert cocycles_equivalent(gg, (0, 0), (0, 0)) is not None
    assert cocycles_equivalent(gg, (0, 0), (0, 1)) is None


def test_h1_finite_examples():
    z2 = cyclic(2)
    assert h1_finite(trivial_action(z2, cyclic(2))).size == 2
    assert h1_finite(trivial_action(z2, symmetric(3))).size == 2
    assert h1_finite(trivial_action(cyclic(3), cyclic(2))).size == 1
    trivial_group = FiniteGroup(((0,),))
    assert h1_finite(trivial_action(z2, trivial_group)).size == 1


def _inversion(carrier):
    ident = tuple(range(carrier.order))
    return GGroup(cyclic(2), carrier, (ident, tuple(carrier.inv(x) for x in ident)))


def test_h1set_classes_partition_cocycles():
    z2 = cyclic(2)
    s3, d4, q8 = symmetric(3), dihedral(4), quaternion8()
    cases = [trivial_action(z2, c) for c in (cyclic(4), s3, klein_four())]
    cases += [_inversion(cyclic(3)), _inversion(cyclic(4))]
    # Z/2 acting by conjugation by a transposition of S3, a reflection of D4
    # and i in Q8: (|H^1|, |H^1| for the trivial action)
    sizes = []
    for carrier, c in ((s3, 1), (d4, 4), (q8, 2)):
        gg = conjugation_action(z2, carrier, (carrier.identity, c))
        cases.append(gg)
        triv = trivial_action(z2, carrier)
        sizes.append((h1_finite(gg).size, h1_finite(triv).size))
    assert sizes == [(2, 2), (4, 4), (3, 2)]
    for gg in cases:
        h1 = h1_finite(gg)
        for z in h1.cocycles:
            assert is_cocycle(gg, z)
            matches = [
                i
                for i, rep in enumerate(h1.representatives)
                if cocycles_equivalent(gg, rep, z) is not None
            ]
            assert matches == [h1.class_of(z)]
        for i, r1 in enumerate(h1.representatives):
            for r2 in h1.representatives[i + 1:]:
                assert cocycles_equivalent(gg, r1, r2) is None
        trivial = tuple([gg.carrier.identity] * gg.group.order)
        assert h1.class_of(trivial) == h1.base_point
        non_cocycle = next(
            v
            for v in iproduct(range(gg.carrier.order), repeat=gg.group.order)
            if not is_cocycle(gg, v)
        )
        with pytest.raises(InvalidInput):
            h1.class_of(non_cocycle)


def test_h1_with_nontrivial_action():
    # Z/2 acting on Z/3 by inversion: H1 is trivial
    z2, z3 = cyclic(2), cyclic(3)
    inv = (tuple(range(3)), (0, 2, 1))
    gg = GGroup(z2, z3, inv)
    assert h1_finite(gg).size == 1
    # Z/2 acting on Z/4 by inversion: H1 has 2 classes
    z4 = cyclic(4)
    gg2 = GGroup(z2, z4, (tuple(range(4)), (0, 3, 2, 1)))
    assert h1_finite(gg2).size == 2


def _enumeration_cases():
    """G-groups with one and two generators of G: trivial actions on the
    carriers of the sequence corpus, inversion and conjugation actions, and
    the twisted G-groups on the subgroups that twist_fiber_check builds."""
    z2, z4, v4 = cyclic(2), cyclic(4), klein_four()
    carriers = {}
    for _, ses in ses_corpus(z2):
        for gg in (ses.sub, ses.mid, ses.quot):
            carriers.setdefault(gg.carrier.table, gg.carrier)
    out = [
        (f"{gname} on {len(table)}: trivial", trivial_action(g, carrier))
        for gname, g in [*ACTING_GROUPS, ("Z4", z4)]
        for table, carrier in carriers.items()
    ]
    out += [(f"Z2 on {c.order}: inversion", _inversion(c)) for c in (z4, v4, cyclic(6))]
    d4, q8 = dihedral(4), quaternion8()
    out += [
        ("Z2 on S3: a transposition", conjugation_action(z2, symmetric(3), (0, 1))),
        ("Z2 on Q8: i", conjugation_action(z2, q8, (0, 2))),
        ("Z4 on Q8: i", conjugation_action(z4, q8, (0, 2, 1, 3))),
        # (a, b) -> r^(2a) s^b in D4, indices k + 4e for r^k s^e
        ("V4 on D4: r^2 and s", conjugation_action(v4, d4, (0, 4, 2, 6))),
    ]
    for gname, g in ACTING_GROUPS:
        sequences = ses_corpus(g) + (nontrivial_action_sequences() if gname == "Z2" else [])
        for name, ses in sequences:
            for phi in h1_finite(ses.mid).representatives:
                twisted, _ = twist_subgroup(ses.mid, ses.inclusion, phi)
                out.append((f"{gname}:{name} twisted by {phi}", twisted))
    return out


def test_enumerate_cocycles_matches_brute_force():
    cases = _enumeration_cases()
    assert {len(gg.group.word_tree[0]) for _, gg in cases} == {1, 2}
    for name, gg in cases:
        found = enumerate_cocycles(gg)
        assert len(found) == len(set(found)), name
        every = iproduct(range(gg.carrier.order), repeat=gg.group.order)
        assert set(found) == {v for v in every if is_cocycle(gg, v)}, name


def test_is_cocycle_matches_the_definition():
    g, a = klein_four(), dihedral(4)
    gg = conjugation_action(g, a, (0, 4, 2, 6))
    for v in iproduct(range(a.order), repeat=g.order):
        expected = all(
            v[g.op(s, t)] == a.op(v[s], gg.act(s, v[t])) for s in range(4) for t in range(4)
        )
        assert is_cocycle(gg, v) == expected, v


def test_ggroup_rejects_an_invalid_action():
    z2, z3 = cyclic(2), cyclic(3)
    ident, inversion = (0, 1, 2), (0, 2, 1)
    cases = [
        ((z2, z3, (ident,)), "need one automorphism per group element"),
        ((z2, z3, (ident, (0, 1, 1))), "action value is not a bijection"),
        # x -> x + 1 is a bijection of Z/3 but moves 0
        ((z2, z3, (ident, (1, 2, 0))), "action value is not an automorphism"),
        # the generator of Z/3 cannot act by inversion, of order 2
        ((z3, z3, (ident, inversion, inversion)), "action is not a homomorphism"),
        # the identity of G must act as the identity
        ((z2, z3, (inversion, inversion)), "action is not a homomorphism"),
    ]
    for args, message in cases:
        with pytest.raises(InvalidInput, match=message):
            GGroup(*args)


def test_abelian_ggroup_rejects_an_invalid_action():
    z2, z3 = cyclic(2), cyclic(3)
    z, z4 = FgAbelian(1, ()), FgAbelian(0, (4,))
    one, minus, two = ((1,),), ((-1,),), ((2,),)
    cases = [
        ((z2, z, (one,)), "need one matrix per group element"),
        ((z2, z, (one, ((1, 0), (0, 1)))), "matrix size does not match the module"),
        # the generator of Z/2 cannot go to the free generator of Z + Z/2,
        # nor to the generator of order 4 in Z/2 + Z/4
        ((z2, FgAbelian(1, (2,)), (((1, 0), (0, 1)), ((1, 1), (0, 1)))),
         "matrix does not respect torsion relations"),
        ((z2, FgAbelian(0, (2, 4)), (((1, 0), (0, 1)), ((1, 0), (1, 1)))),
         "matrix does not respect torsion relations"),
        # multiplication by 2 is not invertible on Z, nor on Z/4, where it
        # squares to 0
        ((z2, z, (one, two)), "action matrices are not invertible on the module"),
        ((z2, z4, (one, two)), "action matrices are not invertible on the module"),
        # the generator of Z/3 cannot act by -1, of order 2
        ((z3, z, (one, minus, minus)), "action is not a homomorphism"),
    ]
    for args, message in cases:
        with pytest.raises(InvalidInput, match=message):
            AbelianGGroup(*args)


def test_h1_abelian_examples():
    z2 = cyclic(2)
    m = FgAbelian(1, ())
    assert h1_abelian(AbelianGGroup(z2, m, (((1,),), ((1,),))))[0] == ()
    assert h1_abelian(AbelianGGroup(z2, m, (((1,),), ((-1,),))))[0] == (2,)
    m4 = FgAbelian(0, (4,))
    assert h1_abelian(AbelianGGroup(z2, m4, (((1,),), ((1,),))))[0] == (2,)


def test_abelian_class_of_refuses_a_non_cocycle():
    z2, m = cyclic(2), FgAbelian(1, ())
    # Z2 acting trivially on Z: Z^1 = Hom(Z2, Z) = 0
    class_of = cohomology._h1_smith(AbelianGGroup(z2, m, (((1,),), ((1,),))))[3]
    assert class_of(((0,), (0,))) == 0
    for bad in (((5,), (7,)), ((0,), (7,))):
        with pytest.raises(InvalidInput, match="not a cocycle of the module"):
            class_of(bad)
    # Z2 acting by -1 on Z: phi(s) = a is a cocycle in the class of a mod 2
    class_of = cohomology._h1_smith(AbelianGGroup(z2, m, (((1,),), ((-1,),))))[3]
    assert class_of(((0,), (3,))) == 1
    with pytest.raises(InvalidInput, match="not a cocycle of the module"):
        class_of(((1,), (3,)))


def test_h1_abelian_matches_finite_enumeration():
    # cross-check the lattice computation against brute force on Z/4
    z2 = cyclic(2)
    m4 = FgAbelian(0, (4,))
    factors, _ = h1_abelian(AbelianGGroup(z2, m4, (((1,),), ((1,),))))
    size_lattice = 1
    for f in factors:
        size_lattice *= f
    gg = trivial_action(z2, cyclic(4))
    assert size_lattice == h1_finite(gg).size


def _product_cyclic_carrier(factors):
    """The group Z/d1 x ... with mixed-radix index encoding, plus the radix."""
    g = cyclic(factors[0])
    for d in factors[1:]:
        g = direct_product(g, cyclic(d))
    return g


def _matrix_as_permutation(factors, mat):
    """The permutation a matrix induces on a finite product of cyclic groups."""
    from itertools import product as ip

    coords = list(ip(*[range(d) for d in factors]))
    pos = {c: i for i, c in enumerate(coords)}

    def apply(c):
        out = la.mat_vec(mat, c)
        return tuple(x % d for x, d in zip(out, factors))

    return tuple(pos[apply(c)] for c in coords)


def _permutation_matrix(p):
    """The matrix sending e_j to e_p[j]."""
    return tuple(tuple(int(p[j] == i) for j in range(len(p))) for i in range(len(p)))


# symmetric(3) lists its elements as the sorted permutations of 0, 1, 2
S3_PERMUTING = tuple(_permutation_matrix(p) for p in sorted(permutations(range(3))))
# dihedral(4) encodes r^k s^e as k + 4e: r the quarter turn, s a reflection
QUARTER_TURNS = (((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((0, 1), (-1, 0)))
D4_SQUARE = QUARTER_TURNS + tuple(la.mat_mul(r, ((1, 0), (0, -1))) for r in QUARTER_TURNS)
SWAP = ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "g,factors,mat",
    [
        (2, (4,), ((1,),)),
        (2, (4,), ((-1,),)),
        (3, (3,), ((1,),)),
        (2, (2, 4), ((1, 0), (0, 1))),
        (2, (2, 4), ((-1, 0), (0, -1))),
        (2, (2, 4), ((1, 0), (2, -1))),
        (4, (5,), ((2,),)),  # order-4 automorphism of Z/5
        pytest.param(symmetric(3), (2, 2, 2), S3_PERMUTING, id="S3-on-Z2^3"),
        pytest.param(symmetric(3), (3, 3, 3), S3_PERMUTING, id="S3-on-Z3^3"),
        pytest.param(
            klein_four(), (2, 2), (la.identity_matrix(2),) * 2 + (SWAP,) * 2,
            id="V4-on-Z2^2",
        ),
        pytest.param(dihedral(4), (4, 4), D4_SQUARE, id="D4-on-Z4^2"),
    ],
)
def test_h1_dual_route_finite_vs_lattice(g, factors, mat):
    """The exhaustive-table route and the integer-lattice route must agree
    on every finite abelian carrier.  g is the order of a cyclic group and
    mat the matrix of its generator, or g is a group and mat its action
    matrices, one per element."""
    assert all(
        factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1)
    ), "test data must list factors in divisibility order"
    module = FgAbelian(0, tuple(factors))
    if isinstance(g, int):
        # matching actions on both sides: powers of the same matrix
        mats = [la.identity_matrix(len(factors))]
        for _ in range(g - 1):
            mats.append(la.mat_mul(mat, mats[-1]))
        g = cyclic(g)
    else:
        mats = mat
    agg = AbelianGGroup(g, module, tuple(mats))
    lattice_factors, _ = h1_abelian(agg)
    size_lattice = 1
    for f in lattice_factors:
        size_lattice *= f
    carrier = _product_cyclic_carrier(factors)
    perms = tuple(_matrix_as_permutation(factors, m) for m in mats)
    gg = GGroup(g, carrier, perms)
    assert h1_finite(gg).size == size_lattice


def test_h1_abelian_representatives_are_cocycles():
    z2 = cyclic(2)
    m = FgAbelian(1, (2,))
    act = (la.identity_matrix(2), ((-1, 0), (0, 1)))
    agg = AbelianGGroup(z2, m, act)
    factors, reps = h1_abelian(agg)
    for rep in reps:
        # cocycle condition phi(st) = phi(s) + s.phi(t) on all pairs
        for s in range(2):
            for t in range(2):
                st = z2.op(s, t)
                lhs = rep[st]
                rhs = m.normalize(
                    tuple(
                        a + b
                        for a, b in zip(rep[s], la.mat_vec(act[s], rep[t]))
                    )
                )
                assert m.normalize(lhs) == rhs


# --- twisting -----------------------------------------------------------------------


def test_twist_by_trivial_cocycle_is_original():
    z2 = cyclic(2)
    s3 = symmetric(3)
    amb = trivial_action(z2, s3)
    tw, embed = twist_subgroup(amb, range(6), (0, 0))
    assert tw.action == amb.action


def test_equivalent_cocycles_give_isomorphic_twists():
    z2 = cyclic(2)
    s3 = symmetric(3)
    amb = trivial_action(z2, s3)
    h1 = h1_finite(amb)
    for z1 in h1.cocycles:
        for z2_ in h1.cocycles:
            w = cocycles_equivalent(amb, z1, z2_)
            if w is None:
                continue
            t1, embed = twist_subgroup(amb, range(6), z1)
            t2, _ = twist_subgroup(amb, range(6), z2_)
            # conjugation by the witness intertwines the two actions:
            # x -> w^-1 x w maps the z1-twist to the z2-twist
            winv = s3.inv(w)
            for s in range(2):
                for x in range(6):
                    lhs = s3.op(s3.op(winv, t1.act(s, s3.op(w, s3.op(x, winv)))), w)
                    assert lhs == t2.act(s, x)


def test_twist_rejects_non_normal_and_non_stable():
    z2 = cyclic(2)
    s3 = symmetric(3)
    amb = trivial_action(z2, s3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    sub = s3.closure({transposition})
    with pytest.raises(NotNormal):
        twist_subgroup(amb, sub, (0, 0))
    # G-stability: Z/2 swapping the factors of V4 does not stabilize a factor
    from klein_lattice.errors import NotStable

    v4 = klein_four()
    swap = (0, 2, 1, 3)  # (a, b) -> (b, a) in the a*2+b encoding
    gg = GGroup(z2, v4, (tuple(range(4)), swap))
    with pytest.raises(NotStable):
        twist_subgroup(gg, {0, 2}, (0, 0))


def test_twist_double_inverse_recovers_original():
    # twisting by phi and then by the inverse cocycle of the twisted group
    z2 = cyclic(2)
    s3 = symmetric(3)
    amb = trivial_action(z2, s3)
    for phi in h1_finite(amb).cocycles:
        tw, _ = twist_subgroup(amb, range(6), phi)
        phi_inv = tuple(s3.inv(phi[s]) for s in range(2))
        if not is_cocycle(tw, phi_inv):
            continue
        back, _ = twist_subgroup(tw, range(6), phi_inv)
        assert back.action == amb.action


# --- exact sequences -----------------------------------------------------------------


@pytest.mark.parametrize("gname,g", ACTING_GROUPS)
def test_les_exactness_corpus(gname, g):
    for name, ses in ses_corpus(g):
        rep = les_of_pointed_sets(ses)
        assert all(rep.exact_at.values()), (gname, name, rep.exact_at)
        # the explicit maps compose through the base points
        assert set(rep.maps["h1_sub_to_mid"]) == set(range(rep.h1_sub.size))
        base_q = rep.h1_quot.class_of(
            tuple([ses.quot.carrier.identity] * g.order)
        )
        for i, j in rep.maps["h1_sub_to_mid"].items():
            assert rep.maps["h1_mid_to_quot"][j] == base_q


def nontrivial_action_sequences():
    """Short exact sequences with a genuinely nontrivial Z/2-action, to
    exercise the g.a terms in the cocycle conditions and orbit formulas."""
    z2 = cyclic(2)
    out = []
    # inversion on 1 -> Z/3 -> Z/6 -> Z/2 -> 1 (inversion is trivial on Z/2)
    z3, z6 = cyclic(3), cyclic(6)
    inv3 = GGroup(z2, z3, (tuple(range(3)), (0, 2, 1)))
    inv6 = GGroup(z2, z6, (tuple(range(6)), (0, 5, 4, 3, 2, 1)))
    triv2 = trivial_action(z2, z2)
    out.append(
        (
            "Z3-Z6-Z2 inversion",
            ShortExactSequence(inv3, inv6, triv2, (0, 2, 4), (0, 1, 0, 1, 0, 1)),
        )
    )
    # conjugation by a transposition on 1 -> A3 -> S3 -> Z/2 -> 1
    s3, a3_g, embed, proj = s3_sign_sequence()
    tau = next(x for x in range(6) if s3.element_order(x) == 2)
    conj_s3 = GGroup(
        z2,
        s3,
        (tuple(range(6)), tuple(s3.conj(tau, x) for x in range(6))),
    )
    pos = {e: i for i, e in enumerate(embed)}
    conj_a3 = GGroup(
        z2,
        a3_g,
        (
            tuple(range(3)),
            tuple(pos[s3.conj(tau, e)] for e in embed),
        ),
    )
    out.append(
        (
            "A3-S3-Z2 conj",
            ShortExactSequence(conj_a3, conj_s3, triv2, embed, proj),
        )
    )
    # conjugation by a reflection on 1 -> center -> D4 -> V4 -> 1
    d4 = dihedral(4)
    quot, proj_d4 = d4.quotient_group({0, 2})
    refl = 4
    conj_d4 = GGroup(
        z2, d4, (tuple(range(8)), tuple(d4.conj(refl, x) for x in range(8)))
    )
    # induced action on the quotient
    reps = [None] * quot.order
    for x in range(8):
        if reps[proj_d4[x]] is None:
            reps[proj_d4[x]] = x
    quot_act = tuple(proj_d4[d4.conj(refl, reps[i])] for i in range(quot.order))
    conj_quot = GGroup(z2, quot, (tuple(range(quot.order)), quot_act))
    out.append(
        (
            "Z2-D4-V4 conj",
            ShortExactSequence(
                trivial_action(z2, cyclic(2)), conj_d4, conj_quot, (0, 2), proj_d4
            ),
        )
    )
    return out


def test_les_and_fibers_with_nontrivial_actions():
    for name, ses in nontrivial_action_sequences():
        rep = les_of_pointed_sets(ses)
        assert all(rep.exact_at.values()), (name, rep.exact_at)
        for phi in rep.h1_mid.representatives:
            out = twist_fiber_check(ses, phi)
            assert out["bijection"], (name, out)


def test_les_and_fibers_classify_mid_and_quot_once(monkeypatch):
    from klein_lattice import cohomology

    classified = []
    real = cohomology.h1_finite
    monkeypatch.setattr(
        cohomology, "h1_finite", lambda gg: classified.append(gg) or real(gg)
    )
    for name, ses in nontrivial_action_sequences():
        classified.clear()
        rep = les_of_pointed_sets(ses)
        for phi in rep.h1_mid.representatives:
            twist_fiber_check(ses, phi)
        assert sum(gg is ses.mid for gg in classified) == 1, name
        assert sum(gg is ses.quot for gg in classified) == 1, name


def test_les_maps_copy_the_cached_class_map():
    z2 = cyclic(2)
    ses = make_ses(z2, cyclic(2), cyclic(4), cyclic(2), (0, 2), (0, 1, 0, 1))
    assert ses.lift == (0, 1)
    rep = les_of_pointed_sets(ses)
    assert rep.maps["h1_mid_to_quot"] == ses.h1_mid_to_quot
    rep.maps["h1_mid_to_quot"].clear()
    assert ses.h1_mid_to_quot and les_of_pointed_sets(ses).maps["h1_mid_to_quot"]


def test_twist_fiber_check_rejects_out_of_range_phi():
    z2 = cyclic(2)
    ses = make_ses(z2, cyclic(2), cyclic(4), cyclic(2), (0, 2), (0, 1, 0, 1))
    for phi in ((0, 99), (0, -1)):
        with pytest.raises(InvalidInput):
            twist_fiber_check(ses, phi)


def test_les_rejects_non_exact_input():
    z2 = cyclic(2)
    z4 = cyclic(4)
    with pytest.raises(NotExactInput):
        ShortExactSequence(
            trivial_action(z2, z2),
            trivial_action(z2, z4),
            trivial_action(z2, z2),
            (0, 1),  # not the kernel of the projection
            (0, 1, 0, 1),
        )


def test_split_sequence_connecting_map_is_trivial():
    z2 = cyclic(2)
    v4 = klein_four()
    ses = make_ses(z2, cyclic(2), v4, cyclic(2), (0, 2), (0, 1, 0, 1))
    rep = les_of_pointed_sets(ses)
    from klein_lattice.cohomology import connecting_map

    base = rep.h1_sub.class_of((0, 0))
    for x in rep.h0_quot:
        assert rep.h1_sub.class_of(connecting_map(ses, x)) == base
    for x in (-1, 2):
        with pytest.raises(InvalidInput):
            connecting_map(ses, x)


@pytest.mark.parametrize("gname,g", ACTING_GROUPS)
def test_twist_fiber_bijection_corpus(gname, g):
    for name, ses in ses_corpus(g):
        h1 = h1_finite(ses.mid)
        for phi in h1.representatives:
            out = twist_fiber_check(ses, phi)
            assert out["bijection"], (gname, name, out)


def test_trusted_ggroups_pass_the_validating_constructor(monkeypatch):
    """Every G-group that the library builds without checks, over the
    corpus: the trivial actions, the twisted G-group of every H^1
    representative and the kernel actions of the real-structure classifier.
    Each is checked as it is built, before the library uses it."""
    built = []
    trusted = cohomology._trusted_ggroup

    def checked(group, carrier, action):
        value = trusted(group, carrier, action)
        assert GGroup(group, carrier, action) == value
        built.append(value)
        return value

    monkeypatch.setattr(cohomology, "_trusted_ggroup", checked)
    sequences = [s for _, g in ACTING_GROUPS for s in ses_corpus(g)]
    for _, ses in sequences + nontrivial_action_sequences():
        for phi in les_of_pointed_sets(ses).h1_mid.representatives:
            twist_fiber_check(ses, phi)
            twist_subgroup(ses.mid, ses.inclusion, phi)
    for _, maker, _ in SHIPPED_KLEIN_GROUPS:
        real_structure_classifier(maker())
    assert any(set(v.action) == {tuple(range(v.carrier.order))} for v in built)
    assert any(set(v.action) != {tuple(range(v.carrier.order))} for v in built)


# --- conjugacy classes of finite subgroups ---------------------------------------------


def test_lemma_style_hom_count_consistency():
    """Conjugacy classes of subgroups isomorphic to a fixed G match the
    injective classes in Hom(G, A)/conj, exhaustively for small A."""
    for a in (symmetric(3), dihedral(4), quaternion8(), symmetric(4)):
        for g in (cyclic(2), cyclic(3), cyclic(4)):
            gg = trivial_action(g, a)
            h1 = h1_finite(gg)
            injective_classes = 0
            for rep in h1.representatives:
                if len(set(rep)) == g.order:
                    injective_classes += 1
            iso_classes = 0
            for sub in a.subgroups_up_to_conjugacy():
                if len(sub) != g.order:
                    continue
                sub_g, _ = a.subgroup_group(sub)
                if _isomorphic(g, sub_g):
                    iso_classes += 1
            # each subgroup class isomorphic to G is hit by the same number
            # of injective hom classes (isomorphisms modulo the normalizer)
            per_class = _distinct_embeddings(g, a, _automorphism_count(g))
            assert injective_classes == iso_classes * per_class


def _isomorphic(g1, g2):
    if g1.order != g2.order:
        return False
    orders1 = sorted(g1.element_order(x) for x in range(g1.order))
    orders2 = sorted(g2.element_order(x) for x in range(g2.order))
    if orders1 != orders2:
        return False
    # small orders: order profile identifies groups up to order 8 except
    # (Z4 x Z2 vs D4 vs Q8) which differ in profile anyway; accept profile
    return True


def _automorphism_count(g):
    count = 0
    from itertools import permutations

    for perm in permutations(range(g.order)):
        if perm[g.identity] != g.identity:
            continue
        if all(
            perm[g.op(a, b)] == g.op(perm[a], perm[b])
            for a in range(g.order)
            for b in range(g.order)
        ):
            count += 1
    return count


def _distinct_embeddings(g, a, aut_order):
    """Injective hom classes per subgroup class: |Aut(G)| / |induced normalizer
    action| -- computed directly by counting."""
    gg = trivial_action(g, a)
    h1 = h1_finite(gg)
    inj = [rep for rep in h1.representatives if len(set(rep)) == g.order]
    images = {}
    for rep in inj:
        img = frozenset(rep)
        canon = min(
            frozenset(a.conj(c, x) for x in img) for c in range(a.order)
        )
        images.setdefault(canon, 0)
        images[canon] += 1
    if not images:
        return 1
    counts = set(images.values())
    assert len(counts) == 1, images
    return counts.pop()


def test_matrix_group_dihedral_classes(dihedral_group):
    classes, flag = finite_subgroup_classes_matrix(dihedral_group)
    assert flag == "BoundedSearch"
    assert len(classes) == 3
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 2, 2]


def test_closure_of_two_reflections_aborts_at_bound(dihedral_group):
    # two distinct reflections generate the infinite dihedral group
    ident = la.identity_matrix(2)
    r1, r2 = [m for m, order in torsion_elements(dihedral_group) if order == 2][:2]
    assert subgroup_closure((r1,), la.mat_mul, ident, bound=64) == {ident, r1}
    assert subgroup_closure((r1, r2), la.mat_mul, ident, bound=64) is None


def test_extension_subgroups_closes_each_generating_set_once(monkeypatch, dihedral_group):
    # a closure depends only on its generating set, so closing one twice is
    # wasted work; S4 is built before the wrap, since its rule closes too
    s4 = symmetric(4)
    closed = []
    real = cohomology.subgroup_closure

    def recording(gens, *args):
        closed.append(frozenset(gens))
        return real(gens, *args)

    monkeypatch.setattr(cohomology, "subgroup_closure", recording)
    classes, _ = finite_subgroup_classes_matrix(dihedral_group)
    assert len(classes) == 3
    assert closed and len(closed) - len(set(closed)) == 0
    closed.clear()
    assert len(s4.subgroups_up_to_conjugacy()) == 11
    assert closed and len(closed) - len(set(closed)) == 0


def test_extension_subgroups_close_from_generators(monkeypatch, dihedral_group):
    # each closure walks from the generators a subgroup was reached by plus
    # one candidate, not from all of its elements: closing from every
    # element took 47,810 and 51,300 products here
    s4 = symmetric(4)
    products = [0]
    real = cohomology.subgroup_closure

    def counting(gens, mul, *args):
        def counted(x, y):
            products[0] += 1
            return mul(x, y)

        return real(gens, counted, *args)

    monkeypatch.setattr(cohomology, "subgroup_closure", counting)
    assert len(finite_subgroup_classes_matrix(dihedral_group)[0]) == 3
    assert 0 < products[0] <= 32_000
    products[0] = 0
    assert len(s4.subgroups_up_to_conjugacy()) == 11
    assert 0 < products[0] <= 20_000


# sha256 of the JSON of the sorted elements of each subgroup, in
# all_subgroups() order, recorded when every closure started from all of
# the subgroup's elements
PINNED_SUBGROUPS = {
    "S3": "baf6425cb23a1407d826534a606424fa1e054f8767cb1fd6ae97533c3758f963",
    "D4": "d73dfaf5a0712c9abe3e5fa739f59e64419afa5437458b66a4b0147e039f07e5",
    "Q8": "365708f3d9e329ad9c2e943f19b0880fd198cfaa19fcc370dc3234b7a5f0094e",
    "S4": "776ab8a87ebe91e8a956dd1c38aca483fc4ea84f279aa7cc0f43b9797cb00cfe",
    "D6": "577be2ff839811bee2f3913f444abd36d1a154acfbfb548334ce19e2916ce53d",
    "Z2xS3": "cc348462578e3fca8f100005ca685ed293bd65836e63c8bba4b833c129baf462",
    "Z2xZ4": "8329117a166ee62b9e3eef8f219e85536aa652e401ecf060f8351ec90008f28c",
}

PINNED_SUBGROUP_GROUPS = {
    "S3": lambda: symmetric(3),
    "D4": lambda: dihedral(4),
    "Q8": quaternion8,
    "S4": lambda: symmetric(4),
    "D6": lambda: dihedral(6),
    "Z2xS3": lambda: direct_product(cyclic(2), symmetric(3)),
    "Z2xZ4": lambda: direct_product(cyclic(2), cyclic(4)),
}


@pytest.mark.parametrize("name", sorted(PINNED_SUBGROUPS))
def test_all_subgroups_are_pinned(name):
    subgroups = [sorted(h) for h in PINNED_SUBGROUP_GROUPS[name]().all_subgroups()]
    digest = hashlib.sha256(json.dumps(subgroups).encode()).hexdigest()
    assert digest == PINNED_SUBGROUPS[name]


def generating_tuple(h, mul, identity, rng):
    """A tuple of elements of the finite subgroup h that generates it, each
    one outside the span of those before it, in a random order."""
    gens = ()
    span = {identity}
    for x in rng.sample(sorted(h), len(h)):
        if x not in span:
            gens += (x,)
            span = subgroup_closure(gens, mul, identity)
    assert span == h
    return gens


def assert_generators_close_as_elements(subgroups, candidates, mul, identity, seed, **limits):
    rng = random.Random(seed)
    outcomes = set()
    for h in subgroups:
        gens = generating_tuple(h, mul, identity, rng)
        for t in candidates:
            k = subgroup_closure(gens + (t,), mul, identity, **limits)
            assert k == subgroup_closure(tuple(h | {t}), mul, identity, **limits)
            outcomes.add(k is None)
    return outcomes


@pytest.mark.parametrize("seed", [1, 2])
def test_a_generating_tuple_closes_to_the_same_subgroup(seed, dihedral_group):
    # <gens(h), t> = <h, t>, and the walk gives up in the same cases
    s4 = symmetric(4)
    outcomes = assert_generators_close_as_elements(
        s4.all_subgroups(), range(s4.order), s4.op, s4.identity, seed
    )
    assert outcomes == {False}
    ident = la.identity_matrix(2)
    torsion = [m for m, _ in torsion_elements(dihedral_group)]
    subgroups = extension_subgroups(torsion, la.mat_mul, ident, bound=64)
    outcomes = assert_generators_close_as_elements(
        subgroups, torsion, la.mat_mul, ident, seed, bound=64
    )
    assert outcomes == {False, True}
    allowed = frozenset([ident] + random.Random(seed).sample(torsion, len(torsion) // 2))
    subgroups = extension_subgroups(torsion, la.mat_mul, ident, allowed=allowed)
    outcomes = assert_generators_close_as_elements(
        subgroups, torsion, la.mat_mul, ident, seed, allowed=allowed
    )
    assert outcomes == {False, True}


def test_torsion_elements_respect_the_order_bound():
    # the 25-cycle on I_25 has order 25, one past the default bound of 24
    n = 25
    lat = IntegerLattice(la.identity_matrix(n))
    cycle = tuple(tuple(int(i == (j + 1) % n) for j in range(n)) for i in range(n))
    gamma = GeneratedGroup(lat, (Isometry(lat, cycle),), word_bound=1)
    assert [order for _, order in torsion_elements(gamma)] == [1]
    assert [order for _, order in torsion_elements(gamma, order_bound=25)] == [1, 25, 25]


def test_matrix_group_pell_torsion_free(pell_group):
    classes, _ = finite_subgroup_classes_matrix(pell_group)
    assert len(classes) == 1


def test_trivial_group_classes():
    t = FiniteGroup(((0,),))
    assert t.subgroups_up_to_conjugacy() == [frozenset({0})]


# --- filtration driver ---------------------------------------------------------------


def test_filtration_finite_single_layer_reduces_to_h1():
    z2 = cyclic(2)
    s3 = symmetric(3)
    gg = trivial_action(z2, s3)
    out = filtration_driver_finite(s3, [], gg)
    assert out["h1_size"] == h1_finite(gg).size == 2
    assert out["finite_subgroup_order_bound"] == 6


def test_filtration_finite_with_chain():
    z2 = cyclic(2)
    s3 = symmetric(3)
    a3 = sorted(x for x in range(6) if s3.element_order(x) in (1, 3))
    gg = trivial_action(z2, s3)
    out = filtration_driver_finite(s3, [a3], gg)
    assert out["h1_size"] == 2
    assert [layer["quotient_order"] for layer in out["per_layer"]] == [2, 3]


def test_filtration_not_normal_control():
    z2 = cyclic(2)
    s3 = symmetric(3)
    gg = trivial_action(z2, s3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    with pytest.raises(NotNormal):
        filtration_driver_finite(s3, [s3.closure({transposition})], gg)


def test_filtration_split_dinfinity():
    z2 = cyclic(2)
    spec = SplitExtensionSpec(FgAbelian(1, ()), cyclic(2), (((1,),), ((-1,),)))
    out = filtration_driver_split(spec, z2)
    assert out["h1_size"] == 3
    assert out["finite_subgroup_order_bound"] == 2
    assert sorted(f["fiber_size"] for f in out["fibers"]) == [1, 2]
    assert len(out["representatives"]) == 3


def test_filtration_split_agrees_with_matrix_classes(dihedral_group):
    # H1(Z/2, D-infinity_triv) classes match the conjugacy classes of finite
    # subgroups computed on matrices: 3 on both sides
    z2 = cyclic(2)
    spec = SplitExtensionSpec(FgAbelian(1, ()), cyclic(2), (((1,),), ((-1,),)))
    out = filtration_driver_split(spec, z2)
    classes, _ = finite_subgroup_classes_matrix(dihedral_group)
    assert out["h1_size"] == len(classes)


def reference_split_orbits(spec, g, rep):
    """Centralizer orbits on the listed classes of H^1(G, K_rep), by the
    pairwise-equivalence walk that compares each moved cocycle with every
    listed class outside the orbit."""
    q_group, m = spec.quotient, spec.kernel_module
    k_agg = AbelianGGroup(g, m, tuple(spec.q_action[rep[s]] for s in range(g.order)))
    elements, _ = h1_abelian_elements(k_agg)
    centralizer = [
        q for q in range(q_group.order)
        if all(q_group.conj(rep[s], q) == q for s in range(g.order))
    ]
    orbits, assigned = [], set()
    for idx, theta in enumerate(elements):
        if idx in assigned:
            continue
        orbit, frontier = {idx}, [theta]
        while frontier:
            cur = frontier.pop()
            for q in centralizer:
                qinv = q_group.inv(q)
                moved = tuple(
                    m.normalize(la.mat_vec(spec.q_action[qinv], v)) for v in cur
                )
                for jdx, other in enumerate(elements):
                    if jdx not in orbit and cocycles_equivalent_abelian(
                        k_agg, moved, other
                    ) is not None:
                        orbit.add(jdx)
                        frontier.append(other)
        assigned |= orbit
        orbits.append(sorted(orbit))
    return elements, orbits


ROTATION3 = ((0, -1), (1, -1))  # order 3 on Z^2
SPLIT_CASES = {
    # Q = Z/2 swaps the two factors of (Z/2)^2; the swap merges two of the
    # four classes over the trivial quotient class
    "swap": (FgAbelian(0, (2, 2)), cyclic(2), ((0, 1), (1, 0)), cyclic(2),
             [((0, 0), (2, 2), 3), ((0, 1), (), 1)]),
    "free-and-torsion": (FgAbelian(1, (2,)), cyclic(2), ((-1, 0), (1, 1)), cyclic(2),
                         [((0, 0), (2,), 2), ((0, 1), (2,), 2)]),
    "swap-over-V4": (FgAbelian(0, (2, 2)), cyclic(2), ((0, 1), (1, 0)), klein_four(),
                     [((0, 0, 0, 0), (2, 2, 2, 2), 10), ((0, 0, 1, 1), (2,), 2),
                      ((0, 1, 0, 1), (2,), 2), ((0, 1, 1, 0), (2,), 2)]),
    "Z2xZ4": (FgAbelian(0, (2, 4)), cyclic(2), ((1, 0), (2, -1)), cyclic(2),
              [((0, 0), (2, 2), 3), ((0, 1), (2,), 2)]),
    "rotation": (FgAbelian(2, ()), cyclic(3), ROTATION3, cyclic(3),
                 [((0, 0, 0), (), 1), ((0, 1, 2), (3,), 3), ((0, 2, 1), (3,), 3)]),
}


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_filtration_split_orbits_merge_classes(name):
    # the driver's class lookups against the pairwise-equivalence walk
    module, q, generator, g, fibers = SPLIT_CASES[name]
    q_action = [la.identity_matrix(module.dim)]
    for _ in range(q.order - 1):
        q_action.append(la.mat_mul(q_action[-1], generator))
    spec = SplitExtensionSpec(module, q, tuple(q_action))
    out = filtration_driver_split(spec, g)
    assert [
        (f["quotient_class"], f["h1_kernel_factors"], f["fiber_size"])
        for f in out["fibers"]
    ] == fibers
    want = []
    for f in out["fibers"]:
        rep = f["quotient_class"]
        elements, orbits = reference_split_orbits(spec, g, rep)
        assert f["fiber_size"] == len(orbits)
        want += [tuple(zip(elements[o[0]], rep)) for o in orbits]
    assert out["h1_size"] == len(want)
    assert out["representatives"] == want


def test_abelian_equivalence_witness():
    z2 = cyclic(2)
    m = FgAbelian(1, ())
    agg = AbelianGGroup(z2, m, (((1,),), ((-1,),)))
    # phi(s) = 0 and psi(s) = 2 differ by the coboundary of a = -1
    phi = ((0,), (0,))
    psi = ((0,), (2,))
    assert cocycles_equivalent_abelian(agg, phi, psi) is not None
    chi = ((0,), (1,))
    assert cocycles_equivalent_abelian(agg, phi, chi) is None


# --- real structures --------------------------------------------------------------------


@pytest.mark.parametrize("name,maker,expected", SHIPPED_KLEIN_GROUPS)
def test_real_structure_classifier(name, maker, expected):
    kg = maker()
    out = real_structure_classifier(kg)
    assert out["paths_agree"], (name, out)
    assert out["h1_size"] == expected
    assert len(out["direct_classes"]) == expected
    assert out["k_conjugacy_equals_kernel_conjugacy"]


def test_classifier_independent_of_sigma_choice():
    # the class count does not depend on which anti-involution anchors the
    # cohomological description
    d4 = dihedral(4)
    eps = tuple(1 if i < 4 else -1 for i in range(8))
    counts = set()
    for sigma in range(4, 8):
        out = real_structure_classifier(KleinGroupData(d4, eps, sigma))
        assert out["paths_agree"]
        counts.add(len(out["direct_classes"]))
    assert counts == {2}


def test_no_anti_involution():
    with pytest.raises(NoAntiInvolution):
        KleinGroupData(cyclic(4), (1, -1, 1, -1), 1)
    q8 = quaternion8()
    eps = tuple(1 if x in (0, 1, 2, 3) else -1 for x in range(8))
    with pytest.raises(NoAntiInvolution):
        KleinGroupData(q8, eps, 4)  # j has order 4, not an involution


# --- inner twist -----------------------------------------------------------------------


def test_inner_twist_sigma_central():
    z4 = cyclic(4)
    rep = inner_twist_bijection(cyclic(2), z4, range(4), 2)
    assert rep["mode"] == "canonical" and rep["bijection_holds"]
    assert rep["h1_inner_size"] == rep["h1_trivial_size"]


def test_inner_twist_s3_transposition():
    s3 = symmetric(3)
    tau = next(x for x in range(6) if s3.element_order(x) == 2)
    rep = inner_twist_bijection(cyclic(2), s3, range(6), tau)
    assert rep["mode"] == "canonical"
    assert rep["bijection_holds"]
    assert rep["h1_inner_size"] == 2 and rep["h1_trivial_size"] == 2


def test_inner_twist_z4_in_d4():
    d4 = dihedral(4)
    rep = inner_twist_bijection(cyclic(2), d4, range(4), 4)
    assert rep["mode"] == "cardinality"
    assert rep["bijection_holds"]
    assert rep["h1_inner_size"] == 2 and rep["h1_trivial_size"] == 2
    assert not rep["sigma_in_subgroup"]


def test_inner_twist_rejects_out_of_range_elements():
    s3 = symmetric(3)
    for sub, sigma in ((range(6), -1), (range(6), 99), ([0, 99], 1)):
        with pytest.raises(InvalidInput):
            inner_twist_bijection(cyclic(2), s3, sub, sigma)


def test_inner_twist_needs_a_cyclic_acting_group():
    s3 = symmetric(3)
    with pytest.raises(NotInner):
        inner_twist_bijection(klein_four(), s3, range(6), 1)
    rep = inner_twist_bijection(cyclic(1), s3, range(6), 1)
    assert rep["mode"] == "canonical" and rep["bijection_holds"]
    assert rep["h1_inner_size"] == rep["h1_trivial_size"] == 1


def test_inner_twist_not_inner():
    d4, s3 = dihedral(4), symmetric(3)
    cases = [
        # the subgroup {r0, r2, s, sr2} is normalized by everything; pick
        # instead a subgroup not normalized by sigma: <s> = {0+4} under conj
        # by r (idx 1)
        ((d4, {0, 4}, 1), "sigma does not normalize the subgroup"),
        # conjugation by a 3-cycle of S3 has order 3, so Z/2 cannot act by it
        ((s3, range(6), 3), "conjugation by sigma is not a valid G-action"),
        ((s3, range(6), 4), "conjugation by sigma is not a valid G-action"),
    ]
    assert s3.element_order(3) == s3.element_order(4) == 3
    for args, message in cases:
        with pytest.raises(NotInner, match=message):
            inner_twist_bijection(cyclic(2), *args)

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are exact (integer/rational equality); time limits are stated
in the criteria and comfortably met.
"""

import random
import time
from fractions import Fraction

import pytest

from klein_lattice import intlinalg as la
from klein_lattice.cohomology import (
    AbelianGGroup,
    FgAbelian,
    cyclic,
    finite_subgroup_classes_matrix,
    h1_abelian,
    h1_finite,
    inner_twist_bijection,
    les_of_pointed_sets,
    real_structure_classifier,
    trivial_action,
    twist_fiber_check,
)
from klein_lattice.cones import (
    PositiveCone,
    dirichlet_domain,
    find_trivial_stabilizer_point,
    siegel_intersections,
    verify_fundamental_domain,
)
from klein_lattice.hodge import (
    anti_invariant_class,
    classify_finite_subgroups_on_cone,
    hilbert_square_extension,
)
from klein_lattice.isometry import (
    GeneratedGroup,
    Isometry,
    fixes_pointwise_implies_identity,
)
from klein_lattice.lattice import (
    IntegerLattice,
    K3,
    Sublattice,
    classify_type,
    discriminant_group,
    signature,
)

from test_cohomology import ACTING_GROUPS, SHIPPED_KLEIN_GROUPS, ses_corpus
from test_hodge import SHIPPED, hilbert_kahler_model
from test_lattice import char_poly_sign_counts, rand_sym


def _report(num, name, started):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_lattice_suite():
    started = time.monotonic()
    assert signature(K3()).as_tuple() == (3, 0, 19)
    for n in range(2, 7):
        dg = discriminant_group(IntegerLattice(((-2 * (n - 1),),)))
        assert dg.invariant_factors == (2 * (n - 1),)
    rng = random.Random(101)
    for _ in range(100):
        k = rng.randint(1, 6)
        gram = rand_sym(rng, k)
        lat = IntegerLattice(gram)
        pos, zero, neg = char_poly_sign_counts(gram)
        expected = {
            (1, 0, k - 1): "Hyperbolic",
            (0, 0, k): "Elliptic",
            (0, 1, k - 1): "Parabolic",
        }.get((pos, zero, neg), "Other")
        assert classify_type(lat).value == expected
    assert time.monotonic() - started < 5
    _report(1, "lattice suite", started)


def test_criterion_2_cohomology_oracle_equivalence():
    started = time.monotonic()
    for gname, g in ACTING_GROUPS:
        for name, ses in ses_corpus(g):
            rep = les_of_pointed_sets(ses)
            assert all(rep.exact_at.values()), (gname, name)
            for phi in rep.h1_mid.representatives:
                out = twist_fiber_check(ses, phi)
                assert out["bijection"], (gname, name, out)
    assert time.monotonic() - started < 120
    _report(2, "cohomology oracle equivalence", started)


def _random_finite_order_action(rng, module, max_order=6):
    """Rejection-sample an automorphism of the module with order <= max_order."""
    dim = module.dim
    for _ in range(200):
        mat = tuple(
            tuple(rng.randint(-1, 1) for _ in range(dim)) for _ in range(dim)
        )
        try:
            # validity: respects relations and is invertible of small order
            power = mat
            order = 1
            ident = la.identity_matrix(dim)
            ok = False
            while order <= max_order:
                if _module_equal(module, power, ident):
                    ok = True
                    break
                power = la.mat_mul(power, mat)
                order += 1
            if not ok:
                continue
            return mat, order
        except Exception:
            continue
    return la.identity_matrix(dim), 1


def _module_equal(module, m1, m2):
    r = module.free_rank
    for i in range(module.dim):
        for j in range(module.dim):
            diff = m1[i][j] - m2[i][j]
            if i < r:
                if diff != 0:
                    return False
            elif diff % module.torsion[i - r] != 0:
                return False
    return True


def test_criterion_3_torsion_law():
    started = time.monotonic()
    rng = random.Random(202)
    module_shapes = [
        (1, ()), (2, ()), (0, (2,)), (0, (4,)), (1, (2,)), (0, (2, 2)),
        (2, (2,)), (0, (3,)), (1, (4,)), (0, (2, 4)), (3, ()), (2, (2,)),
    ]
    checked = 0
    while checked < 50:
        free, torsion = module_shapes[checked % len(module_shapes)]
        module = FgAbelian(free, torsion)
        mat, order = _random_finite_order_action(rng, module)
        g = cyclic(order)
        action = []
        power = la.identity_matrix(module.dim)
        for _ in range(order):
            action.append(power)
            power = la.mat_mul(mat, power)
        try:
            agg = AbelianGGroup(g, module, tuple(action))
        except Exception:
            continue
        factors, _ = h1_abelian(agg)
        for f in factors:
            assert g.order % f == 0, (module, mat, factors)
        checked += 1
    assert checked >= 50
    assert time.monotonic() - started < 30
    _report(3, "torsion law |G| * H1 = 0", started)


def test_criterion_4_fundamental_domain(pell_group, pell_cone):
    started = time.monotonic()
    cert20 = dirichlet_domain(pell_group, pell_cone, (1, 0), word_bound=20)
    assert cert20.stabilization_depth <= 2
    cert5 = dirichlet_domain(pell_group, pell_cone, (1, 0), word_bound=5)
    assert frozenset(cert5.halfspaces) == frozenset(cert20.halfspaces)
    report, _ = verify_fundamental_domain(
        cert20, samples=1000, seed=20260808, disjoint_word_len=8
    )
    assert report["covering"]["status"] == "pass"
    assert report["disjointness"]["status"] == "pass"
    assert report["disjointness"]["checked"] == 16  # words of length <= 8
    assert time.monotonic() - started < 60
    _report(4, "Dirichlet domain on diag(2,-4)", started)


def test_criterion_5_siegel_property(pell_group, pell_cone, pell_cert):
    started = time.monotonic()
    cones20, rep20 = siegel_intersections(
        pell_cone, pell_cert.domain, pell_cert.domain, pell_group, word_bound=20
    )
    # frozen [DERIVED] cardinality from the depth-20 oracle: the domain and
    # its two boundary rays
    assert rep20["count"] == 3
    cones10, _ = siegel_intersections(
        pell_cone, pell_cert.domain, pell_cert.domain, pell_group, word_bound=10
    )
    assert {c.canonical_key() for c in cones10} == {
        c.canonical_key() for c in cones20
    }
    assert time.monotonic() - started < 60
    _report(5, "Siegel property witness", started)


def _cross_check_finite_subgroups(gamma, cert, conjugators):
    """Both routes give 3 classes, matched one to one by conjugation."""
    cone_classes, _ = classify_finite_subgroups_on_cone(gamma, cert)
    mat_classes, _ = finite_subgroup_classes_matrix(gamma)
    assert len(cone_classes) == 3
    assert len(mat_classes) == 3

    def same_class(h1, h2):
        s1 = frozenset(h1)
        return any(
            frozenset(
                la.mat_mul(la.mat_mul(c, m), la.unimodular_inverse(c)) for m in h2
            )
            == s1
            for c in conjugators
        )

    matches = [[m for m in mat_classes if same_class(cl, m)] for cl in cone_classes]
    assert all(len(ms) == 1 for ms in matches)
    assert len({frozenset(ms[0]) for ms in matches}) == 3


def test_criterion_6_finite_subgroup_cross_check(
    dihedral_group, dihedral_cert
):
    started = time.monotonic()
    conjugators = [el.matrix for el in dihedral_group.elements_up_to()]
    _cross_check_finite_subgroups(dihedral_group, dihedral_cert, conjugators)
    assert time.monotonic() - started < 120
    _report(6, "finite-subgroup classification cross-check", started)


# fundamental solutions of x^2 - k y^2 = 1, with the word bound of each
# dihedral group <[[x, k y], [y, x]], diag(1, -1)> on diag(2, -2k)
DIHEDRAL_FAMILY = {
    2: ((3, 2), 3), 3: ((2, 1), 3), 5: ((9, 4), 3),
    6: ((5, 2), 4), 7: ((8, 3), 4), 10: ((19, 6), 4),
}


@pytest.mark.parametrize("k", sorted(DIHEDRAL_FAMILY))
def test_criterion_6_on_the_dihedral_family(k):
    started = time.monotonic()
    (x, y), bound = DIHEDRAL_FAMILY[k]
    lat = IntegerLattice(((2, 0), (0, -2 * k)))
    gens = (Isometry(lat, ((x, k * y), (y, x))), Isometry(lat, ((1, 0), (0, -1))))
    pos = PositiveCone(lat, (1, 0))
    full = GeneratedGroup(lat, gens, word_bound=12, component_base=(1, 0))
    cert = dirichlet_domain(
        full, pos, find_trivial_stabilizer_point(full, pos), word_bound=12
    )
    gamma = GeneratedGroup(lat, gens, word_bound=bound, component_base=(1, 0))
    conjugators = [el.matrix for el in gamma.elements_up_to()]
    _cross_check_finite_subgroups(gamma, cert, conjugators)
    assert time.monotonic() - started < 120
    _report(6, f"finite-subgroup cross-check on diag(2, -{2 * k})", started)


def test_criterion_7_pointwise_fixing_decision():
    started = time.monotonic()
    rng = random.Random(303)
    done = 0
    while done < 20:
        t = rng.randint(1, 3)
        g0 = rand_sym(rng, t, 4)
        if la.bareiss_det(g0) == 0:
            continue
        g1 = tuple(rng.randint(-3, 3) for _ in range(t))
        m = rng.choice([-3, -2, -1, 1, 2, 3])
        h2 = rng.randint(-4, 4)
        n = t + 2
        gram = []
        for i in range(t):
            gram.append(tuple(g0[i]) + (0, g1[i]))
        gram.append(tuple(0 for _ in range(t)) + (0, m))
        gram.append(tuple(g1) + (m, h2))
        lat = IntegerLattice(tuple(gram))
        sub = Sublattice(
            lat,
            tuple(
                tuple(1 if j == i else 0 for j in range(n)) for i in range(t + 1)
            ),
        )
        out = fixes_pointwise_implies_identity(lat, sub)
        assert out.kind == "IdentityOnly", (gram, out)
        done += 1
    # negative control: the U + U transvection
    from klein_lattice.lattice import U, direct_sum

    l = direct_sum(U(), U())
    out = fixes_pointwise_implies_identity(l, Sublattice(l, ((1, 0, 0, 0),)))
    assert out.kind == "Counterexample"
    w = out.witness
    assert w != la.identity_matrix(4)
    assert la.mat_vec(w, (1, 0, 0, 0)) == (1, 0, 0, 0)
    assert time.monotonic() - started < 30
    _report(7, "corank-one pointwise-fixing decision", started)


def test_criterion_8_hilbert_operator():
    started = time.monotonic()
    for name, maker in SHIPPED:
        h, sigma = maker()
        for n in range(2, 7):
            h_ext, klein, report = hilbert_square_extension(
                h, n, Isometry(h.lattice, sigma)
            )
            assert report["all_pass"], (name, n, report)
            if abs(h.lattice.det()) == 1:
                assert report["discriminant_factors"] == (2 * (n - 1),)
                assert report["discriminant_minus_id"]
            km = hilbert_kahler_model(h_ext, n)
            c = anti_invariant_class(km, klein)
            assert km.cone.contains_strictly(c)
            c_lat = km.to_lattice(c)
            # plain pull-back anti-invariance: sigma*(c) = -c exactly
            assert la.mat_vec(klein.matrix, c_lat) == tuple(-x for x in c_lat)
    assert time.monotonic() - started < 30
    _report(8, "Hilbert-scheme operator", started)


def test_criterion_9_real_form_classifier():
    started = time.monotonic()
    for name, maker, expected in SHIPPED_KLEIN_GROUPS:
        kg = maker()
        out = real_structure_classifier(kg)
        assert out["paths_agree"], (name, out)
        assert len(out["direct_classes"]) == out["h1_size"] == expected
        # the section-9 route: H1(Z/2, K_conj-sigma) = H1(Z/2, K_triv),
        # and the nontrivial trivial-action classes are the conjugacy classes
        # of order-2 subgroups of K
        tw = inner_twist_bijection(
            cyclic(2), kg.carrier, range(kg.carrier.order), kg.sigma
        )
        assert tw["mode"] == "canonical" and tw["bijection_holds"], (name, tw)
        h1_triv = h1_finite(trivial_action(cyclic(2), kg.carrier))
        order2_classes = [
            sub
            for sub in kg.carrier.subgroups_up_to_conjugacy()
            if len(sub) == 2
        ]
        assert h1_triv.size == 1 + len(order2_classes), name
    assert time.monotonic() - started < 30
    _report(9, "real-form classifier", started)

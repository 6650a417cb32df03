"""Data shared by several test modules: the short exact sequence corpus and
shipped Klein groups of the cohomology tests, the abelian equivalence
solver that is the reference of the split filtration driver, the shipped Hodge
configurations and the monodromy spec that leaves the Hilbert operator of
config_u3 undecided, the signature oracle and random Gram matrices of the lattice
tests, the reflection groups and dihedral fixtures of the cone and
finite-subgroup tests, and the JSON documents of the CLI tests.

Test modules import it as `cases`, never each other: pyproject puts this
directory on the path, so it imports under either pytest import mode.
"""

from fractions import Fraction

from klein_lattice import intlinalg as la
from klein_lattice.cohomology import (
    KleinGroupData,
    ShortExactSequence,
    cyclic,
    dihedral,
    direct_product,
    klein_four,
    quaternion8,
    symmetric,
    trivial_action,
)
from klein_lattice.cones import (
    PositiveCone,
    cone_from_rays,
    dirichlet_domain,
    find_trivial_stabilizer_point,
)
from klein_lattice.hodge import HodgeLattice, KahlerModel, MonodromySpec, neron_severi
from klein_lattice.isometry import GeneratedGroup, Isometry
from klein_lattice.lattice import IntegerLattice, U, direct_sum


# --- cohomology --------------------------------------------------------------


def cocycles_equivalent_abelian(agg, phi, psi):
    """Integer witness a with (g.a - a) = psi(g) - phi(g) in the module, or None."""
    g, m = agg.group, agg.module
    n = m.dim
    rel_cols = m.relation_columns()
    rows = []
    rhs = []
    aug_width = len(rel_cols) * g.order
    for s in range(g.order):
        mat = agg.action[s]
        delta = m.normalize(tuple(p - q for p, q in zip(psi[s], phi[s])))
        for i in range(n):
            row = [mat[i][j] - (1 if i == j else 0) for j in range(n)]
            ext = [0] * aug_width
            for ci, col in enumerate(rel_cols):
                ext[s * len(rel_cols) + ci] = col[i]
            rows.append(tuple(row + ext))
            rhs.append(delta[i])
    sol = la.solve_int(tuple(rows), tuple(rhs))
    if sol is None:
        return None
    return tuple(sol[:n])


def s3_sign_sequence():
    s3 = symmetric(3)
    a3 = sorted(x for x in range(6) if s3.element_order(x) in (1, 3))
    sub_g, embed = s3.subgroup_group(a3)
    proj = tuple(0 if s3.element_order(x) in (1, 3) else 1 for x in range(6))
    return s3, sub_g, embed, proj


def make_ses(g, carrier_sub, carrier_mid, carrier_quot, inclusion, projection):
    return ShortExactSequence(
        trivial_action(g, carrier_sub),
        trivial_action(g, carrier_mid),
        trivial_action(g, carrier_quot),
        inclusion,
        projection,
    )


def ses_corpus(g):
    """Short exact sequences among groups of order <= 8, trivial G-action."""
    out = []
    z2, z4 = cyclic(2), cyclic(4)
    # Z/2 -> Z/4 -> Z/2
    out.append(("Z2-Z4-Z2", make_ses(g, z2, z4, z2, (0, 2), (0, 1, 0, 1))))
    # Z/2 -> V4 -> Z/2 (first factor of C2 x C2, indices a*2+b)
    v4 = klein_four()
    out.append(("Z2-V4-Z2", make_ses(g, z2, v4, z2, (0, 2), (0, 1, 0, 1))))
    # Z/3 -> Z/6 -> Z/2
    z3, z6 = cyclic(3), cyclic(6)
    out.append(("Z3-Z6-Z2", make_ses(g, z3, z6, z2, (0, 2, 4), (0, 1, 0, 1, 0, 1))))
    # A3 -> S3 -> Z/2
    s3, a3_g, embed, proj = s3_sign_sequence()
    out.append(("A3-S3-Z2", make_ses(g, a3_g, s3, z2, embed, proj)))
    # Z/4 -> D4 -> Z/2 (rotations; dihedral(4) indices: k + 4e)
    d4 = dihedral(4)
    out.append(
        ("Z4-D4-Z2", make_ses(g, z4, d4, z2, (0, 1, 2, 3), (0, 0, 0, 0, 1, 1, 1, 1)))
    )
    # Z/4 -> Q8 -> Z/2 (the <i> subgroup: 1, i, -1, -i = indices 0, 2, 1, 3)
    q8 = quaternion8()
    out.append(
        ("Z4-Q8-Z2", make_ses(g, z4, q8, z2, (0, 2, 1, 3), (0, 0, 0, 0, 1, 1, 1, 1)))
    )
    # center -> D4 -> V4: D4 center = {r0, r2} = indices {0, 2}
    quot, proj_d4 = d4.quotient_group({0, 2})
    out.append(("Z2-D4-V4", make_ses(g, z2, d4, quot, (0, 2), proj_d4)))
    # center -> Q8 -> V4
    quotq, proj_q8 = q8.quotient_group({0, 1})
    out.append(("Z2-Q8-V4", make_ses(g, z2, q8, quotq, (0, 1), proj_q8)))
    return out


ACTING_GROUPS = [("Z2", cyclic(2)), ("Z3", cyclic(3)), ("V4", klein_four())]


def klein_v4():
    v4 = klein_four()
    eps = tuple(1 if x % 2 == 0 else -1 for x in range(4))
    return KleinGroupData(v4, eps, 1)


def klein_d4():
    d4 = dihedral(4)
    eps = tuple(1 if i < 4 else -1 for i in range(8))
    return KleinGroupData(d4, eps, 4)


def klein_z2():
    return KleinGroupData(cyclic(2), (1, -1), 1)


def klein_s3():
    s3 = symmetric(3)
    eps = tuple(1 if s3.element_order(x) in (1, 3) else -1 for x in range(6))
    sigma = next(x for x in range(6) if s3.element_order(x) == 2)
    return KleinGroupData(s3, eps, sigma)


def klein_z2xz4():
    k = direct_product(cyclic(2), cyclic(4))  # index a*4 + b
    eps = tuple(1 if x < 4 else -1 for x in range(8))
    return KleinGroupData(k, eps, 4)


SHIPPED_KLEIN_GROUPS = [
    ("Z2", klein_z2, 1),
    ("V4", klein_v4, 2),
    ("S3", klein_s3, 1),
    ("D4", klein_d4, 2),
    ("Z2xZ4", klein_z2xz4, 2),
]


# --- hodge ------------------------------------------------------------------


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


def hilbert_kahler_model(h_ext):
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


def undecided_on_hilbert_square():
    """Generators on U^3 + <-2> that neither reach nor exclude the Hilbert
    operator of config_u3: the transvection on U1 + U2 and the swap on U3,
    which has determinant -1."""
    return MonodromySpec(
        "generators", generators=(padded(EICHLER, 7), padded(SWAP, 7, 4)), word_bound=3
    )


# --- reflection groups and dihedral fixtures --------------------------------


def reflection(gram, r):
    """The reflection x -> x - 2<x, r>/<r, r> r in the root r."""
    gr = la.mat_vec(gram, r)
    rr = la.dot(gr, r)
    n = len(r)
    return tuple(
        tuple(int(i == j) - Fraction(2 * r[i] * gr[j], rr) for j in range(n))
        for i in range(n)
    )


# Vinberg's roots of diag(1, -1, ..., -1), a point xi inside their chamber
# and a word bound: the (2,4,inf) triangle group and the [3,4,4] simplex group
REFLECTION_GROUPS = {
    "triangle-2-4-inf": ((1, -1, -1), ((0, -1, 1), (0, 0, -1), (1, 1, 1)), (10, 2, 1), 12),
    "coxeter-3-4-4": (
        (1, -1, -1, -1), ((0, -1, 1, 0), (0, 0, -1, 1), (0, 0, 0, -1), (1, 1, 1, 1)),
        (10, 3, 2, 1), 10,
    ),
}


def reflection_group(diag, roots, xi, bound):
    """The group generated by the reflections in the roots of diag, with
    xi as its component base."""
    n = len(diag)
    gram = tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n))
    lat = IntegerLattice(gram)
    return GeneratedGroup(
        lat, tuple(Isometry(lat, reflection(gram, r)) for r in roots),
        word_bound=bound, component_base=xi,
    )


# the fundamental unit (a, b) of a^2 - k b^2 = 1 for six k
DIHEDRAL_UNITS = {2: (3, 2), 3: (2, 1), 5: (9, 4), 6: (5, 2), 7: (8, 3), 10: (19, 6)}


def dihedral_fixture(k):
    """(lattice, generators, certificate) of the infinite dihedral group on
    diag(2, -2k) generated by the Pell unit and the reflection in e2: the
    Dirichlet domain at word bound 12 from the first point of C with a
    trivial stabilizer."""
    a, b = DIHEDRAL_UNITS[k]
    lat = IntegerLattice(((2, 0), (0, -2 * k)))
    gens = (Isometry(lat, ((a, k * b), (b, a))), Isometry(lat, ((1, 0), (0, -1))))
    gamma = GeneratedGroup(lat, gens, word_bound=12, component_base=(1, 0))
    pos = PositiveCone(lat, (1, 0))
    xi = find_trivial_stabilizer_point(gamma, pos)
    return lat, gens, dirichlet_domain(gamma, pos, xi, word_bound=12)


# --- lattice ----------------------------------------------------------------


def char_poly_sign_counts(gram):
    """Independent oracle: eigenvalue sign counts via Descartes' rule on the
    (real-rooted) characteristic polynomial, computed by Faddeev-LeVerrier."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    coeffs = [Fraction(1)]  # p(t) = t^n + c1 t^(n-1) + ... + cn
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = [
            [sum(a[i][r] * m[r][j] for r in range(n)) for j in range(n)]
            for i in range(n)
        ]
        ck = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(ck)
        for i in range(n):
            m[i][i] += ck
    zeros = 0
    while zeros < n and coeffs[n - zeros] == 0:
        zeros += 1
    trimmed = coeffs[: n - zeros + 1]
    signs = [c for c in trimmed if c != 0]
    changes = sum(1 for x, y in zip(signs, signs[1:]) if (x > 0) != (y > 0))
    pos = changes
    neg = n - zeros - pos
    return pos, zeros, neg


def rand_sym(rng, n, bound=5):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return tuple(tuple(row) for row in m)


# --- CLI documents ----------------------------------------------------------


def forged_certificates(cert):
    """The JSON certificate cert of a Pell domain on diag(2, -4), each time
    with one fact whose second copy is broken: no halfspaces beside the
    domain, a halfspace beside the domain's rays that is not their facet,
    an orbit matrix of determinant -1 beside the word g0, a positive cone
    on another lattice than the group's, a group generator -I that moves xi
    out of C, and a stabilization depth equal to the word bound, which
    dirichlet_domain would have refused as still growing."""
    return {
        "no-halfspaces": {**cert, "halfspaces": []},
        "domain-halfspace-not-a-facet": {
            **cert,
            "domain": {**cert["domain"], "halfspaces": [[5, 5]]},
        },
        "orbit-matrix-not-its-word": {
            **cert,
            "orbit_elements": [{"matrix": [[3, -4], [2, -3]], "word": "g0"}]
            + cert["orbit_elements"],
        },
        "positive-cone-on-another-lattice": {
            **cert,
            "positive_cone": {"lattice": {"gram": [[1, 0], [0, -1]]}, "component_base": [1, 0]},
        },
        "generator-moves-xi-out-of-c": {
            **cert,
            "group": {
                **cert["group"],
                "generators": cert["group"]["generators"] + [{"matrix": [[-1, 0], [0, -1]]}],
            },
        },
        "stabilization-depth-at-the-word-bound": {
            **cert, "stabilization_depth": cert["word_bound"],
        },
    }


HODGE4 = {
    "lattice": {"gram": [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, -2]]},
    "period_re": [1, 0, 0, 0],
    "period_im": [0, 1, 0, 0],
}
# a one-ray Kahler model on HODGE4, whose NS basis is the embedding
KAHLER4 = {"cone": {"rays": [[1]]}, "embedding": [[0, 0, 1, 0]], "lattice": HODGE4["lattice"]}
HODGE6 = {
    "lattice": {
        "gram": [
            [0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1, 0],
        ]
    },
    "period_re": [1, 1, 0, 0, 0, 0],
    "period_im": [0, 0, 1, 1, 0, 0],
}
SIGMA6 = [
    [0, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, -1],
]

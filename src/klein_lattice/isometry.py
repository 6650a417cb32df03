"""Isometries and Klein isometries of integral lattices.

Covers: isometry verification, finite isometry groups of definite lattices by
backtracking, the dagger action of Klein isometries, stabilizers of positive
vectors in hyperbolic lattices, and the corank-one pointwise-fixing decision
procedure.
"""

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import isqrt

from . import intlinalg as la
from .errors import (
    DimensionMismatch,
    InvalidInput,
    NonPositiveVector,
    NotDefinite,
    NotHyperbolic,
    NotPrimitive,
)
from .frozen import Frozen
from .lattice import IntegerLattice, signature


class Isometry(Frozen):
    lattice: IntegerLattice
    matrix: tuple

    def __post_init__(self):
        m = tuple(tuple(int(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", m)
        if not is_isometry(self.lattice, m):
            raise InvalidInput("matrix is not an isometry of the lattice")

    def apply(self, v):
        return la.mat_vec(self.matrix, v)

    def inverse(self):
        return Isometry(self.lattice, la.unimodular_inverse(self.matrix))

    def compose(self, other):
        return Isometry(self.lattice, la.mat_mul(self.matrix, other.matrix))


class KleinIsometry(Frozen):
    """A lattice isometry together with the holomorphic/anti-holomorphic sign.

    The stored matrix is the plain pull-back; the cone action is the dagger
    sign * matrix.
    """

    isometry: Isometry
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InvalidInput("sign must be +1 or -1")

    @property
    def matrix(self):
        return self.isometry.matrix

    @property
    def lattice(self):
        return self.isometry.lattice

    def dagger_matrix(self):
        s = self.sign
        return tuple(tuple(s * x for x in row) for row in self.matrix)


def is_isometry(lat, matrix):
    """True iff matrix^T * gram * matrix = gram and matrix is in GL_n(Z)."""
    n = lat.rank
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimensionMismatch("matrix size does not match lattice rank")
    for row in matrix:
        for x in row:
            if not isinstance(x, int):
                return False
    if abs(la.bareiss_det(matrix)) != 1:
        return False
    mt = la.transpose(matrix)
    return la.mat_mul(mt, la.mat_mul(lat.gram, matrix)) == lat.gram


def dagger_apply(klein, v):
    return la.mat_vec(klein.dagger_matrix(), v)


def dagger_compose(f, g):
    """Klein isometry of the composite f o g.

    Pull-backs are contravariant, so the composite's matrix is M_g * M_f and
    the sign multiplies; on daggers this is (f o g)^dag = g^dag o f^dag.
    """
    if f.lattice.gram != g.lattice.gram:
        raise DimensionMismatch("klein isometries live on different lattices")
    return KleinIsometry(
        Isometry(f.lattice, la.mat_mul(g.matrix, f.matrix)), f.sign * g.sign
    )


def klein_inverse(k):
    return KleinIsometry(k.isometry.inverse(), k.sign)


def positive_basis(lat):
    """Rational basis of a maximal positive-definite subspace."""
    diag, t = la.congruence_diagonalize(lat.gram)
    cols = la.transpose(t)
    return [cols[i] for i in range(lat.rank) if diag[i] > 0]


def preserves_positive_orientation(lat, matrix):
    """Sign of det of the pairing of the images of a positive basis against it.

    For signature (1, n-1) this is preservation of the chosen component of
    {q > 0}; for signature (3, n-3) it is the orientation of the positive cone.
    """
    # positive multiples of the basis vectors keep the determinant's sign
    w = [la.primitive_vector(v) for v in positive_basis(lat)]
    if not w:
        raise InvalidInput("lattice has no positive part")
    g = lat.gram
    p = tuple(
        tuple(la.dot(la.mat_vec(g, wj), la.mat_vec(matrix, wi)) for wj in w) for wi in w
    )
    d = la.bareiss_det(p)
    if d == 0:
        raise InvalidInput("degenerate positive-part pairing; not an isometry?")
    return d > 0


# --- short vectors and definite isometry groups ---------------------------


def _pos_def_data(gram):
    """Q(x) = sum_i d[i] * (x_i + sum_{j>i} c[i][j] x_j)^2 for positive definite gram.

    From t^T gram t = diag(d): for a positive definite gram, t is unit upper
    triangular, and c is its inverse.
    """
    d, t = la.congruence_diagonalize(gram)
    if any(x <= 0 for x in d):
        raise NotDefinite("matrix is not positive definite")
    return d, la.frac_inverse(t)


def vectors_of_norm(gram, m):
    """All integer vectors v with v^T gram v = m, for positive definite gram."""
    n = len(gram)
    if m < 0:
        return []
    if m == 0:
        return [tuple(0 for _ in range(n))]
    d, c = _pos_def_data(gram)
    out = []
    x = [0] * n

    def rec(i, remaining):
        if i < 0:
            if remaining == 0:
                out.append(tuple(x))
            return
        t = sum(c[i][j] * x[j] for j in range(i + 1, n))
        limit = Fraction(remaining) / d[i]
        s = isqrt(int(limit)) + 1
        lo = -t - s
        k = int(lo.numerator // lo.denominator) if isinstance(lo, Fraction) else lo
        while Fraction(k) < -t - s:
            k += 1
        while Fraction(k) <= -t + s:
            term = d[i] * (k + t) ** 2
            if term <= remaining:
                x[i] = k
                rec(i - 1, remaining - term)
            k += 1
        x[i] = 0

    rec(n - 1, Fraction(m))
    return sorted(out)


def _definite_positive_gram(lat):
    sig = signature(lat)
    n = lat.rank
    if sig.as_tuple() == (n, 0, 0):
        return lat.gram
    if sig.as_tuple() == (0, 0, n):
        return tuple(tuple(-x for x in row) for row in lat.gram)
    raise NotDefinite("lattice must be positive or negative definite")


def _column_search(lat):
    """The column backtracking behind both definite-group functions.

    Column i of an isometry matrix is the image of e_i: a vector of norm
    g[i][i] whose pairings with the columns before it are g[i][0..i-1].
    Returns (candidates, extensions): candidates(prefix) lists the vectors
    that may follow the columns in prefix, and extensions(prefix) yields
    every completion of prefix to all n columns.  G*v is computed once per
    vector of each norm.
    """
    g = _definite_positive_gram(lat)
    n = lat.rank
    by_norm = {}
    for i in range(n):
        if g[i][i] not in by_norm:
            by_norm[g[i][i]] = [(v, la.mat_vec(g, v)) for v in vectors_of_norm(g, g[i][i])]

    def candidates(prefix):
        row = g[len(prefix)]
        return [
            v
            for v, gv in by_norm[row[len(prefix)]]
            if all(la.dot(gv, u) == row[j] for j, u in enumerate(prefix))
        ]

    def extensions(prefix):
        if len(prefix) == n:
            yield prefix
            return
        for v in candidates(prefix):
            yield from extensions(prefix + [v])

    return candidates, extensions


def isometry_group_definite(lat):
    """The full finite group O(L) of a definite lattice, by backtracking.

    Columns of a candidate are chosen among vectors of the right norm and
    filtered by the pairing constraints against previously chosen columns;
    a full set of columns has Gram matrix g, so its determinant is +-1.
    Output is sorted lexicographically by matrix.
    """
    _, extensions = _column_search(lat)
    return [Isometry(lat, m) for m in sorted(la.transpose(cols) for cols in extensions([]))]


def isometry_group_order_definite(lat):
    """|O(L)| for definite L via a stabilizer chain.

    At level i the candidate images of e_i (fixing e_1..e_{i-1}) that extend
    to a full isometry form one orbit of the level-(i-1) stabilizer, so the
    order is the product of the extendable-candidate counts.
    """
    candidates, extensions = _column_search(lat)
    base = la.identity_matrix(lat.rank)
    order = 1
    for i in range(lat.rank):
        prefix = list(base[:i])
        order *= sum(
            1
            for v in candidates(prefix)
            if next(extensions(prefix + [v]), None) is not None
        )
    return order


# --- pointwise-fixing decision procedure ----------------------------------


class FixDecision(Frozen):
    kind: str  # "IdentityOnly" | "Counterexample" | "Undecided"
    witness: tuple = None  # counterexample matrix when kind == "Counterexample"


def fixes_pointwise_implies_identity(lat, sub, search_bound=1):
    """Decide whether every isometry of L restricting to the identity on N
    is the identity.

    Corank one is decided exactly by the block argument: in an adapted basis
    with N spanned by the first rows and completion vector h, an isometry
    fixing N pointwise has last column (x, z) with z = +-1; z = +1 solutions
    are ker(A) cap ker(p^T), z = -1 solutions are integral solutions of
    A x = 2 p, where A is the Gram block of N and p the pairing column of N
    against h.  Corank >= 2 runs a bounded search and returns Undecided when
    it finds nothing.
    """
    if search_bound < 1:
        raise InvalidInput("search bound must be at least 1")
    if sub.ambient.gram != lat.gram:
        raise DimensionMismatch("sublattice does not live in the given lattice")
    if not sub.is_primitive():
        raise NotPrimitive("N must be primitive in L")
    n = lat.rank
    t = sub.rank
    corank = n - t
    if corank == 0:
        return FixDecision("IdentityOnly")
    cmat = la.complete_basis(sub.basis) if t else la.identity_matrix(n)
    p_basis = la.transpose(cmat)  # columns are the adapted basis vectors
    p_inv = la.unimodular_inverse(p_basis)
    gn = la.mat_mul(la.transpose(p_basis), la.mat_mul(lat.gram, p_basis))

    def to_ambient(m_new):
        return la.mat_mul(p_basis, la.mat_mul(m_new, p_inv))

    def check_and_wrap(m_new):
        m = to_ambient(m_new)
        assert is_isometry(lat, m)
        for b in sub.basis:
            assert la.mat_vec(m, b) == tuple(b)
        return FixDecision("Counterexample", m)

    if corank == 1:
        a = tuple(tuple(gn[i][j] for j in range(t)) for i in range(t))
        p = tuple(gn[i][t] for i in range(t))
        # z = +1: x in ker(A) with p.x = 0
        stacked = a + (p,) if t else ((0,) * t,)
        for x in la.int_kernel(stacked):
            if not la.is_zero_vector(x):
                return check_and_wrap(_block_matrix(t, 1, tuple((c,) for c in x), ((1,),)))
        # z = -1: A x = 2p
        if t == 0:
            return check_and_wrap(_block_matrix(0, 1, (), ((-1,),)))
        x = la.solve_int(a, tuple(2 * pi for pi in p))
        if x is not None:
            return check_and_wrap(_block_matrix(t, 1, tuple((c,) for c in x), ((-1,),)))
        return FixDecision("IdentityOnly")

    # corank >= 2: bounded search over the unknown block
    found = _search_corank_ge2(gn, t, corank, search_bound)
    if found is not None:
        return check_and_wrap(found)
    return FixDecision("Undecided")


def _block_matrix(t, k, x_block, z_block):
    """[[I, X], [0, Z]] with I of size t and X, Z given as t x k and k x k rows."""
    n = t + k
    rows = []
    for i in range(t):
        rows.append(
            tuple(
                1 if j == i else (x_block[i][j - t] if j >= t else 0) for j in range(n)
            )
        )
    for i in range(k):
        rows.append(tuple(z_block[i][j - t] if j >= t else 0 for j in range(n)))
    return tuple(rows)


def _search_corank_ge2(gn, t, k, bound):
    """Bounded search for a nonidentity M = [[I, X], [0, Z]] with
    M^T gn M = gn, where gn = [[A, B], [B^T, C]] with A of size t.

    |det Z| = 1, and X solves A X = B (I - Z), which is the upper right block
    of the isometry condition.  Entries of Z and kernel coefficients range
    over [-bound, bound].
    """
    a = tuple(tuple(gn[i][j] for j in range(t)) for i in range(t))
    b = tuple(tuple(gn[i][t + j] for j in range(k)) for i in range(t))
    rng = range(-bound, bound + 1)
    ker = la.int_kernel(a) if t else []
    max_candidates = 300000
    seen = 0
    ident_z = la.identity_matrix(k)
    for z_entries in product(rng, repeat=k * k):
        z = tuple(tuple(z_entries[i * k + j] for j in range(k)) for i in range(k))
        if abs(la.bareiss_det(z)) != 1:
            continue
        rhs_cols = la.transpose(
            la.mat_mul(b, tuple(tuple(ident_z[i][j] - z[i][j] for j in range(k)) for i in range(k)))
        ) if t else [()] * k
        # particular solutions per column
        parts = []
        ok = True
        for j in range(k):
            if t:
                sol = la.solve_int(a, rhs_cols[j])
                if sol is None:
                    ok = False
                    break
                parts.append(sol)
            else:
                parts.append(())
        if not ok:
            continue
        # enumerate kernel shifts per column
        dimker = len(ker)
        shift_space = list(product(rng, repeat=dimker)) if dimker else [()]
        for combo in product(shift_space, repeat=k):
            seen += 1
            if seen > max_candidates:
                return None
            cols = []
            for j in range(k):
                col = list(parts[j])
                for c, kv in zip(combo[j], ker):
                    for r in range(t):
                        col[r] += c * kv[r]
                cols.append(tuple(col))
            x = tuple(tuple(cols[j][i] for j in range(k)) for i in range(t))
            if z == ident_z and all(la.is_zero_vector(row) for row in x):
                continue
            m = _block_matrix(t, k, x, z)
            if la.mat_mul(la.transpose(m), la.mat_mul(gn, m)) == gn:
                return m
    return None


# --- generated groups and stabilizers --------------------------------------


class GroupElement(Frozen):
    """Element of a generated matrix group: acting matrix, Klein sign, word."""

    matrix: tuple
    sign: int
    word: str


class GeneratedGroup(Frozen):
    """Matrix group given by generators, with an enumeration word bound.

    Generators may be Isometry or KleinIsometry; Klein generators act through
    their dagger matrices, and the sign tag is carried along multiplicatively.
    full_orthogonal_plus declares the group to be all isometries preserving
    the selected component, which makes membership decidable.
    """

    lattice: IntegerLattice
    generators: tuple
    word_bound: int = 12
    full_orthogonal_plus: bool = False
    component_base: tuple = None

    def __post_init__(self):
        if self.word_bound < 1:
            raise InvalidInput("word bound must be at least 1")
        for g in self.generators:
            if g.lattice.gram != self.lattice.gram:
                raise DimensionMismatch("generator on a different lattice")

    def generator_elements(self):
        out = []
        for i, g in enumerate(self.generators):
            if isinstance(g, KleinIsometry):
                m, s = g.dagger_matrix(), g.sign
            else:
                m, s = g.matrix, 1
            name = f"g{i}"
            out.append(GroupElement(m, s, name))
            minv = la.unimodular_inverse(m)
            if minv != m:
                out.append(GroupElement(minv, s, f"g{i}^-1"))
        return out

    @cached_property
    def _bfs(self):
        """The word BFS walked so far: its layers, the matrices seen and the
        generators it multiplies by.  Kept in the instance dictionary, outside
        the value's fields, so equality, hashing and repr do not see it."""
        ident = GroupElement(la.identity_matrix(self.lattice.rank), 1, "e")
        return [(ident,)], {ident.matrix}, self.generator_elements()

    def layers(self, bound=None):
        """BFS of distinct elements by word length: layers[d] holds the
        elements first reached by a word of length d <= bound, layers[0] the
        identity.  The tuple ends with an empty layer when the BFS exhausted
        the group before the bound.

        The BFS runs once per group and is extended when a larger bound is
        asked for, so layers(b) is a prefix of layers(b') for b <= b'.
        """
        if bound is None:
            bound = self.word_bound
        layers, seen, gens = self._bfs
        while len(layers) <= bound and layers[-1]:
            new = []
            for el in layers[-1]:
                for g in gens:
                    m = la.mat_mul(g.matrix, el.matrix)
                    if m not in seen:
                        seen.add(m)
                        word = g.word if el.word == "e" else g.word + "*" + el.word
                        new.append(GroupElement(m, g.sign * el.sign, word))
            layers.append(tuple(new))
        return tuple(layers[: max(bound, 0) + 1])

    def enumeration(self, bound=None):
        """BFS of distinct elements with words of length <= bound.

        Returns (elements, closed): closed is True when the BFS exhausted the
        group before hitting the bound, i.e. the group is finite and the
        enumeration is complete.
        """
        layers = self.layers(bound)
        closed = not self.generators or not layers[-1]
        return [el for layer in layers for el in layer], closed

    def elements_up_to(self, bound=None):
        """BFS enumeration of distinct elements with words of length <= bound."""
        return self.enumeration(bound)[0]


def group_membership(gamma, matrix, tester=None, bound=None):
    """Classify matrix against gamma: returns 'in', 'out' or 'unknown'.

    A matrix that is not an isometry of the lattice is 'out'.  Other
    certified answers come from the full-orthogonal-plus contract, from an
    externally supplied tester (fundamental-domain reduction), or from
    invariant obstructions (determinant sign, orientation of the positive
    part).
    """
    lat = gamma.lattice
    if not is_isometry(lat, matrix):
        return "out"
    if gamma.full_orthogonal_plus:
        base = gamma.component_base
        if base is None:
            raise InvalidInput("full_orthogonal_plus needs a component base")
        return "in" if _pairs_positively(lat, matrix, base) else "out"
    if tester is not None:
        return tester(matrix)
    if not gamma.generators:
        return "in" if matrix == la.identity_matrix(lat.rank) else "out"
    elements, closed = gamma.enumeration(bound)
    for el in elements:
        if el.matrix == matrix:
            return "in"
    if closed:
        # the BFS exhausted a finite group: absence is a certified answer
        return "out"
    # the determinant and the orientation of the positive part are
    # characters: if every generator keeps one, every word does, and a
    # matrix that breaks it is outside
    keeps = [lambda m: la.bareiss_det(m) == 1]
    sig = signature(lat)
    if sig.zero == 0 and sig.positive > 0:
        keeps.append(lambda m: preserves_positive_orientation(lat, m))
    gens = [g.matrix for g in gamma.generator_elements()]
    if any(not keep(matrix) and all(map(keep, gens)) for keep in keeps):
        return "out"
    return "unknown"


def _pairs_positively(lat, matrix, base):
    img = la.mat_vec(matrix, base)
    return lat.pairing(img, base) > 0


class StabilizerResult(Frozen):
    members: tuple  # Isometry
    completeness: str  # "Certified" or "BoundedSearch"
    bound: int
    unresolved: tuple  # candidate matrices with unknown membership

    def is_certified(self):
        return self.completeness == "Certified"


def stabilizer(gamma, x, tester=None):
    """Stab_Gamma(x) for a rational x with q(x) > 0 in a hyperbolic lattice.

    The candidate overgroup is the group of isometries of the definite
    complement x^perp extended over Qx + x^perp and filtered by integrality;
    each candidate is then tested for membership in Gamma.
    """
    lat = gamma.lattice
    n = lat.rank
    if signature(lat).as_tuple() != (1, 0, n - 1):
        raise NotHyperbolic("stabilizer needs a hyperbolic ambient lattice")
    xv = tuple(Fraction(c) for c in x)
    qx = la.dot(la.mat_vec(lat.gram, xv), xv)
    if qx <= 0:
        raise NonPositiveVector("q(x) must be positive")
    xprim = la.primitive_vector(xv)
    comp = _orthogonal_rows(lat, xprim)
    comp_gram = tuple(
        tuple(lat.pairing(u, v) for v in comp) for u in comp
    )
    comp_lat = IntegerLattice(comp_gram)
    phis = isometry_group_definite(comp_lat)
    p_cols = la.transpose((xprim,) + tuple(comp))
    p_inv = la.frac_inverse(p_cols)
    k = comp_lat.rank
    candidates = []
    for phi in phis:
        block = _block_matrix(1, k, ((0,) * k,), phi.matrix)
        m = la.mat_mul(p_cols, la.mat_mul(block, p_inv))
        if all(all(Fraction(v).denominator == 1 for v in row) for row in m):
            mi = tuple(tuple(int(v) for v in row) for row in m)
            if is_isometry(lat, mi):
                candidates.append(mi)
    candidates = sorted(set(candidates))
    members = []
    unresolved = []
    ident = la.identity_matrix(n)
    for m in candidates:
        if m == ident:
            members.append(m)
            continue
        verdict = group_membership(gamma, m, tester=tester)
        if verdict == "in":
            members.append(m)
        elif verdict == "unknown":
            unresolved.append(m)
    completeness = "Certified" if not unresolved else "BoundedSearch"
    return StabilizerResult(
        tuple(Isometry(lat, m) for m in sorted(members)),
        completeness,
        gamma.word_bound,
        tuple(unresolved),
    )


def _orthogonal_rows(lat, x):
    row = (la.mat_vec(lat.gram, x),)
    return la.int_kernel(row)

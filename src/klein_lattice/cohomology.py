"""Non-abelian group cohomology H^1(G, A) for finite G.

Cocycles, equivalence, twisting, the six-term exact sequence of pointed sets,
the fiber-orbit description of the last map, conjugacy classification of
finite subgroups, the filtration finiteness driver, and the real-structure
classifier for finite Klein groups.
"""

from functools import cache, cached_property
from itertools import product as iproduct

from . import intlinalg as la
from .errors import (
    InvalidInput,
    NoAntiInvolution,
    NotExactInput,
    NotInner,
    NotNormal,
    NotStable,
)
from .frozen import Frozen


# --- the subgroup engine ---------------------------------------------------------
#
# Shared by FiniteGroup tables, permutation groups, the torsion words of
# matrix groups, the cone pipeline in hodge and the orbit walks below; the
# closure walk takes any hashable values with a `mul`.


def subgroup_closure(gens, mul, identity, bound=None, allowed=None):
    """The closure of {identity} under x -> mul(x, g) for every g in gens,
    by a walk that applies every g to each new element.

    With group elements as gens and the product as mul, and generators of
    finite order, this is the subgroup generated by gens; with an action as
    mul and a point as identity it is the orbit of the point.  Returns None
    as soon as the set exceeds `bound` elements or leaves the set `allowed`.
    """
    out = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul(x, g)
            if y in out:
                continue
            if bound is not None and len(out) >= bound:
                return None
            if allowed is not None and y not in allowed:
                return None
            out.add(y)
            frontier.append(y)
    return frozenset(out)


def _orbit_partition(points, gens, action):
    """The orbits of the points under the closure walk of action over gens,
    each once, in the order of their first points."""
    orbits = []
    seen = set()
    for p in points:
        if p not in seen:
            orbits.append(subgroup_closure(gens, action, p))
            seen |= orbits[-1]
    return orbits


def extension_subgroups(candidates, mul, identity, bound=None, allowed=None):
    """Every subgroup generated by candidates that subgroup_closure accepts,
    by cyclic extension: adjoin one candidate to a found subgroup and close
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).

    Each found subgroup h keeps the tuple of candidates it was reached by
    (() for the trivial group), and <h, t> is closed from that tuple plus t
    instead of from all of h plus t, so a walk costs |<h, t>| products per
    generator, not per element of h.  The walk from the tuple gave h, so h
    lies in what the tuple plus t generates, and both walks reach the same
    set; subgroup_closure returns None exactly when that set has more than
    `bound` elements or one outside `allowed`, so both give the same answer.
    A closure depends only on its set of generators, so each set is closed
    once, in whatever order its generators were adjoined.

    Each subgroup is reached through a chain of subgroups that it contains,
    so with `allowed` the result is exactly the subgroups inside `allowed`.
    """
    trivial = frozenset({identity})
    found = {trivial}
    closed = set()
    frontier = [(trivial, ())]
    while frontier:
        h, hgens = frontier.pop()
        for t in candidates:
            if t in h:
                continue
            gens = hgens + (t,)
            key = frozenset(gens)
            if key in closed:
                continue
            closed.add(key)
            k = subgroup_closure(gens, mul, identity, bound, allowed)
            if k is not None and k not in found:
                found.add(k)
                frontier.append((k, gens))
    return found


def _subgroup_key(h):
    return (len(h), sorted(h))


def conjugacy_representatives(subgroups, conjugators, mul, inv):
    """One subgroup per conjugacy class under the given conjugators: the
    first in (size, sorted elements) order not conjugate to an earlier one."""
    pairs = [(c, inv(c)) for c in conjugators]
    classes = []
    seen = set()
    for h in sorted(subgroups, key=_subgroup_key):
        if h in seen:
            continue
        seen.update(frozenset(mul(mul(c, x), ci) for x in h) for c, ci in pairs)
        classes.append(h)
    return classes


# --- finite groups ----------------------------------------------------------


class FiniteGroup(Frozen):
    """Finite group as a multiplication table on indices 0..n-1."""

    table: tuple

    def __post_init__(self):
        t = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", t)
        n = len(t)
        for row in t:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise InvalidInput("malformed multiplication table")
        ident = None
        for e in range(n):
            if all(t[e][x] == x and t[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise InvalidInput("no identity element")
        object.__setattr__(self, "_identity", ident)
        inv = [None] * n
        for x in range(n):
            for y in range(n):
                if t[x][y] == ident and t[y][x] == ident:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise InvalidInput("missing inverse")
        object.__setattr__(self, "_inv", tuple(inv))
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        raise InvalidInput("multiplication is not associative")

    @property
    def order(self):
        return len(self.table)

    @property
    def identity(self):
        return self._identity

    def op(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def conj(self, a, x):
        """a * x * a^-1."""
        return self.op(self.op(a, x), self.inv(a))

    def element_order(self, x):
        k, y = 1, x
        while y != self.identity:
            y = self.op(y, x)
            k += 1
        return k

    def is_abelian(self):
        n = self.order
        return all(
            self.op(a, b) == self.op(b, a) for a in range(n) for b in range(n)
        )

    def closure(self, subset):
        return subgroup_closure(tuple(subset), self.op, self.identity)

    def check_elements(self, xs, what):
        """InvalidInput unless every int in the collection xs is an element index 0..order-1."""
        if xs and not 0 <= min(xs) <= max(xs) < len(self.table):
            raise InvalidInput(f"{what}: not an element index in 0..{len(self.table) - 1}")

    def is_subgroup(self, subset):
        s = set(subset)
        if self.identity not in s:
            return False
        return all(self.op(a, b) in s for a in s for b in s)

    def is_normal(self, subset):
        s = set(subset)
        return all(self.conj(g, x) in s for g in range(self.order) for x in s)

    def all_subgroups(self):
        found = extension_subgroups(range(self.order), self.op, self.identity)
        return sorted(found, key=_subgroup_key)

    def subgroups_up_to_conjugacy(self):
        return conjugacy_representatives(
            self.all_subgroups(), range(self.order), self.op, self.inv
        )

    def generating_set(self):
        gens = []
        span = frozenset({self.identity})
        for x in sorted(range(self.order), key=lambda i: -self.element_order(i)):
            if x not in span:
                gens.append(x)
                span = self.closure(gens)
            if len(span) == self.order:
                break
        return gens

    @cached_property
    def word_tree(self):
        """(gens, tree, off_tree), computed once per group: gens is
        generating_set(), tree lists every element y but the identity once,
        in BFS order, as (y, x, k) with y = x * gens[k] and x the identity or
        listed earlier, and off_tree lists every other edge the same way, as
        (x, k, y) in the order of x, then k."""
        gens = self.generating_set()
        seen = {self.identity}
        frontier = [self.identity]
        tree = []
        while frontier:
            nxt = []
            for x in frontier:
                row = self.table[x]
                for k, s in enumerate(gens):
                    y = row[s]
                    if y not in seen:
                        seen.add(y)
                        tree.append((y, x, k))
                        nxt.append(y)
            frontier = nxt
        on_tree = {(x, k) for _, x, k in tree}
        off_tree = [
            (x, k, row[s])
            for x, row in enumerate(self.table)
            for k, s in enumerate(gens)
            if (x, k) not in on_tree
        ]
        return tuple(gens), tuple(tree), tuple(off_tree)

    def subgroup_group(self, subset):
        """The subgroup as its own FiniteGroup plus the index embedding."""
        elems = tuple(sorted(subset))
        if not self.is_subgroup(elems):
            raise InvalidInput("subset is not a subgroup")
        return group_from_rule(elems, self.op), elems

    def quotient_group(self, normal_subset):
        """The quotient by a normal subgroup plus the projection map; cosets
        are numbered in the order of their least elements."""
        if not self.is_subgroup(normal_subset) or not self.is_normal(normal_subset):
            raise NotNormal("quotient needs a normal subgroup")
        rep = [None] * self.order  # rep[x]: the least element of the coset xN
        for x in range(self.order):
            if rep[x] is None:
                coset = [self.op(x, h) for h in normal_subset]
                least = min(coset)
                for y in coset:
                    rep[y] = least
        minima = sorted(set(rep))
        pos = {m: i for i, m in enumerate(minima)}
        quotient = group_from_rule(minima, lambda a, b: rep[self.op(a, b)])
        return quotient, tuple(pos[m] for m in rep)


def group_from_rule(elements, mul):
    """The FiniteGroup on the listed hashable elements, numbered in list
    order: table[i][j] is the index of mul(elements[i], elements[j])."""
    index = {x: i for i, x in enumerate(elements)}
    return FiniteGroup(tuple(tuple(index[mul(a, b)] for b in elements) for a in elements))


def permutation_group(gens, bound=None):
    """The group generated by permutations of 0..n-1 in one-line notation,
    composed as (a b)[i] = a[b[i]], on its sorted permutations.  None when it
    has more than `bound` elements."""
    n = len(gens[0])

    def compose(a, b):
        return tuple(a[i] for i in b)

    elems = subgroup_closure(gens, compose, tuple(range(n)), bound)
    if elems is None:
        return None
    return group_from_rule(sorted(elems), compose)


@cache
def cyclic(n):
    """Z/n, built and checked once per n."""
    return group_from_rule(range(n), lambda a, b: (a + b) % n)


def dihedral(n):
    """Dihedral group of order 2n; index k + n*e encodes r^k s^e."""

    def mul(a, b):
        k1, e1 = a % n, a // n
        k2, e2 = b % n, b // n
        k = (k1 + (k2 if e1 == 0 else -k2)) % n
        return k + n * ((e1 + e2) % 2)

    return group_from_rule(range(2 * n), mul)


def symmetric(n):
    """S_n on the sorted permutations of 0..n-1, generated by the n-cycle
    and the transposition (0 1)."""
    ident = tuple(range(n))
    return permutation_group([ident[1:] + ident[:1], ident[1::-1] + ident[2:]])


def quaternion8():
    """Q8: the unit quaternions 1, -1, i, -i, j, -j, k, -k, as coordinate
    tuples (w, x, y, z), under the Hamilton product."""

    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    units = [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
    return group_from_rule(units, mul)


def direct_product(g1, g2):
    """G1 x G2; index a*|G2| + b encodes the pair (a, b)."""
    pairs = [(a, b) for a in range(g1.order) for b in range(g2.order)]
    return group_from_rule(pairs, lambda x, y: (g1.op(x[0], y[0]), g2.op(x[1], y[1])))


def klein_four():
    return direct_product(cyclic(2), cyclic(2))


# --- G-groups ----------------------------------------------------------------


class GGroup(Frozen):
    """A finite group with an action of a finite group G by automorphisms."""

    group: FiniteGroup  # G
    carrier: FiniteGroup  # A
    action: tuple  # action[g] = permutation of carrier indices

    def __post_init__(self):
        g, a = self.group, self.carrier
        act = tuple([tuple(p) for p in self.action])
        object.__setattr__(self, "action", act)
        if len(act) != g.order:
            raise InvalidInput("need one automorphism per group element")
        mul = a.table
        points = list(range(a.order))
        for p in act:
            if sorted(p) != points:
                raise InvalidInput("action value is not a bijection")
            # p(x * y) = p(x) * p(y), one row x at a time
            for x, row in enumerate(mul):
                px = mul[p[x]]
                if [p[xy] for xy in row] != [px[py] for py in p]:
                    raise InvalidInput("action value is not an automorphism")
        for s, row in enumerate(g.table):
            ps = act[s]
            for t, st in enumerate(row):
                if act[st] != tuple([ps[y] for y in act[t]]):
                    raise InvalidInput("action is not a homomorphism")

    def act(self, g, x):
        return self.action[g][x]


def _trusted_ggroup(group, carrier, action):
    """The GGroup on an action, given as a tuple of tuples, that the calling
    construction keeps an action by automorphisms.  Actions from outside go
    through the validating GGroup(...); this skips its checks."""
    obj = object.__new__(GGroup)
    for name, value in zip(GGroup._fields, (group, carrier, action)):
        object.__setattr__(obj, name, value)
    return obj


def trivial_action(group, carrier):
    ident = tuple(range(carrier.order))
    return _trusted_ggroup(group, carrier, (ident,) * group.order)


def conjugation_action(group, carrier, generator_images):
    """Action of G on A where g acts by conjugation by an element of A.

    generator_images maps each G-index to a carrier index c; g acts by
    x -> c x c^-1.  The homomorphism property is validated by GGroup.
    """
    act = tuple(
        tuple(carrier.conj(generator_images[g], x) for x in range(carrier.order))
        for g in range(group.order)
    )
    return GGroup(group, carrier, act)


# --- cocycles (finite carriers) ----------------------------------------------


def is_cocycle(gg, values):
    """values[g] in A with phi(gh) = phi(g) * (g . phi(h)) for all g, h."""
    mul = gg.carrier.table
    if len(values) != gg.group.order:
        return False
    for s, row in enumerate(gg.group.table):
        left, ps = mul[values[s]], gg.action[s]
        if [values[st] for st in row] != [left[ps[v]] for v in values]:
            return False
    return True


def cocycles_equivalent(gg, phi, psi):
    """Witness a with a * psi(g) = phi(g) * (g . a) for all g, else None."""
    g, a = gg.group, gg.carrier
    for w in range(a.order):
        if all(
            a.op(w, psi[s]) == a.op(phi[s], gg.act(s, w)) for s in range(g.order)
        ):
            return w
    return None


def enumerate_cocycles(gg):
    """All of Z^1, in iproduct order of the values on the generators.

    With (gens, tree, off_tree) = G.word_tree, each assignment phi(gens[k])
    = a_k is extended along the tree from phi(1) = 1 by phi(x * gens[k]) =
    phi(x) * (x . a_k), and kept iff the cocycle identity holds on every
    edge: phi(x * s) = phi(x) * (x . phi(s)) for every x in G and every s in
    gens.  The tree edges hold by construction, so only the off_tree ones
    are tested: k * |G| - (|G| - 1) checks for k generators, where
    is_cocycle makes |G|^2.

    The edge identity implies phi(x * t) = phi(x) * (x . phi(t)) for all x
    and t, by induction on the length of t as a word in gens.  For t = 1 it
    reads phi(x) = phi(x) * (x . 1).  For t = u * s with s in gens,
        phi(x * u * s) = phi(x * u) * (x * u . phi(s))           (edge x * u, s)
                       = phi(x) * (x . phi(u)) * (x . (u . phi(s)))   (for u)
                       = phi(x) * (x . (phi(u) * (u . phi(s))))
                       = phi(x) * (x . phi(u * s)),                  (edge u, s)
    as each x acts by an automorphism.  So exactly the cocycles pass, and
    each cocycle is found from its values on gens.
    """
    mul, act = gg.carrier.table, gg.action
    gens, tree, off_tree = gg.group.word_tree
    out = []
    for assignment in iproduct(range(gg.carrier.order), repeat=len(gens)):
        phi = [gg.carrier.identity] * len(act)
        for y, x, k in tree:
            phi[y] = mul[phi[x]][act[x][assignment[k]]]
        for x, k, y in off_tree:
            if phi[y] != mul[phi[x]][act[x][assignment[k]]]:
                break
        else:
            out.append(tuple(phi))
    return out


class H1Set(Frozen):
    """H^1(G, A) for a finite carrier: representatives plus the full Z^1.

    class_index maps every cocycle to the index of its class; it is derived
    from the other fields and left out of equality, hashing and repr.
    """

    ggroup: GGroup
    representatives: tuple
    base_point: int  # index into representatives of the trivial class
    cocycles: tuple
    class_index: dict

    _uncompared = ("class_index",)

    @property
    def size(self):
        return len(self.representatives)

    def class_of(self, values):
        try:
            return self.class_index[tuple(values)]
        except KeyError:
            raise InvalidInput("not equivalent to any representative") from None


def h1_finite(gg):
    """Classify Z^1 in enumeration order: each cocycle not yet indexed is the
    next representative, and its whole A-orbit g -> w^-1 * z(g) * (g.w), the
    relation cocycles_equivalent tests, gets its index."""
    a = gg.carrier
    mul, inv = a.table, a._inv
    cocycles = enumerate_cocycles(gg)
    class_index = {}
    reps = []
    for z in cocycles:
        if z in class_index:
            continue
        for w in range(a.order):
            left = mul[inv[w]]
            orbit_point = tuple([mul[left[v]][p[w]] for v, p in zip(z, gg.action)])
            class_index[orbit_point] = len(reps)
        reps.append(z)
        if len(class_index) == len(cocycles):
            break
    trivial = tuple([a.identity] * gg.group.order)
    return H1Set(gg, tuple(reps), class_index[trivial], tuple(cocycles), class_index)


# --- twisting ----------------------------------------------------------------


def _twisted_action(gg, phi):
    """The action twisted by a cocycle phi in the carrier: g . x =
    phi(g) * (g.x) * phi(g)^-1, one permutation of the carrier per g."""
    mul, inv = gg.carrier.table, gg.carrier._inv
    # rows from lists: tuple() of a generator over-allocates and shrinks each
    # row, and that churn fragments the heap enough to raise peak RSS
    rows = []
    for c, p in zip(phi, gg.action):
        left, ci = mul[c], inv[c]
        rows.append(tuple([mul[left[y]][ci] for y in p]))
    return tuple(rows)


def _restricted(embed, action):
    """The carrier permutations in action, restricted to a subgroup whose
    i-th element is the carrier element embed[i], as permutations of the
    subgroup's indices (each must keep the image of embed stable)."""
    pos = {e: i for i, e in enumerate(embed)}
    return tuple([tuple([pos[p[e]] for e in embed]) for p in action])


def twist_subgroup(ambient, sub_elements, phi):
    """Twist the action on a G-stable normal subgroup A' of A by a cocycle in A.

    New action: g . x = phi(g) * (g.x) * phi(g)^-1, restricted to A'.
    """
    g, a = ambient.group, ambient.carrier
    a.check_elements(sub_elements, "sub_elements")
    a.check_elements(phi, "phi")
    sub = frozenset(sub_elements)
    if not a.is_subgroup(sub):
        raise InvalidInput("sub_elements is not a subgroup")
    if not a.is_normal(sub):
        raise NotNormal("subgroup is not normal in the ambient carrier")
    for s in range(g.order):
        for x in sub:
            if ambient.act(s, x) not in sub:
                raise NotStable("subgroup is not G-stable")
    if not is_cocycle(ambient, phi):
        raise InvalidInput("phi is not a cocycle in the ambient G-group")
    sub_group, embed = a.subgroup_group(sub)
    act = _restricted(embed, _twisted_action(ambient, phi))
    return _trusted_ggroup(g, sub_group, act), embed


# --- exact sequence of pointed sets -------------------------------------------


class ShortExactSequence(Frozen):
    """1 -> A' -> A -> A'' -> 1 of G-groups with explicit maps.

    inclusion[i] is the A-index of the i-th A'-element; projection[j] is the
    A''-index of the j-th A-element.  Exactness and G-equivariance are
    validated on construction.
    """

    sub: GGroup
    mid: GGroup
    quot: GGroup
    inclusion: tuple
    projection: tuple

    def __post_init__(self):
        ap, a, aq = self.sub.carrier, self.mid.carrier, self.quot.carrier
        g = self.mid.group
        if self.sub.group is not g and self.sub.group.table != g.table:
            raise NotExactInput("G differs between terms")
        if self.quot.group is not g and self.quot.group.table != g.table:
            raise NotExactInput("G differs between terms")
        inc, proj = self.inclusion, self.projection
        a.check_elements(inc, "inclusion")
        if sorted(set(inc)) != sorted(inc) or len(inc) != ap.order:
            raise NotExactInput("inclusion is not injective")
        if set(proj) != set(range(aq.order)) or len(proj) != a.order:
            raise NotExactInput("projection is not surjective onto A''")
        for x in range(ap.order):
            for y in range(ap.order):
                if inc[ap.op(x, y)] != a.op(inc[x], inc[y]):
                    raise NotExactInput("inclusion is not a homomorphism")
        for x in range(a.order):
            for y in range(a.order):
                if proj[a.op(x, y)] != aq.op(proj[x], proj[y]):
                    raise NotExactInput("projection is not a homomorphism")
        img = set(inc)
        ker = {x for x in range(a.order) if proj[x] == aq.identity}
        if img != ker:
            raise NotExactInput("image of inclusion differs from kernel")
        if not a.is_normal(img):
            raise NotExactInput("image of inclusion is not normal")
        for s in range(g.order):
            for x in range(ap.order):
                if self.mid.act(s, inc[x]) != inc[self.sub.act(s, x)]:
                    raise NotExactInput("inclusion is not G-equivariant")
            for x in range(a.order):
                if proj[self.mid.act(s, x)] != self.quot.act(s, proj[x]):
                    raise NotExactInput("projection is not G-equivariant")

    @cached_property
    def h1_mid(self):
        """H^1(G, A), classified once per sequence."""
        return h1_finite(self.mid)

    @cached_property
    def h1_quot(self):
        """H^1(G, A''), classified once per sequence."""
        return h1_finite(self.quot)

    @cached_property
    def h1_mid_to_quot(self):
        """H^1(G, A) -> H^1(G, A'') as a class-index dictionary."""
        return {
            i: self.h1_quot.class_of(tuple([self.projection[v] for v in rep]))
            for i, rep in enumerate(self.h1_mid.representatives)
        }

    @cached_property
    def lift(self):
        """lift[j]: the first A-element that projects to the j-th A''-element."""
        first = {}
        for x, j in enumerate(self.projection):
            first.setdefault(j, x)
        return tuple(first[j] for j in range(self.quot.carrier.order))

    @cached_property
    def _sub_index(self):
        """The A'-index of each A-element in the image of the inclusion."""
        return {e: i for i, e in enumerate(self.inclusion)}


def invariants(gg):
    """A^G, in index order."""
    return _fixed_points(gg.action)


def _fixed_points(action):
    """The points that every permutation in action fixes, in index order."""
    return [x for x, images in enumerate(zip(*action)) if images.count(x) == len(images)]


def _pull_back(ses, aq_elem, theta, action):
    """g -> a^-1 * theta(g) * (g.a) as A'-indices, for a the lift of a'' and
    theta a cochain in A' (A'-indices), under the action given as one
    permutation of A per g."""
    mul, inc = ses.mid.carrier.table, ses.inclusion
    lift = ses.lift[aq_elem]
    left = mul[ses.mid.carrier._inv[lift]]
    pos = ses._sub_index
    values = []
    for t, p in zip(theta, action):
        v = mul[left[inc[t]]][p[lift]]
        if v not in pos:
            raise NotExactInput("pulled-back cocycle left the subgroup")
        values.append(pos[v])
    return tuple(values)


def connecting_map(ses, aq_elem):
    """delta: A''^G -> H^1(G, A'): lift a'' to a in A, g -> a^-1 * (g.a)."""
    ses.quot.carrier.check_elements((aq_elem,), "aq_elem")
    trivial = (ses.sub.carrier.identity,) * ses.mid.group.order
    return _pull_back(ses, aq_elem, trivial, ses.mid.action)


class ExactSequenceReport(Frozen):
    h0_sub: tuple
    h0_mid: tuple
    h0_quot: tuple
    h1_sub: H1Set
    h1_mid: H1Set
    h1_quot: H1Set
    exact_at: dict
    maps: dict = None


def les_of_pointed_sets(ses):
    """The six maps of the induced sequence of pointed sets, with exactness
    verified at every interior node (image = fiber over the base point).

    maps holds the explicit data: invariant inclusions/projections as element
    dictionaries, the connecting map on quotient invariants, and the two
    induced maps on H^1 as class-index dictionaries.  exact_at is read off
    their images and their fibers over the base points.
    """
    aq = ses.quot.carrier
    h0p = invariants(ses.sub)
    h0 = invariants(ses.mid)
    h0q = invariants(ses.quot)
    h1p = h1_finite(ses.sub)
    h1 = ses.h1_mid
    h1q = ses.h1_quot
    maps = {
        "h0_sub_to_mid": {x: ses.inclusion[x] for x in h0p},
        "h0_mid_to_quot": {x: ses.projection[x] for x in h0},
        "connecting": {
            x: h1p.class_of(connecting_map(ses, x)) for x in h0q
        },
        "h1_sub_to_mid": {
            i: h1.class_of(tuple([ses.inclusion[v] for v in rep]))
            for i, rep in enumerate(h1p.representatives)
        },
        "h1_mid_to_quot": dict(ses.h1_mid_to_quot),
    }

    def image(name):
        return set(maps[name].values())

    def fiber(name, base):
        return {x for x, y in maps[name].items() if y == base}

    exact_at = {
        "mid_invariants": image("h0_sub_to_mid")
        == fiber("h0_mid_to_quot", aq.identity),
        "quot_invariants": image("h0_mid_to_quot")
        == fiber("connecting", h1p.base_point),
        "h1_sub": image("connecting") == fiber("h1_sub_to_mid", h1.base_point),
        "h1_mid": image("h1_sub_to_mid") == fiber("h1_mid_to_quot", h1q.base_point),
    }
    return ExactSequenceReport(
        tuple(h0p), tuple(h0), tuple(h0q), h1p, h1, h1q, exact_at, maps
    )


def twist_fiber_check(ses, phi):
    """Check the fiber-orbit description for the fiber through [phi].

    The fiber of H1(G,A) -> H1(G,A'') through [phi] is matched against the
    orbit set of H1(G, A'_phi) under the twisted A''^G-action, through the
    explicit translation theta -> theta * phi.  Returns a report dict.

    The sequence has checked that A' is normal and G-stable in A, and the
    keys of h1_mid.class_index are all of Z^1(G, A).  So phi is a cocycle
    when it is such a key, and its twist of A' is an action by automorphisms
    built on the sequence's own A' and inclusion, with no checks left.
    """
    g = ses.mid.group
    a = ses.mid.carrier
    a.check_elements(phi, "phi")
    h1 = ses.h1_mid
    phi = tuple(phi)
    if phi not in h1.class_index:
        raise InvalidInput("phi must be a cocycle in A")
    to_quot = ses.h1_mid_to_quot
    phi_class = h1.class_index[phi]
    fiber = {i for i, j in to_quot.items() if j == to_quot[phi_class]}

    twisted = _twisted_action(ses.mid, phi)
    embed = ses.inclusion
    h1p_tw = h1_finite(_trusted_ggroup(g, ses.sub.carrier, _restricted(embed, twisted)))

    # the identity of (A''_phi)^G lifts into A', so it fixes every class
    twisted_q = _twisted_action(ses.quot, [ses.projection[v] for v in phi])
    ident_q = ses.quot.carrier.identity
    inv_q_tw = [x for x in _fixed_points(twisted_q) if x != ident_q]

    # right action of (A''_phi)^G on H1(G, A'_phi), on class indices
    def act_on_class(ci, aq_elem):
        theta = h1p_tw.representatives[ci]
        return h1p_tw.class_of(_pull_back(ses, aq_elem, theta, twisted))

    orbits = _orbit_partition(range(h1p_tw.size), inv_q_tw, act_on_class)

    # translation map: theta -> theta * phi, into H1(G, A); the keys of
    # h1.class_index are all of Z^1(G, A), so a product outside them is no
    # cocycle
    mul = a.table
    images = []
    for orbit in orbits:
        reps_img = set()
        for cj in orbit:
            theta = h1p_tw.representatives[cj]
            prod = tuple([mul[embed[t]][f] for t, f in zip(theta, phi)])
            if prod not in h1.class_index:
                raise NotExactInput("translated cocycle is invalid")
            reps_img.add(h1.class_index[prod])
        images.append(reps_img)

    well_defined = all(len(v) == 1 for v in images)
    image_classes = {next(iter(v)) for v in images} if well_defined else set()
    injective = well_defined and len(image_classes) == len(orbits)
    surjective = well_defined and image_classes == fiber
    return {
        "phi_class": phi_class,
        "fiber_size": len(fiber),
        "orbit_count": len(orbits),
        "well_defined": well_defined,
        "injective": injective,
        "surjective": surjective,
        "bijection": well_defined and injective and surjective,
    }


# --- conjugacy classes of finite subgroups ------------------------------------


def torsion_elements(gamma, order_bound=24):
    """Torsion elements among words of the generated matrix group, detected by
    exact order computation (bounded)."""
    out = []
    for el in gamma.elements_up_to():
        order = la.matrix_order(el.matrix, order_bound)
        if order is not None:
            out.append((el.matrix, order))
    return out


def finite_subgroup_classes_matrix(gamma):
    """Conjugacy classes of finite subgroups of a matrix group, by bounded
    enumeration: finite subgroups generated by torsion words, deduplicated by
    conjugation with words up to the group's word bound.  Flagged
    BoundedSearch."""
    ident = la.identity_matrix(gamma.lattice.rank)
    torsion = [m for m, _ in torsion_elements(gamma)]
    subgroups = extension_subgroups(torsion, la.mat_mul, ident, bound=64)
    conjugators = [el.matrix for el in gamma.elements_up_to()]
    classes = conjugacy_representatives(subgroups, conjugators, la.mat_mul, gamma.inverse)
    return classes, "BoundedSearch"


# --- filtration driver ---------------------------------------------------------


def filtration_driver_finite(group, chain, g_group):
    """Finiteness driver for a finite group with a declared filtration.

    chain is a descending list of subgroups of `group`, each required to be
    normal in the whole group (ambient normality).  g_group is the acting
    GGroup structure on `group` (its carrier must be `group`).  The driver
    computes H^1 directly, plus per-layer data and the bound on orders of
    finite subgroups: the product of the layer quotient orders, which is |G|.
    """
    if g_group.carrier.table != group.table:
        raise InvalidInput("g_group carrier differs from the filtered group")
    for c in chain:
        group.check_elements(c, "chain member")
    full = frozenset(range(group.order))
    layers = [full] + [frozenset(c) for c in chain]
    if layers[-1] != frozenset({group.identity}):
        layers.append(frozenset({group.identity}))
    for i, sub in enumerate(layers):
        if not group.is_subgroup(sub):
            raise InvalidInput("chain member is not a subgroup")
        if not group.is_normal(sub):
            raise NotNormal("chain member is not normal in the ambient group")
        if i and not sub <= layers[i - 1]:
            raise InvalidInput("chain is not descending")
    per_layer = [
        {"index": i, "quotient_order": len(upper) // len(lower), "type": "Finite"}
        for i, (upper, lower) in enumerate(zip(layers, layers[1:]))
    ]
    h1 = h1_finite(g_group)
    return {
        "h1_size": h1.size,
        "h1": h1,
        "per_layer": per_layer,
        "finite_subgroup_order_bound": group.order,
    }


# f.g. abelian machinery used by the split driver ------------------------------


class FgAbelian(Frozen):
    """Z^free_rank + Z/d1 + ... with d1 | d2 | ...; elements are int tuples."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        if self.free_rank < 0:
            raise InvalidInput("free rank must be nonnegative")
        for i, d in enumerate(self.torsion):
            if d <= 1:
                raise InvalidInput("torsion factors must exceed 1")
            if i and d % self.torsion[i - 1] != 0:
                raise InvalidInput("torsion factors must divide in order")

    @property
    def dim(self):
        return self.free_rank + len(self.torsion)

    def normalize(self, v):
        out = list(v)
        for i, d in enumerate(self.torsion):
            out[self.free_rank + i] %= d
        return tuple(out)

    def relation_columns(self):
        cols = []
        for i, d in enumerate(self.torsion):
            col = [0] * self.dim
            col[self.free_rank + i] = d
            cols.append(tuple(col))
        return cols


class AbelianGGroup(Frozen):
    """A finitely generated abelian group with a G-action by integer matrices."""

    group: FiniteGroup
    module: FgAbelian
    action: tuple  # action[g] = integer matrix (dim x dim)

    def __post_init__(self):
        g, m = self.group, self.module
        if len(self.action) != g.order:
            raise InvalidInput("need one matrix per group element")
        for mat in self.action:
            _check_module_matrix(m, mat)
        for s in range(g.order):
            t = g.inv(s)
            comp = la.mat_mul(self.action[s], self.action[t])
            if not _module_matrices_equal(m, comp, la.identity_matrix(m.dim)):
                raise InvalidInput("action matrices are not invertible on the module")
        for s in range(g.order):
            for t in range(g.order):
                comp = la.mat_mul(self.action[s], self.action[t])
                target = self.action[g.op(s, t)]
                if not _module_matrices_equal(m, comp, target):
                    raise InvalidInput("action is not a homomorphism")


def _check_module_matrix(module, mat):
    dim = module.dim
    if len(mat) != dim or any(len(row) != dim for row in mat):
        raise InvalidInput("matrix size does not match the module")
    zero = (0,) * dim
    for col in module.relation_columns():
        if module.normalize(la.mat_vec(mat, col)) != zero:
            raise InvalidInput("matrix does not respect torsion relations")


def _module_matrices_equal(module, m1, m2):
    """Whether m1 and m2 induce the same endomorphism of the module: each
    column of m1 - m2 is zero in it."""
    n = module.dim
    zero = (0,) * n
    return all(
        module.normalize([m1[i][j] - m2[i][j] for i in range(n)]) == zero
        for j in range(n)
    )


def _h1_smith(agg):
    """H^1(G, M) = Z^1 / (B^1 + relation shifts), read off one Smith form.

    With (gens, tree, off_tree) = G.word_tree, a cocycle is its values on
    gens: the tree writes phi(x * gens[k]) = phi(x) + x . phi(gens[k]) as an
    integer matrix in them, and Z^1 lifts to the values for which that
    identity also holds on every off_tree edge modulo the relations of M
    (the proof that the edges suffice is in enumerate_cocycles).  That is
    the kernel of one row per off_tree edge and coordinate, with one slack
    column per torsion row.  A slack column has one nonzero entry, so
    cutting the slack off int_kernel's basis leaves a basis of Z^1.  With
    B^1 (s -> s.a - a on gens) and the relation shifts of each generator's
    block written in that basis as the rows of C and U*C*V = D, a cocycle
    with Z^1 coordinates c lies in the class (c*V)_j mod d_j.  Returns
    (factors, reps, elements, class_of): the invariant factors above 1, one
    cocycle per factor (the class with (c*V)_j = 1 there and 0 elsewhere),
    every class as the combination of reps with coefficients
    0 <= c_j < factors_j in iproduct order, and the map from a cocycle to
    the index of its class in that list.
    """
    g, m = agg.group, agg.module
    n, ng, r = m.dim, g.order, m.free_rank
    gens, tree, off_tree = g.word_tree
    big = n * len(gens)
    expand = {g.identity: [[0] * big for _ in range(n)]}

    def step(x, k):
        # phi(x) + x . phi(gens[k]) as a matrix in the generator values
        mat = [list(row) for row in expand[x]]
        for i, row in enumerate(agg.action[x]):
            for j, a in enumerate(row):
                mat[i][k * n + j] += a
        return mat

    for y, x, k in tree:
        expand[y] = step(x, k)

    def values(lift):
        return tuple(m.normalize(la.mat_vec(expand[y], lift)) for y in range(ng))

    # phi(y) - phi(x) - x . phi(gens[k]) = 0 on each off_tree edge
    rows = []
    width, slack = big + len(off_tree) * len(m.torsion), big
    for x, k, y in off_tree:
        for i, row in enumerate(step(x, k)):
            row = [a - b for a, b in zip(expand[y][i], row)] + [0] * (width - big)
            if i >= r:
                row[slack] = -m.torsion[i - r]
                slack += 1
            rows.append(row)
    z_gens = [k[:big] for k in la.int_kernel(rows)]
    basis_t = la.transpose(z_gens) or ((),) * big  # Z^1 = 0: big rows, only 0 solves
    # coboundaries s -> s.e_i - e_i, then the relation shifts of each block
    b_gens = [
        tuple(agg.action[s][j][i] - (i == j) for s in gens for j in range(n))
        for i in range(n)
    ]
    b_gens += [
        tuple(col[j] if u == k else 0 for u in range(len(gens)) for j in range(n))
        for k in range(len(gens))
        for col in m.relation_columns()
    ]
    coeffs = []
    for bg in b_gens:
        sol = la.solve_int(basis_t, bg)
        if sol is None:
            raise InvalidInput("coboundary lattice not inside the cocycle lattice")
        coeffs.append(sol)
    d, _, v = la.snf(tuple(coeffs))
    diag = [d[i][i] if i < len(d) else 0 for i in range(len(z_gens))]
    assert all(x != 0 for x in diag), "H^1 of a f.g. abelian G-module must be finite"
    ones = diag.count(1)
    factors = tuple(diag[ones:])
    # |G| annihilates the quotient: every invariant factor divides |G|
    assert all(ng % f == 0 for f in factors), factors
    # column j: the lift of the class with (c*V)_j = 1, c = row j of V^-1
    gen_lifts = la.mat_mul(basis_t, la.transpose(la.unimodular_inverse(v)))
    reps = [values(col) for col in la.transpose(gen_lifts)[ones:]]
    elements = [
        values(la.mat_vec(gen_lifts, (0,) * ones + c))
        for c in iproduct(*[range(f) for f in factors])
    ]
    class_rows = la.transpose(v)[ones:]

    def class_of(cocycle):
        lift = tuple(x for s in gens for x in cocycle[s])
        c = la.solve_int(basis_t, lift)
        if c is None or values(lift) != tuple(map(m.normalize, cocycle)):
            raise InvalidInput("not a cocycle of the module")
        index = 0
        for f, y in zip(factors, la.mat_vec(class_rows, c)):
            index = index * f + y % f
        return index

    return factors, reps, elements, class_of


def h1_abelian(agg):
    """H^1(G, M) for a f.g. abelian carrier, via integer lattices.

    Returns (invariant_factors, representative cocycles), one representative
    per factor; the free rank is always zero (the result is |G|-torsion)
    and asserted.
    """
    factors, reps, _, _ = _h1_smith(agg)
    return factors, reps


def h1_abelian_elements(agg):
    """All classes of H^1(G, M) as explicit cocycles (one per class)."""
    factors, _, elements, _ = _h1_smith(agg)
    return elements, factors


class SplitExtensionSpec(Frozen):
    """A = K x| Q with K a f.g. abelian module and Q finite acting on K.

    q_action[q] is the integer matrix by which the Q-element acts; validity
    (automorphisms, homomorphism) is checked through AbelianGGroup.
    """

    kernel_module: FgAbelian
    quotient: FiniteGroup
    q_action: tuple

    def __post_init__(self):
        AbelianGGroup(self.quotient, self.kernel_module, self.q_action)


def filtration_driver_split(spec, g):
    """Finiteness driver for A = K x| Q, G acting trivially (Lemma-style).

    Every class of H^1(G, Q) lifts through the section; the fiber through the
    lift of psi is the orbit set of H^1(G, K_psi) under the centralizer of
    im(psi) in Q, acting by theta -> q^-1 . theta.  Returns the total size,
    per-fiber data, representatives as (kernel value, quotient value) pairs,
    and the assembled order bound for finite subgroups.
    """
    q_group = spec.quotient
    m = spec.kernel_module
    h1q = h1_finite(trivial_action(g, q_group))
    fibers = []
    total = 0
    representatives = []
    for rep in h1q.representatives:
        act = tuple(spec.q_action[rep[s]] for s in range(g.order))
        factors, _, elements, class_of = _h1_smith(AbelianGGroup(g, m, act))
        centralizer = [
            q
            for q in range(q_group.order)
            if all(q_group.conj(rep[s], q) == q for s in range(g.order))
        ]

        def move(idx, q):
            # the listed class of q^-1 . theta
            mat = spec.q_action[q_group.inv(q)]
            return class_of([la.mat_vec(mat, v) for v in elements[idx]])

        orbits = _orbit_partition(range(len(elements)), centralizer, move)
        fiber_size = len(orbits)
        total += fiber_size
        for orbit in orbits:
            theta = elements[min(orbit)]
            representatives.append(
                tuple((theta[s], rep[s]) for s in range(g.order))
            )
        fibers.append(
            {
                "quotient_class": rep,
                "h1_kernel_factors": factors,
                "fiber_size": fiber_size,
            }
        )
    torsion_order = 1
    for d in m.torsion:
        torsion_order *= d
    return {
        "h1_size": total,
        "fibers": fibers,
        "representatives": representatives,
        "finite_subgroup_order_bound": torsion_order * q_group.order,
        "per_layer": [
            {"index": 0, "type": "Finite", "quotient_order": q_group.order},
            {
                "index": 1,
                "type": "FgAbelian",
                "free_rank": m.free_rank,
                "torsion": m.torsion,
            },
        ],
    }


# --- real structure classifier -------------------------------------------------


class KleinGroupData(Frozen):
    """A finite Klein group: carrier K, sign character eps, anti-involution."""

    carrier: FiniteGroup
    eps: tuple  # eps[k] in {+1, -1}
    sigma: int

    def __post_init__(self):
        k = self.carrier
        if len(self.eps) != k.order:
            raise InvalidInput("eps must be defined on all of K")
        k.check_elements((self.sigma,), "sigma")
        for a in range(k.order):
            for b in range(k.order):
                if self.eps[k.op(a, b)] != self.eps[a] * self.eps[b]:
                    raise InvalidInput("eps is not a homomorphism")
        if -1 not in self.eps:
            raise NoAntiInvolution("eps is not surjective")
        if self.eps[self.sigma] != -1 or k.op(self.sigma, self.sigma) != k.identity:
            raise NoAntiInvolution("sigma must be an anti-involution")

    def kernel(self):
        return [x for x in range(self.carrier.order) if self.eps[x] == 1]


def real_structure_classifier(kg):
    """Classify anti-involutions of a Klein group two ways and compare.

    Direct: involutions in the eps = -1 part up to conjugation by the kernel.
    Cohomological: H^1(Z/2, ker eps) with the conjugation-by-sigma action,
    matched through phi -> phi(s) * sigma.  Also checks that K-conjugacy of
    anti-involutions implies kernel-conjugacy.
    """
    k = kg.carrier
    a_elems = kg.kernel()
    anti_invs = [
        x
        for x in range(k.order)
        if kg.eps[x] == -1 and k.op(x, x) == k.identity
    ]
    # direct classes under A-conjugacy
    direct = _classes_under(k, anti_invs, a_elems)
    # H1 route: Z/2 acting on the kernel by conjugation with sigma
    conj = [[k.conj(c, x) for x in range(k.order)] for c in (k.identity, kg.sigma)]
    # a G-action by construction: sigma is an involution, ker eps is normal
    kernel, embed = k.subgroup_group(a_elems)
    h1 = h1_finite(_trusted_ggroup(cyclic(2), kernel, _restricted(embed, conj)))
    mapped = []
    for rep in h1.representatives:
        anti = k.op(embed[rep[1]], kg.sigma)
        mapped.append(anti)
    assert all(m in anti_invs for m in mapped)
    mapped_classes = _classes_under(k, mapped, a_elems)
    # K-conjugacy vs A-conjugacy (Remark: conjugate by sigma*f when f is anti)
    k_classes = _classes_under(k, anti_invs, list(range(k.order)))
    remark_holds = len(k_classes) == len(direct)
    return {
        "direct_classes": direct,
        "h1_size": h1.size,
        "h1_representatives": h1.representatives,
        "h1_mapped_classes": mapped_classes,
        "paths_agree": mapped_classes == direct and h1.size == len(direct),
        "k_conjugacy_equals_kernel_conjugacy": remark_holds,
    }


def _classes_under(group, elements, conjugators):
    """The least member of each class of elements under the conjugators."""
    orbits = _orbit_partition(elements, conjugators, lambda x, c: group.conj(c, x))
    return sorted(min(o) for o in orbits)


# --- inner twist bijection ------------------------------------------------------


def inner_twist_bijection(g_group, ambient, sub_elements, sigma):
    """Compare H^1(G, A_conj-sigma) with H^1(G, A_trivial).

    When some homomorphism G -> A realizes the conjugation action inside A
    (always the case when sigma lies in A and has order dividing the G-order
    structure), the canonical twisting bijection theta -> theta * phi0 is
    constructed and verified; otherwise the two sets are compared
    exhaustively and matched in canonical order, flagged mode="cardinality".
    Raises NotInner when sigma does not normalize A or conjugation by sigma
    is incompatible with the G-action requested.
    """
    k = ambient
    sub = sorted(set(sub_elements))
    k.check_elements(sub, "sub_elements")
    k.check_elements((sigma,), "sigma")
    if not k.is_subgroup(sub):
        raise InvalidInput("sub_elements is not a subgroup of the ambient group")
    for x in sub:
        if k.conj(sigma, x) not in sub:
            raise NotInner("sigma does not normalize the subgroup")
    g = g_group
    gens = g.word_tree[0]
    if len(gens) > 1:
        raise NotInner("inner twist needs a cyclic acting group")
    # the conjugation action: gen^e acts by conjugation with sigma^e
    gen = gens[0] if gens else g.identity
    conj = [None] * g.order
    s, power = g.identity, k.identity
    for _ in range(g.order):
        conj[s] = [k.conj(power, x) for x in range(k.order)]
        s, power = g.op(s, gen), k.op(power, sigma)
    sub_group, embed = k.subgroup_group(sub)
    try:
        gg_conj = GGroup(g, sub_group, _restricted(embed, conj))
    except InvalidInput as exc:
        raise NotInner("conjugation by sigma is not a valid G-action") from exc
    gg_triv = trivial_action(g, sub_group)
    h1_conj = h1_finite(gg_conj)
    h1_triv = h1_finite(gg_triv)
    # canonical route: find phi0 in Hom(G, A), which is Z^1 for the trivial
    # action, with conj(phi0(g)) = action(g): the trivial action twisted by phi0
    phi0 = next(
        (z for z in h1_triv.cocycles if _twisted_action(gg_triv, z) == gg_conj.action),
        None,
    )
    report = {
        "h1_inner_size": h1_conj.size,
        "h1_trivial_size": h1_triv.size,
        "sigma_in_subgroup": sigma in sub,
    }
    if phi0 is not None:
        pairs = []
        ok = True
        image_classes = set()
        for rep in h1_conj.representatives:
            translated = tuple(
                sub_group.op(rep[s], phi0[s]) for s in range(g.order)
            )
            # the keys of class_index are all of Z^1
            ci = h1_triv.class_index.get(translated)
            if ci is None:
                ok = False
                break
            image_classes.add(ci)
            pairs.append((rep, h1_triv.representatives[ci]))
        bijective = ok and len(image_classes) == h1_conj.size == h1_triv.size
        report.update(
            mode="canonical",
            bijection_holds=bool(bijective),
            pairs=tuple(pairs) if bijective else (),
        )
        return report
    matched = h1_conj.size == h1_triv.size
    report.update(
        mode="cardinality",
        bijection_holds=bool(matched),
        pairs=tuple(zip(h1_conj.representatives, h1_triv.representatives))
        if matched
        else (),
    )
    return report

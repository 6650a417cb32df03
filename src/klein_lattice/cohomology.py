"""Non-abelian group cohomology H^1(G, A) for finite G.

Cocycles, equivalence, twisting, the six-term exact sequence of pointed sets,
the fiber-orbit description of the last map, conjugacy classification of
finite subgroups, the filtration finiteness driver, and the real-structure
classifier for finite Klein groups.
"""

from functools import cached_property
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


def extension_subgroups(candidates, mul, identity, bound=None, allowed=None):
    """Every subgroup generated by candidates that subgroup_closure accepts,
    by cyclic extension: adjoin one candidate to a found subgroup and close
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).

    Each subgroup is reached through a chain of subgroups that it contains,
    so with `allowed` the result is exactly the subgroups inside `allowed`.
    A closure depends only on its generating set, so each set is closed once.
    """
    trivial = frozenset({identity})
    found = {trivial}
    closed = set()
    frontier = [trivial]
    while frontier:
        h = frontier.pop()
        for t in candidates:
            if t in h:
                continue
            gens = h | {t}
            if gens in closed:
                continue
            closed.add(gens)
            k = subgroup_closure(gens, mul, identity, bound, allowed)
            if k is not None and k not in found:
                found.add(k)
                frontier.append(k)
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


def cyclic(n):
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
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k."""
    rules = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1),
        ("1", "k"): ("k", 1), ("i", "1"): ("i", 1), ("j", "1"): ("j", 1),
        ("k", "1"): ("k", 1), ("i", "i"): ("1", -1), ("j", "j"): ("1", -1),
        ("k", "k"): ("1", -1), ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
        ("j", "k"): ("i", 1), ("k", "j"): ("i", -1), ("k", "i"): ("j", 1),
        ("i", "k"): ("j", -1),
    }

    def base_sign(s):
        return (s[1], -1) if s.startswith("-") else (s[0], 1)

    def mul(a, b):
        ba, sa = base_sign(a)
        bb, sb = base_sign(b)
        base, sign = rules[(ba, bb)]
        return base if sign * sa * sb == 1 else "-" + base

    return group_from_rule(("1", "-1", "i", "-i", "j", "-j", "k", "-k"), mul)


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
        act = tuple(tuple(p) for p in self.action)
        object.__setattr__(self, "action", act)
        if len(act) != g.order:
            raise InvalidInput("need one automorphism per group element")
        for p in act:
            if sorted(p) != list(range(a.order)):
                raise InvalidInput("action value is not a bijection")
            for x in range(a.order):
                for y in range(a.order):
                    if p[a.op(x, y)] != a.op(p[x], p[y]):
                        raise InvalidInput("action value is not an automorphism")
        for s in range(g.order):
            for t in range(g.order):
                st = g.op(s, t)
                for x in range(a.order):
                    if act[st][x] != act[s][act[t][x]]:
                        raise InvalidInput("action is not a homomorphism")

    def act(self, g, x):
        return self.action[g][x]


def trivial_action(group, carrier):
    ident = tuple(range(carrier.order))
    return GGroup(group, carrier, tuple(ident for _ in range(group.order)))


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
    g, a = gg.group, gg.carrier
    if len(values) != g.order:
        return False
    for s in range(g.order):
        for t in range(g.order):
            lhs = values[g.op(s, t)]
            rhs = a.op(values[s], gg.act(s, values[t]))
            if lhs != rhs:
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
    """All of Z^1: generator assignments extended along a BFS word tree and
    validated on the full multiplication table."""
    g, a = gg.group, gg.carrier
    gens = g.generating_set()
    if not gens:
        return [tuple([a.identity] * g.order)]
    # BFS expressing every element as (previous element) * generator
    parent = {g.identity: None}
    order_seen = [g.identity]
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in gens:
                y = g.op(x, gen)
                if y not in parent:
                    parent[y] = (x, gen)
                    order_seen.append(y)
                    nxt.append(y)
        frontier = nxt
    out = []
    for assignment in iproduct(range(a.order), repeat=len(gens)):
        val = {g.identity: a.identity}
        gen_val = dict(zip(gens, assignment))
        for y in order_seen[1:]:
            x, gen = parent[y]
            # phi(x * gen) = phi(x) * (x . phi(gen))
            val[y] = a.op(val[x], gg.act(x, gen_val[gen]))
        values = tuple(val[s] for s in range(g.order))
        if is_cocycle(gg, values):
            out.append(values)
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
    g, a = gg.group, gg.carrier
    cocycles = enumerate_cocycles(gg)
    class_index = {}
    reps = []
    for z in cocycles:
        if z in class_index:
            continue
        for w in range(a.order):
            wi = a.inv(w)
            orbit_point = tuple(
                a.op(a.op(wi, z[s]), gg.act(s, w)) for s in range(g.order)
            )
            class_index[orbit_point] = len(reps)
        reps.append(z)
    trivial = tuple([a.identity] * g.order)
    return H1Set(gg, tuple(reps), class_index[trivial], tuple(cocycles), class_index)


# --- twisting ----------------------------------------------------------------


def _twisted_action(gg, phi):
    """The action twisted by a cocycle phi in the carrier: g . x =
    phi(g) * (g.x) * phi(g)^-1, one permutation of the carrier per g."""
    a = gg.carrier
    # rows from lists: tuple() of a generator over-allocates and shrinks each
    # row, and that churn fragments the heap enough to raise peak RSS
    return tuple(
        tuple([a.conj(phi[s], gg.act(s, x)) for x in range(a.order)])
        for s in range(gg.group.order)
    )


def _restricted(group, sub_group, embed, action):
    """The G-group on sub_group, whose i-th element is the carrier element
    embed[i], acted on by the carrier permutations in action (which must
    keep the image of embed stable)."""
    pos = {e: i for i, e in enumerate(embed)}
    act = tuple(tuple(pos[p[e]] for e in embed) for p in action)
    return GGroup(group, sub_group, act)


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
    return _restricted(g, sub_group, embed, _twisted_action(ambient, phi)), embed


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
            i: self.h1_quot.class_of(tuple(self.projection[v] for v in rep))
            for i, rep in enumerate(self.h1_mid.representatives)
        }

    @cached_property
    def lift(self):
        """lift[j]: the first A-element that projects to the j-th A''-element."""
        first = {}
        for x, j in enumerate(self.projection):
            first.setdefault(j, x)
        return tuple(first[j] for j in range(self.quot.carrier.order))


def invariants(gg):
    g, a = gg.group, gg.carrier
    return [x for x in range(a.order) if all(gg.act(s, x) == x for s in range(g.order))]


def connecting_map(ses, aq_elem):
    """delta: A''^G -> H^1(G, A'): lift a'' to a in A, g -> a^-1 * (g.a)."""
    a = ses.mid.carrier
    ses.quot.carrier.check_elements((aq_elem,), "aq_elem")
    lift = ses.lift[aq_elem]
    inc_pos = {e: i for i, e in enumerate(ses.inclusion)}
    values = []
    for s in range(ses.mid.group.order):
        v = a.op(a.inv(lift), ses.mid.act(s, lift))
        if v not in inc_pos:
            raise NotExactInput("connecting map left the subgroup")
        values.append(inc_pos[v])
    return tuple(values)


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
            i: h1.class_of(tuple(ses.inclusion[v] for v in rep))
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

    The sequence has checked that A' is normal and G-stable in A, so the
    twist of A' is built on the sequence's own A' and inclusion and needs no
    more checks than those of its G-group.
    """
    g = ses.mid.group
    a = ses.mid.carrier
    a.check_elements(phi, "phi")
    if not is_cocycle(ses.mid, phi):
        raise InvalidInput("phi must be a cocycle in A")
    h1 = ses.h1_mid
    to_quot = ses.h1_mid_to_quot
    phi_class = h1.class_of(phi)
    fiber = {i for i, j in to_quot.items() if j == to_quot[phi_class]}

    twisted = _twisted_action(ses.mid, phi)
    embed = ses.inclusion
    h1p_tw = h1_finite(_restricted(g, ses.sub.carrier, embed, twisted))

    twisted_q = _twisted_action(ses.quot, tuple(ses.projection[v] for v in phi))
    inv_q_tw = [
        x for x in range(ses.quot.carrier.order) if all(p[x] == x for p in twisted_q)
    ]

    # right action of (A''_phi)^G on H1(G, A'_phi), on class indices
    pos_in_a = {e: i for i, e in enumerate(embed)}

    def act_on_class(ci, aq_elem):
        theta = h1p_tw.representatives[ci]
        lift = ses.lift[aq_elem]
        vals = []
        for s in range(g.order):
            v = a.op(a.op(a.inv(lift), embed[theta[s]]), twisted[s][lift])
            if v not in pos_in_a:
                raise NotExactInput("orbit action left the subgroup")
            vals.append(pos_in_a[v])
        return h1p_tw.class_of(vals)

    orbits = []
    for ci in range(h1p_tw.size):
        if not any(ci in orbit for orbit in orbits):
            orbits.append(subgroup_closure(inv_q_tw, act_on_class, ci))

    # translation map: theta -> theta * phi, into H1(G, A)
    images = {}
    for oi, orbit in enumerate(orbits):
        reps_img = set()
        for cj in orbit:
            theta = h1p_tw.representatives[cj]
            prod = tuple(a.op(embed[theta[s]], phi[s]) for s in range(g.order))
            if not is_cocycle(ses.mid, prod):
                raise NotExactInput("translated cocycle is invalid")
            reps_img.add(h1.class_of(prod))
        images[oi] = reps_img

    well_defined = all(len(v) == 1 for v in images.values())
    image_classes = {next(iter(v)) for v in images.values()} if well_defined else set()
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


def finite_subgroup_classes_matrix(gamma, conj_bound=None):
    """Conjugacy classes of finite subgroups of a matrix group, by bounded
    enumeration: finite subgroups generated by torsion words, deduplicated by
    conjugation with words up to the bound.  Flagged BoundedSearch."""
    ident = la.identity_matrix(gamma.lattice.rank)
    torsion = [m for m, _ in torsion_elements(gamma)]
    subgroups = extension_subgroups(torsion, la.mat_mul, ident, bound=64)
    conjugators = [el.matrix for el in gamma.elements_up_to(conj_bound)]
    classes = conjugacy_representatives(
        subgroups, conjugators, la.mat_mul, la.unimodular_inverse
    )
    return classes, "BoundedSearch"


# --- filtration driver ---------------------------------------------------------


def filtration_driver_finite(group, chain, g_group):
    """Finiteness driver for a finite group with a declared filtration.

    chain is a descending list of subgroups of `group`, each required to be
    normal in the whole group (ambient normality).  g_group is the acting
    GGroup structure on `group` (its carrier must be `group`).  The driver
    computes H^1 directly, plus per-layer data and the assembled bound on
    orders of finite subgroups.
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
    per_layer = []
    order_bound = 1
    for i in range(len(layers) - 1):
        upper, lower = layers[i], layers[i + 1]
        quot_size = len(upper) // len(lower)
        order_bound *= quot_size
        per_layer.append({"index": i, "quotient_order": quot_size, "type": "Finite"})
    h1 = h1_finite(g_group)
    return {
        "h1_size": h1.size,
        "h1": h1,
        "per_layer": per_layer,
        "finite_subgroup_order_bound": order_bound,
    }


# f.g. abelian machinery used by the split driver ------------------------------


class FgAbelian(Frozen):
    """Z^free_rank + Z/d1 + ... with d1 | d2 | ...; elements are int tuples."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
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
            if not _module_matrix_is_identity(m, comp):
                raise InvalidInput("action matrices are not invertible on the module")
        for s in range(g.order):
            for t in range(g.order):
                comp = la.mat_mul(self.action[s], self.action[t])
                target = self.action[g.op(s, t)]
                if not _module_matrices_equal(m, comp, target):
                    raise InvalidInput("action is not a homomorphism")

    def act(self, g, v):
        return self.module.normalize(la.mat_vec(self.action[g], v))


def _check_module_matrix(module, mat):
    r, dim = module.free_rank, module.dim
    if len(mat) != dim or any(len(row) != dim for row in mat):
        raise InvalidInput("matrix size does not match the module")
    for j, d in enumerate(module.torsion):
        col = [mat[i][module.free_rank + j] for i in range(dim)]
        for i in range(r):
            if d * col[i] != 0:
                raise InvalidInput("matrix does not respect torsion relations")
        for i, di in enumerate(module.torsion):
            if (d * col[r + i]) % di != 0:
                raise InvalidInput("matrix does not respect torsion relations")


def _module_matrices_equal(module, m1, m2):
    r = module.free_rank
    for j in range(module.dim):
        for i in range(module.dim):
            diff = m1[i][j] - m2[i][j]
            if i < r:
                if diff != 0:
                    return False
            else:
                if diff % module.torsion[i - r] != 0:
                    return False
    return True


def _module_matrix_is_identity(module, mat):
    return _module_matrices_equal(module, mat, la.identity_matrix(module.dim))


def h1_abelian(agg):
    """H^1(G, M) for a f.g. abelian carrier, via integer lattices.

    Cocycles are stored on all of G; Z^1 and B^1 + relation shifts are
    computed as integer lattices and the quotient extracted with Smith normal
    form.  Returns (invariant_factors, representative cocycles); the free
    rank is always zero (the result is |G|-torsion) and asserted.
    """
    g = agg.group
    m = agg.module
    n = m.dim
    ng = g.order
    big = n * ng

    def slot(s, i):
        return s * n + i

    rel_cols = m.relation_columns()
    # cocycle condition rows: for each (s, t): phi(st) - phi(s) - s.phi(t) = 0
    rows = []
    for s in range(ng):
        for t in range(ng):
            st = g.op(s, t)
            for i in range(n):
                row = [0] * big
                row[slot(st, i)] += 1
                row[slot(s, i)] -= 1
                for j in range(n):
                    if agg.action[s][i][j]:
                        row[slot(t, j)] -= agg.action[s][i][j]
                rows.append(tuple(row))
    # target relations: each condition row is modulo the torsion of coord i
    # solve: rows * x = R_t * y  ->  kernel of [rows | -R_t]
    cond_count = len(rows)
    rel_per_row = []
    for idx in range(cond_count):
        i = idx % n
        if i >= m.free_rank:
            rel_per_row.append(m.torsion[i - m.free_rank])
        else:
            rel_per_row.append(0)
    aug_cols = [k for k, d in enumerate(rel_per_row) if d != 0]
    width = big + len(aug_cols)
    aug = []
    for ridx, row in enumerate(rows):
        ext = list(row) + [0] * len(aug_cols)
        if ridx in aug_cols:
            ext[big + aug_cols.index(ridx)] = -rel_per_row[ridx]
        aug.append(tuple(ext))
    kernel = la.int_kernel(tuple(aug))
    z_gens = [k[:big] for k in kernel]
    # coboundaries: for each module generator, g -> (g.e_i - e_i)
    b_gens = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        vec = [0] * big
        for s in range(ng):
            img = la.mat_vec(agg.action[s], tuple(e))
            for j in range(n):
                vec[slot(s, j)] = img[j] - e[j]
        b_gens.append(tuple(vec))
    # relation shifts inside Maps(G, M)
    for s in range(ng):
        for col in rel_cols:
            vec = [0] * big
            for j in range(n):
                vec[slot(s, j)] = col[j]
            b_gens.append(tuple(vec))
    if not z_gens:
        return (), []
    hk, _ = la.row_hnf(tuple(z_gens))
    basis = [row for row in hk if not la.is_zero_vector(row)]
    coeffs = []
    for bg in b_gens:
        sol = la.solve_int(la.transpose(tuple(basis)), bg)
        if sol is None:
            raise InvalidInput("coboundary lattice not inside the cocycle lattice")
        coeffs.append(sol)
    rho = len(basis)
    if not coeffs:
        coeffs = [tuple([0] * rho)]
    d, _, v = la.snf(tuple(coeffs))
    diag = [d[i][i] for i in range(min(len(d), rho))]
    diag += [0] * (rho - len(diag))
    assert all(x != 0 for x in diag), "H^1 of a f.g. abelian G-module must be finite"
    factors = tuple(x for x in diag if x > 1)
    # |G| annihilates the quotient: every invariant factor divides |G|
    assert all(g.order % f == 0 for f in factors), factors
    # representatives: columns of V beyond nothing -- new basis f_j = sum V^T
    vinv = la.unimodular_inverse(v)
    reps = []
    for j, x in enumerate(diag):
        if x > 1:
            coeff_row = vinv[j] if j < len(vinv) else None
            rep = [0] * big
            for c, brow in zip(coeff_row, basis):
                if c:
                    for k in range(big):
                        rep[k] += c * brow[k]
            values = []
            for s in range(ng):
                values.append(m.normalize(tuple(rep[slot(s, i)] for i in range(n))))
            reps.append(tuple(values))
    return factors, reps


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


def h1_abelian_elements(agg):
    """All classes of H^1(G, M) as explicit cocycles (one per class)."""
    factors, reps = h1_abelian(agg)
    if not factors:
        zero = tuple(
            tuple([0] * agg.module.dim) for _ in range(agg.group.order)
        )
        return [zero], factors
    out = []
    for coeffs in iproduct(*[range(f) for f in factors]):
        values = []
        for s in range(agg.group.order):
            v = [0] * agg.module.dim
            for c, rep in zip(coeffs, reps):
                if c:
                    for i in range(agg.module.dim):
                        v[i] += c * rep[s][i]
            values.append(agg.module.normalize(tuple(v)))
        out.append(tuple(values))
    return out, factors


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
        k_agg = AbelianGGroup(g, m, act)
        elements, factors = h1_abelian_elements(k_agg)
        centralizer = [
            q
            for q in range(q_group.order)
            if all(q_group.conj(rep[s], q) == q for s in range(g.order))
        ]

        def move(idx, q):
            # the listed class of q^-1 . theta
            qinv = q_group.inv(q)
            moved = tuple(
                m.normalize(la.mat_vec(spec.q_action[qinv], v)) for v in elements[idx]
            )
            for j, other in enumerate(elements):
                if cocycles_equivalent_abelian(k_agg, moved, other) is not None:
                    return j
            raise InvalidInput("a moved cocycle matches no listed class")

        orbits = []
        for idx in range(len(elements)):
            if not any(idx in orbit for orbit in orbits):
                orbits.append(sorted(subgroup_closure(centralizer, move, idx)))
        fiber_size = len(orbits)
        total += fiber_size
        for orbit in orbits:
            theta = elements[orbit[0]]
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
    kernel, embed = k.subgroup_group(a_elems)
    h1 = h1_finite(_restricted(cyclic(2), kernel, embed, conj))
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
    classes = []
    seen = set()
    for x in elements:
        if x in seen:
            continue
        orbit = {group.conj(c, x) for c in conjugators}
        seen |= orbit
        classes.append(min(orbit))
    return sorted(classes)


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
    gens = g.generating_set()
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
        gg_conj = _restricted(g, sub_group, embed, conj)
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
            if not is_cocycle(gg_triv, translated):
                ok = False
                break
            ci = h1_triv.class_of(translated)
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

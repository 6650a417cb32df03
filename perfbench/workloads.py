"""The four closed-loop workloads: seeded inputs, tasks, output checks.

Each workload is a class with the same four steps:

- ``setup(rng)`` imports what it needs from ``klein_lattice`` and builds the
  fixtures (certificates, groups, tables).  The worker times it as set-up.
- ``deck(rng, index)`` returns one deck of tasks.  Every deck has the same
  task kinds and sizes; the seed shuffles the deck and draws the inputs, or,
  where the inputs set the cost, moves fixed inputs to an equivalent form.
  Runs end on a deck boundary, so the share of each kind (and the share of
  known-defect CLI requests) is the same in every run.
- ``run(task)`` performs one user-level request and returns its output.
  Only this step is timed.
- ``check(task, output)`` returns ``None`` when the output is right and a
  one-line reason otherwise; ``canon(task, output)`` gives the JSON-able form
  that goes into the output digest.

Only public names of the library are called, and nothing is imported from
the repository's tests.  The checks use the benchmark's own arithmetic
(word enumeration, involution counts) wherever that is cheap, so that they
do not just repeat the library's code path.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))

# --- small exact helpers, independent of the library --------------------------


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, c)) for c in cols) for row in a)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def inverse_unimodular(m):
    """Integer inverse of a 2x2 or 3x3 matrix with determinant +-1."""
    n = len(m)
    if n == 2:
        (a, b), (c, d) = m
        det = a * d - b * c
        return ((d * det, -b * det), (-c * det, a * det))
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            cof[i][j] = (-1) ** (i + j) * (
                minor[0][0] * minor[1][1] - minor[0][1] * minor[1][0]
            )
    det = sum(m[0][j] * cof[0][j] for j in range(n))
    return tuple(tuple(cof[j][i] * det for j in range(n)) for i in range(n))


def words_up_to(gens, length):
    """Distinct group elements reached by words of length <= length in the
    generators and their inverses (identity included), by breadth-first
    search.  Returns {matrix: word length}."""
    n = len(gens[0])
    moves = list(dict.fromkeys(list(gens) + [inverse_unimodular(g) for g in gens]))
    seen = {identity(n): 0}
    frontier = [identity(n)]
    for depth in range(1, length + 1):
        nxt = []
        for m in frontier:
            for g in moves:
                p = mat_mul(g, m)
                if p not in seen:
                    seen[p] = depth
                    nxt.append(p)
        frontier = nxt
    return seen


def to_json(x):
    """Canonical JSON-able form: tuples/sets become lists, Fractions "p/q"."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): to_json(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (frozenset, set)):
        return sorted((to_json(v) for v in x), key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(x, (list, tuple)):
        return [to_json(v) for v in x]
    raise TypeError(f"cannot canonicalise {type(x).__name__}")


def count_involution_classes(table, elements, conjugators):
    """Classes of involutions among `elements` under conjugation by
    `conjugators`, from a multiplication table."""
    n = len(table)
    ident = next(e for e in range(n) if all(table[e][x] == x for x in range(n)))
    inv = [next(y for y in range(n) if table[x][y] == ident) for x in range(n)]
    invols = [x for x in elements if x != ident and table[x][x] == ident]
    seen, classes = set(), 0
    for x in invols:
        if x in seen:
            continue
        classes += 1
        seen |= {table[table[c][x]][inv[c]] for c in conjugators}
    return classes


# --- domain_queries -----------------------------------------------------------

# fundamental solutions of x^2 - k y^2 = 1; [[x, k y], [y, x]] is an isometry
# of diag(2, -2k) preserving the positive component
PELL_UNITS = {2: (3, 2), 3: (2, 1), 5: (9, 4), 6: (5, 2), 7: (8, 3), 10: (19, 6)}
REFLECTION = ((1, 0), (0, -1))
SWAP_YZ = ((1, 0, 0), (0, 0, 1), (0, 1, 0))


def pell_matrix(k):
    x, y = PELL_UNITS[k]
    return ((x, k * y), (y, x))


class DomainQueries:
    """Reduction into Dirichlet domains: seeded covering/disjointness
    verification and membership verdicts on certificates built in set-up."""

    name = "domain_queries"
    trace_decks = 2

    def setup(self, rng):
        from klein_lattice import cones
        from klein_lattice.cones import PositiveCone, dirichlet_domain, find_trivial_stabilizer_point
        from klein_lattice.isometry import GeneratedGroup, Isometry
        from klein_lattice.lattice import IntegerLattice

        # calls go through the module, so that a traced run sees them
        self.cones = cones
        self.certs = []  # (label, cert, generator matrices, known non-members)
        for k in sorted(PELL_UNITS):
            lat = IntegerLattice(((2, 0), (0, -2 * k)))
            pos = PositiveCone(lat, (1, 0))
            p = pell_matrix(k)
            gamma = GeneratedGroup(
                lat, (Isometry(lat, p),), word_bound=20, component_base=(1, 0)
            )
            cert = dirichlet_domain(gamma, pos, (1, 0), word_bound=20)
            # every member has determinant 1, so reflected words are outside
            self.certs.append((f"pell{k}", cert, (p,), (REFLECTION,)))
        lat3 = IntegerLattice(((2, 0, 0), (0, -2, 0), (0, 0, -2)))
        pos3 = PositiveCone(lat3, (1, 0, 0))
        flips = (((1, 0, 0), (0, -1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
        gamma3 = GeneratedGroup(
            lat3, tuple(Isometry(lat3, m) for m in flips), word_bound=6,
            component_base=(1, 0, 0),
        )
        xi3 = find_trivial_stabilizer_point(gamma3, pos3)
        # the group is the four diagonal sign flips; swapping y and z is an
        # isometry outside it
        self.certs.append(
            ("signflip", dirichlet_domain(gamma3, pos3, xi3), flips, (SWAP_YZ,))
        )
        lat2 = IntegerLattice(((2, 0), (0, -4)))
        pos2 = PositiveCone(lat2, (1, 0))
        dgens = (pell_matrix(2), REFLECTION)
        gamma2 = GeneratedGroup(
            lat2, tuple(Isometry(lat2, m) for m in dgens), word_bound=12,
            component_base=(1, 0),
        )
        self.certs.append(
            ("dihedral", dirichlet_domain(gamma2, pos2, (3, -1), word_bound=12), dgens, ())
        )

    def deck(self, rng, index):
        tasks = []
        for ci, (label, _, gens, outsiders) in enumerate(self.certs):
            # the sizes are the same in every deck, so that runs of different
            # lengths do the same mix of work; the seed picks the sample
            # points and the words
            tasks.append({
                "kind": "verify", "cert": ci, "label": label,
                "samples": 20 + 5 * (ci % 5), "sample_seed": rng.randrange(10**9),
                "word_len": 4 + (3 * ci) % 5,
            })
            queries = []
            for length in (1, 2, 3, 4, 5, 6, 3, 4):
                word = [rng.randrange(len(gens)) for _ in range(length)]
                m = identity(len(gens[0]))
                for g in word:
                    m = mat_mul(gens[g], m)
                queries.append((m, "in"))
                if outsiders:
                    queries.append((mat_mul(rng.choice(outsiders), m), "out"))
            tasks.append({"kind": "member", "cert": ci, "label": label, "queries": queries})
        rng.shuffle(tasks)
        return tasks

    def run(self, task):
        cert = self.certs[task["cert"]][1]
        if task["kind"] == "verify":
            report, _ = self.cones.verify_fundamental_domain(
                cert, samples=task["samples"], seed=task["sample_seed"],
                disjoint_word_len=task["word_len"],
            )
            return report
        tester = self.cones.make_membership_tester(cert)
        return [tester(m) for m, _ in task["queries"]]

    def check(self, task, out):
        if task["kind"] == "member":
            want = [v for _, v in task["queries"]]
            if list(out) != want:
                return f"membership verdicts {list(out)} != {want}"
            return None
        cov, dis = out["covering"], out["disjointness"]
        if cov["status"] != "pass" or dis["status"] != "pass":
            return "verification did not pass"
        if cov["samples"] != task["samples"]:
            return "covering used the wrong number of samples"
        gens = self.certs[task["cert"]][2]
        words = len(words_up_to(gens, task["word_len"])) - 1
        if dis["checked"] != words:
            return f"disjointness checked {dis['checked']} translates, expected {words}"
        return None

    def canon(self, task, out):
        return {"label": task["label"], "kind": task["kind"], "out": to_json(out)}


# --- cone_build -----------------------------------------------------------------


def random_halfspaces(rng, dim, count):
    """Constraints with e1 strictly inside, of full rank: a pointed,
    full-dimensional cone."""
    while True:
        hs = [
            tuple([rng.randint(1, 4)] + [rng.randint(-3, 3) for _ in range(dim - 1)])
            for _ in range(count)
        ]
        if rank(hs) == dim:
            return hs


def random_rays(rng, dim, count):
    """Rays in the open half-space x0 > 0, of full rank: a pointed,
    full-dimensional cone."""
    while True:
        rays = [
            tuple([rng.randint(1, 4)] + [rng.randint(-3, 3) for _ in range(dim - 1)])
            for _ in range(count)
        ]
        if rank(rays) == dim:
            return rays


def rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def primitive(v):
    den = 1
    for x in v:
        if isinstance(x, Fraction):
            den = den * x.denominator // gcd(den, x.denominator)
    w = [int(x * den) for x in v]
    g = 0
    for x in w:
        g = gcd(g, abs(x))
    return tuple(x // g for x in w)


def rational_inverse(rows):
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def facets_of(dim, rays):
    """Facet normals of the pointed, full-dimensional cone spanned by `rays`.

    They are the extreme rays of the dual cone.  Double description inserts
    the rays one at a time, starting from the simplicial cone of a basis
    among them.  Two dual rays are adjacent iff no third ray's tight set
    contains their common tight set (Fukuda and Prodon 1996), so tight sets
    are int bitmasks and no rank is computed.  This is the benchmark's own
    check, independent of the library's code."""
    basis, rest = [], []
    for r in rays:
        if len(basis) < dim and rank(basis + [r]) == len(basis) + 1:
            basis.append(r)
        else:
            rest.append(r)
    inv = rational_inverse(basis)
    # column j of the inverse is tight on every basis ray but the j-th
    current = [
        (primitive([inv[i][j] for i in range(dim)]), ((1 << dim) - 1) ^ (1 << j))
        for j in range(dim)
    ]
    for k, h in enumerate(rest, dim):
        pos, neg, kept = [], [], []
        for y, tight in current:
            d = dot(h, y)
            if d > 0:
                pos.append((y, tight, d))
                kept.append((y, tight))
            elif d < 0:
                neg.append((y, tight, d))
            else:
                kept.append((y, tight | 1 << k))
        for p, tp, dp in pos:
            for n, tn, dn in neg:
                common = tp & tn
                if bin(common).count("1") < dim - 2 or any(
                    t & common == common and y is not p and y is not n for y, t in current
                ):
                    continue
                kept.append((primitive([dp * a - dn * b for a, b in zip(n, p)]), common | 1 << k))
        current = kept
    return {y for y, _ in current}


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def signed_permutation(rng, dim, permute=True):
    perm = list(range(dim))
    if permute:
        rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    return lambda v: tuple(signs[i] * v[perm[i]] for i in range(dim))


class ConeBuild:
    """Double description on random pointed cones in dimensions 4-6, with
    dim+4 to dim+8 constraints, plus intersections of set-up cones.

    The cost of double description swings several-fold between random cones
    of one size, which made the spread between seeds wider than any useful
    bound.  So the cone shapes come from a fixed stream (deck i of every run
    uses the same shapes), and the seed moves each input by its own signed
    permutation of the coordinates and shuffles the order.  A signed
    permutation maps the cone to an isomorphic one, so the output changes
    with the seed and the work stays close (the library's cost depends on
    coordinate order and signs, so not equal)."""

    name = "cone_build"
    trace_decks = 1

    # per deck and construction side: (dim, constraint count).  Dimension 6
    # is about 6% of the tasks but most of the time, so p90 stays on the
    # dimension-5 population while tasks_per_s feels the dimension-6 wall.
    # Every deck has the same sizes, so runs of different lengths do the same
    # mix of work.
    DECK = [(4, m) for m in (8, 9, 10, 11, 12)] * 2 + [(5, m) for m in (9, 10, 11, 12, 13)]
    DIM6 = {"halfspaces": 14, "rays": 10}
    PAIRS = ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))

    def setup(self, rng):
        from klein_lattice import cones

        self.cones = cones
        shapes = random.Random("cone_build:pool")
        self.pool = {
            dim: [cones.cone_from_halfspaces(dim, random_halfspaces(shapes, dim, dim + 2))
                  for _ in range(4)]
            for dim in (4, 5)
        }

    def deck(self, rng, index):
        shapes = random.Random(f"cone_build:shapes{index}")
        tasks = []
        for side in ("halfspaces", "rays"):
            make = random_halfspaces if side == "halfspaces" else random_rays
            # The dimension-6 shape is the same in every deck, and the seed
            # only flips the signs of its coordinates.  It is most of a
            # deck's time: with a new shape per deck a deck took 1.7-3.6 s,
            # so tasks_per_s moved with the number of whole decks a run
            # completed.  Sign flips move its time by about 20%, a
            # permutation of its coordinates by more.
            dim6 = random.Random(f"cone_build:dim6:h:{side}")
            for dim, m, stream in [(d, m, shapes) for d, m in self.DECK] + [
                (6, self.DIM6[side], dim6)
            ]:
                move = signed_permutation(rng, dim, permute=dim < 6)
                tasks.append({"kind": side, "dim": dim,
                              "input": [move(v) for v in make(stream, dim, m)]})
        for j, dim in enumerate((4, 4, 5)):
            pair = self.PAIRS[(3 * index + j) % len(self.PAIRS)]
            tasks.append({"kind": "intersect", "dim": dim, "pair": pair})
        rng.shuffle(tasks)
        return tasks

    def run(self, task):
        if task["kind"] == "halfspaces":
            return self.cones.cone_from_halfspaces(task["dim"], task["input"])
        if task["kind"] == "rays":
            return self.cones.cone_from_rays(task["dim"], task["input"])
        i, j = task["pair"]
        pool = self.pool[task["dim"]]
        return self.cones.intersect(pool[i], pool[j])

    def check(self, task, cone):
        gens = list(cone.rays) + list(cone.lines) + [tuple(-x for x in l) for l in cone.lines]
        if not cone.rays:
            return "the cone has no rays"
        if task["kind"] == "rays":
            for r in task["input"]:
                if any(dot(h, r) < 0 for h in cone.halfspaces) or any(
                    dot(e, r) != 0 for e in cone.equalities
                ):
                    return f"input ray {r} lies outside the output cone"
        else:
            constraints = task.get("input")
            if task["kind"] == "intersect":
                i, j = task["pair"]
                constraints = self.pool[task["dim"]][i].halfspaces + self.pool[task["dim"]][j].halfspaces
            for h in constraints:
                if any(dot(h, g) < 0 for g in gens):
                    return f"input constraint {h} fails on an output generator"
        for h in cone.halfspaces:
            if any(dot(h, r) < 0 for r in cone.rays):
                return f"output facet {h} fails on an output ray"
        if cone.lines or cone.equalities:
            return "the cone is not pointed and full-dimensional"
        if facets_of(task["dim"], cone.rays) != set(cone.halfspaces):
            return "rebuilding from the output rays gives other facets"
        return None

    def canon(self, task, cone):
        return {
            "kind": task["kind"],
            "rays": to_json(sorted(cone.rays)),
            "lines": to_json(sorted(cone.lines)),
            "halfspaces": to_json(sorted(cone.halfspaces)),
            "equalities": to_json(sorted(cone.equalities)),
        }


# --- group_cohomology -----------------------------------------------------------


class GroupCohomology:
    """Finite-subgroup classes of the infinite dihedral family (matrix path)
    interleaved with finite-table cohomology (table path), 12 matrix tasks
    and 31 table tasks per deck."""

    name = "group_cohomology"
    trace_decks = 1

    # Two matrix tasks per lattice.  Bound 4 goes to the lattices where it
    # costs about the same (0.5 s on a 2-vCPU x86 VM), so that p90 falls
    # inside one tight cluster.  Word bound 5 is left out: one such task
    # takes 0.6-1.0 s there, which would leave too few tasks in a run.
    MATRIX_BOUND = {2: 3, 3: 3, 5: 3, 6: 4, 7: 4, 10: 4}

    def setup(self, rng):
        from klein_lattice import cohomology as co
        from klein_lattice import hodge
        from klein_lattice.cones import (
            PositiveCone,
            dirichlet_domain,
            find_trivial_stabilizer_point,
        )
        from klein_lattice.isometry import GeneratedGroup, Isometry
        from klein_lattice.lattice import IntegerLattice

        self.co = co
        self.GeneratedGroup = GeneratedGroup
        self.hodge = hodge
        self.dihedral = {}
        for k in sorted(PELL_UNITS):
            lat = IntegerLattice(((2, 0), (0, -2 * k)))
            gens = tuple(Isometry(lat, m) for m in (pell_matrix(k), REFLECTION))
            gamma = GeneratedGroup(lat, gens, word_bound=12, component_base=(1, 0))
            pos = PositiveCone(lat, (1, 0))
            xi = find_trivial_stabilizer_point(gamma, pos)
            self.dihedral[k] = (lat, gens, dirichlet_domain(gamma, pos, xi, word_bound=12))
        # the benchmark's own conjugators for matching classes across routes
        self.conjugators = {
            k: list(words_up_to((pell_matrix(k), REFLECTION), 6)) for k in PELL_UNITS
        }

        z2, z3, z4, v4 = co.cyclic(2), co.cyclic(3), co.cyclic(4), co.klein_four()
        s3, d4, q8 = co.symmetric(3), co.dihedral(4), co.quaternion8()
        z6 = co.cyclic(6)
        d6, s4 = co.dihedral(6), co.symmetric(4)
        z2z4 = co.direct_product(z2, z4)
        self.groups = {
            "Z2": z2, "Z3": z3, "Z4": z4, "V4": v4, "Z6": z6, "S3": s3, "D4": d4,
            "Q8": q8, "Z2xZ4": z2z4, "D6": d6, "S4": s4, "Z2xS3": co.direct_product(z2, s3),
        }
        self.ses = self._ses_corpus()
        self.klein = self._klein_groups()
        # every deck runs the same 31 table tasks, so that runs of different
        # lengths have the same mix and p50 sits at the same place in it.
        # With 12 matrix tasks that makes 43, an odd count, and the median
        # of whole decks falls among les tasks of 1.3-1.6 ms, several kinds
        # of nearly the same cost.  With 24 table tasks it fell on the edge
        # between the two ~3 ms subgroup kinds and swung with their outliers.
        self.table = (
            [("les", i) for i in range(0, len(self.ses), 2)]
            + [("subgroups", g) for g in SUBGROUP_CLASSES]
            + [("h1", g) for g in H1_GROUPS]
            + [("real", i) for i in range(len(self.klein))]
        )

    def _ses_corpus(self):
        """Short exact sequences of groups of order <= 8 with trivial action
        of Z2, Z3 or V4, and the inversion action of Z2 on abelian ones."""
        co, g = self.co, self.groups
        s3 = g["S3"]
        a3 = sorted(x for x in range(6) if s3.element_order(x) in (1, 3))
        a3_g, a3_embed = s3.subgroup_group(a3)
        sign = tuple(0 if s3.element_order(x) in (1, 3) else 1 for x in range(6))
        d4_quot, d4_proj = g["D4"].quotient_group({0, 2})
        q8_quot, q8_proj = g["Q8"].quotient_group({0, 1})
        shapes = [
            ("Z2-Z4-Z2", g["Z2"], g["Z4"], g["Z2"], (0, 2), (0, 1, 0, 1), True),
            ("Z2-V4-Z2", g["Z2"], g["V4"], g["Z2"], (0, 2), (0, 1, 0, 1), True),
            ("Z3-Z6-Z2", g["Z3"], g["Z6"], g["Z2"], (0, 2, 4), (0, 1) * 3, True),
            ("A3-S3-Z2", a3_g, s3, g["Z2"], a3_embed, sign, False),
            ("Z4-D4-Z2", g["Z4"], g["D4"], g["Z2"], (0, 1, 2, 3), (0,) * 4 + (1,) * 4, False),
            ("Z4-Q8-Z2", g["Z4"], g["Q8"], g["Z2"], (0, 2, 1, 3), (0,) * 4 + (1,) * 4, False),
            ("Z2-D4-V4", g["Z2"], g["D4"], d4_quot, (0, 2), d4_proj, False),
            ("Z2-Q8-V4", g["Z2"], g["Q8"], q8_quot, (0, 1), q8_proj, False),
        ]
        out = []
        for acting in ("Z2", "Z3", "V4"):
            grp = g[acting]
            for name, sub, mid, quot, inc, proj, abelian in shapes:
                out.append((f"{acting}:{name}", co.ShortExactSequence(
                    co.trivial_action(grp, sub), co.trivial_action(grp, mid),
                    co.trivial_action(grp, quot), inc, proj,
                )))
                if abelian and acting == "Z2":
                    out.append((f"Z2inv:{name}", co.ShortExactSequence(
                        self._inversion(sub), self._inversion(mid), self._inversion(quot),
                        inc, proj,
                    )))
        return out

    def _inversion(self, carrier):
        co = self.co
        ident = tuple(range(carrier.order))
        return co.GGroup(co.cyclic(2), carrier, (ident, tuple(carrier.inv(x) for x in ident)))

    def _klein_groups(self):
        co, g = self.co, self.groups
        s3 = g["S3"]
        sign = tuple(1 if s3.element_order(x) in (1, 3) else -1 for x in range(6))
        return [
            co.KleinGroupData(s3, sign, next(x for x in range(6) if sign[x] == -1)),
            co.KleinGroupData(g["Z2xZ4"], tuple(1 if x < 4 else -1 for x in range(8)), 4),
            co.KleinGroupData(g["D4"], (1,) * 4 + (-1,) * 4, 4),
        ]

    def deck(self, rng, index):
        tasks = [{"kind": "matrix", "k": k, "bound": b} for k, b in self.MATRIX_BOUND.items()] * 2
        tasks += [{"kind": kind, "item": item} for kind, item in self.table]
        rng.shuffle(tasks)
        return tasks

    def run(self, task):
        co, kind = self.co, task["kind"]
        if kind == "matrix":
            lat, gens, cert = self.dihedral[task["k"]]
            gamma = self.GeneratedGroup(lat, gens, word_bound=task["bound"], component_base=(1, 0))
            mat_classes, flag = co.finite_subgroup_classes_matrix(gamma)
            cone_classes, report = self.hodge.classify_finite_subgroups_on_cone(gamma, cert)
            return {"matrix": mat_classes, "flag": flag, "cone": cone_classes, "report": report}
        if kind == "les":
            ses = self.ses[task["item"]][1]
            rep = co.les_of_pointed_sets(ses)
            fibers = [co.twist_fiber_check(ses, phi) for phi in rep.h1_mid.representatives]
            return {
                "exact_at": rep.exact_at,
                "sizes": (rep.h1_sub.size, rep.h1_mid.size, rep.h1_quot.size),
                "h0": (rep.h0_sub, rep.h0_mid, rep.h0_quot),
                "maps": rep.maps,
                "fibers": fibers,
            }
        if kind == "h1":
            h1 = co.h1_finite(co.trivial_action(self.groups["Z2"], self.groups[task["item"]]))
            return {"size": h1.size, "representatives": h1.representatives,
                    "cocycles": len(h1.cocycles)}
        if kind == "real":
            return co.real_structure_classifier(self.klein[task["item"]])
        return self.groups[task["item"]].subgroups_up_to_conjugacy()

    def check(self, task, out):
        kind = task["kind"]
        if kind == "matrix":
            mat, cone = out["matrix"], out["cone"]
            if len(mat) != 3 or len(cone) != 3:
                return f"{len(mat)} matrix classes and {len(cone)} cone classes, expected 3 and 3"
            conj = self.conjugators[task["k"]]
            for cl in cone:
                target = frozenset(cl)
                if not any(
                    frozenset(mat_mul(mat_mul(c, m), inverse_unimodular(c)) for m in h) == target
                    for h in mat
                    for c in conj
                ):
                    return "a cone class has no conjugate among the matrix classes"
            return None
        if kind == "les":
            if not all(out["exact_at"].values()):
                return "the six-term sequence is not exact"
            if not all(f["bijection"] for f in out["fibers"]):
                return "a fiber is not in bijection with its orbit set"
            return None
        if kind == "h1":
            table = self.groups[task["item"]].table
            want = 1 + count_involution_classes(table, range(len(table)), range(len(table)))
            if out["size"] != want:
                return f"|H1(Z/2, K_triv)| = {out['size']}, expected {want}"
            return None
        if kind == "real":
            if not out["paths_agree"] or len(out["direct_classes"]) != out["h1_size"]:
                return "the direct and cohomological classifications disagree"
            kg = self.klein[task["item"]]
            table = kg.carrier.table
            anti = [x for x in range(len(table)) if kg.eps[x] == -1]
            want = count_involution_classes(table, anti, kg.kernel())
            if out["h1_size"] != want:
                return f"{out['h1_size']} real forms, expected {want}"
            return None
        want = SUBGROUP_CLASSES[task["item"]]
        if len(out) != want:
            return f"{len(out)} subgroup classes, expected {want}"
        return None

    def canon(self, task, out):
        return {"task": to_json(task), "out": to_json(out)}


# conjugacy classes of subgroups (1 and the whole group included)
SUBGROUP_CLASSES = {"D6": 10, "Z2xS3": 10, "S4": 11}
# the groups on which Z/2 acts trivially in h1 tasks
H1_GROUPS = ("Z3", "Z4", "V4", "Z6", "S3", "D4", "Q8", "Z2xZ4", "D6", "Z2xS3", "S4")


# --- cli_batch --------------------------------------------------------------------

PELL_GROUP = {
    "lattice": {"gram": [[2, 0], [0, -4]]},
    "generators": [{"matrix": [[3, 4], [2, 3]]}],
    "word_bound": 20,
    "component_base": [1, 0],
}
DOMAIN_CONE = '{"rays": [[2,1],[2,-1]]}'
LATTICE_SUBCOMMANDS = ("signature", "classify", "discriminant", "radical")

class CliBatch:
    """One `python -m klein_lattice.cli` process per request: the README
    commands and malformed inputs."""

    name = "cli_batch"
    trace_decks = 1

    VALID = ("signature_k3", "classify", "discriminant", "isom_check", "definite_group",
             "h1_compute", "cone_domain", "cone_verify", "cone_siegel", "cone_member")
    MALFORMED = ("bad_json", "wrong_type", "non_square", "non_symmetric", "empty_gram",
                 "unknown_name")

    def setup(self, rng):
        import klein_lattice.cli  # noqa: F401  (what every request imports)
        from klein_lattice import serialize as ser
        from klein_lattice.cones import dirichlet_domain
        from klein_lattice.errors import KleinLatticeError

        gamma = ser.generated_group_from_json(PELL_GROUP)
        pos = ser.positive_cone_from_json({"lattice": PELL_GROUP["lattice"], "component_base": [1, 0]})
        cert = dirichlet_domain(gamma, pos, (1, 0), word_bound=20)
        self.cert_json = json.dumps(ser.certificate_to_json(cert), separators=(",", ":"))
        self.error_names = self._subclass_names(KleinLatticeError)
        self.command_env = child_env()
        self.root = os.environ["PERFBENCH_ROOT"]
        self.trace_dir, self.child_traces = None, []

    def set_tracing(self, trace_dir):
        """With a directory, send requests through clichild.py, which
        installs the tracer after the import and writes its numbers there;
        with None, run the CLI itself."""
        self.trace_dir = trace_dir

    @staticmethod
    def _subclass_names(cls):
        out, todo = set(), [cls]
        while todo:
            c = todo.pop()
            out.add(c.__name__)
            todo.extend(c.__subclasses__())
        return out

    def request(self, rng, kind):
        sub = rng.choice(LATTICE_SUBCOMMANDS)
        if kind == "signature_k3":
            return ["lattice", "signature", "--name", rng.choice(["K3", "U", "E8(-1)"])]
        if kind == "classify":
            return ["lattice", "classify", "--in", '{"gram": [[2,0],[0,-4]]}']
        if kind == "discriminant":
            n = rng.randint(2, 9)
            return ["lattice", "discriminant", "--in", f'{{"gram": [[-{n}]]}}']
        if kind == "isom_check":
            return ["isom", "check", "--in", '{"gram": [[2,0],[0,-4]]}',
                    "--matrix", "[[3,4],[2,3]]"]
        if kind == "definite_group":
            return ["isom", "definite-group", "--in", '{"gram": [[-2,0],[0,-2]]}']
        if kind == "h1_compute":
            return ["h1", "compute", "--group", "Z2", "--coeff",
                    rng.choice(["S3", "D4", "Z4", "V4"]), "--action", "trivial"]
        if kind == "cone_domain":
            return ["cone", "domain", "--group", json.dumps(PELL_GROUP), "--base", "1,0",
                    "--xi", "1,0", "--bound", str(rng.randint(8, 20))]
        if kind == "cone_verify":
            return ["cone", "verify", "--cert", self.cert_json, "--samples",
                    str(rng.randint(10, 30)), "--seed", str(rng.randrange(1000)),
                    "--disjoint-bound", str(rng.randint(4, 8))]
        if kind == "cone_siegel":
            return ["cone", "siegel", "--group", json.dumps(PELL_GROUP), "--base", "1,0",
                    "--pi1", DOMAIN_CONE, "--pi2", DOMAIN_CONE, "--bound", "10"]
        if kind == "cone_member":
            x, y = rng.randint(-5, 5), rng.randint(-5, 5)
            return ["cone", "member", "--in", '{"gram": [[2,0],[0,-4]]}', "--base", "1,0",
                    f"--point={x},{y}"]
        if kind == "bad_json":
            return ["lattice", sub, "--in", rng.choice(['{"gram": [[1,0]', "{gram: 1}", "[1,,2]"])]
        if kind == "wrong_type":
            return ["lattice", sub, "--in", '{"gram": 5}']
        if kind == "non_square":
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            return ["lattice", sub, "--in", f'{{"gram": [[{a},{b}]]}}']
        if kind == "non_symmetric":
            a, b = rng.randint(1, 5), rng.randint(6, 9)
            return ["lattice", sub, "--in", f'{{"gram": [[2,{a}],[{b},-2]]}}']
        if kind == "empty_gram":
            return ["lattice", sub, "--in", '{"gram": []}']
        if kind == "unknown_name":
            return ["lattice", sub, "--name", rng.choice(["NOPE", "E9", "K4"])]
        raise ValueError(kind)

    def deck(self, rng, index):
        tasks = [{"kind": k, "argv": self.request(rng, k)} for k in self.VALID + self.MALFORMED]
        rng.shuffle(tasks)
        return tasks

    def run(self, task):
        if self.trace_dir is not None:
            return self._run_traced(task)
        proc = subprocess.run(
            [sys.executable, "-m", "klein_lattice.cli"] + task["argv"],
            capture_output=True, text=True, env=self.command_env, cwd=self.root,
            timeout=120,
        )
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def _run_traced(self, task):
        out_file = os.path.join(self.trace_dir, f"cli-{len(self.child_traces)}.json")
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "clichild.py"), out_file] + task["argv"],
            capture_output=True, text=True, env=self.command_env, cwd=self.root,
            timeout=120,
        )
        with open(out_file, encoding="utf-8") as fh:
            child = json.load(fh)
        os.unlink(out_file)
        # the monotonic clock is shared between processes
        child["spawn_s"] = child["started"] - t0
        self.child_traces.append(child)
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def traced_metrics(self, tasks, results, export, spans):
        """Merge the children's traces into the worker's; the cli.* metrics."""
        import tracer

        for i, child in enumerate(self.child_traces):
            tracer.merge(export, child["trace"])
            spans.extend(dict(s, task=i) for s in child["spans"])
        outs = [(task, r[1]) for task, r in zip(tasks, results) if r[1] is not None]
        return {
            "cli.spawn_s": sum(c["spawn_s"] for c in self.child_traces),
            "cli.import_s": sum(c["import_s"] for c in self.child_traces),
            "cli.main_s": sum(c["main_s"] for c in self.child_traces),
            "cli.failed.traceback": sum("Traceback" in o["stderr"] for _, o in outs),
            "cli.failed.accepted_malformed": sum(
                t["kind"] in self.MALFORMED and o["code"] == 0 for t, o in outs),
        }

    def known_defect(self, task, out):
        """The seed-commit response of the two known-defect kinds:
        {"gram": 5} ends in a TypeError traceback and {"gram": []} is
        accepted as a rank-0 lattice.  Both fail their check and count
        against ok_rate, but not as unexpected failures."""
        if task["kind"] == "wrong_type":
            return out["code"] == 1 and "Traceback" in out["stderr"] and "TypeError" in out["stderr"]
        if task["kind"] == "empty_gram":
            return out["code"] == 0
        return False

    def check(self, task, out):
        code, stdout, stderr = out["code"], out["stdout"], out["stderr"]
        if "Traceback" in stderr:
            return "traceback on stderr"
        if task["kind"] in self.MALFORMED:
            if code != 1:
                return f"malformed request exited {code}, expected 1"
            first = stderr.split("\n", 1)[0]
            name = first[len("error: "):].split(":", 1)[0] if first.startswith("error: ") else ""
            if name not in self.error_names:
                return f"stderr does not start with a KleinLatticeError: {first!r}"
            if stdout.strip():
                return "malformed request wrote a report"
            return None
        if code != 0:
            return f"valid request exited {code}"
        try:
            report = json.loads(stdout)
        except ValueError:
            return "report is not JSON"
        if set(report) != {"request", "result", "completeness", "seed", "elapsed_ms"}:
            return f"report keys {sorted(report)}"
        if report["completeness"] not in ("Certified", "BoundedSearch"):
            return "bad completeness flag"
        return self._check_result(task, report["result"])

    def _check_result(self, task, res):
        kind, argv = task["kind"], task["argv"]
        if kind == "signature_k3":
            want = {"K3": (3, 0, 19), "U": (1, 0, 1), "E8(-1)": (0, 0, 8)}[argv[-1]]
            got = res["signature"]
            ok = (got["positive"], got["zero"], got["negative"]) == want
        elif kind == "classify":
            ok = res["type"] == "Hyperbolic"
        elif kind == "discriminant":
            n = int(argv[-1].split("-")[1].split("]")[0])
            ok = res["invariant_factors"] == [n] and res["order"] == n
        elif kind == "isom_check":
            ok = res["isometry"] is True
        elif kind == "definite_group":
            ok = res["order"] == 8
        elif kind == "h1_compute":
            ok = res["h1_size"] == {"S3": 2, "D4": 4, "Z4": 2, "V4": 4}[argv[5]]
        elif kind == "cone_domain":
            ok = sorted(map(tuple, res["halfspaces"])) == [(1, -2), (1, 2)]
        elif kind == "cone_verify":
            rep = res["report"]
            ok = rep["covering"]["status"] == rep["disjointness"]["status"] == "pass"
            ok = ok and rep["disjointness"]["checked"] == 2 * int(argv[-1])
        elif kind == "cone_siegel":
            ok = res["count"] == 3
        else:
            x, y = (int(v) for v in argv[-1].split("=")[1].split(","))
            ok = res["member"] == (2 * x * x - 4 * y * y >= 0 and x > 0 or (x, y) == (0, 0))
        return None if ok else f"{kind}: unexpected result"

    def canon(self, task, out):
        stdout = out["stdout"]
        if stdout.strip():
            try:
                report = json.loads(stdout)
            except ValueError:
                report = stdout
            else:
                report.pop("elapsed_ms", None)
            stdout = report
        return {"argv": task["argv"], "code": out["code"], "stdout": stdout,
                "stderr": out["stderr"].split("\n", 1)[0]}


def child_env():
    """Environment of every process that imports the library.  No process
    writes bytecode and a checkout holds none for ``src``, so each import
    compiles the library from source (the standard library keeps its
    installed bytecode).  An empty PYTHONPYCACHEPREFIX counts as unset."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "KLEIN_LATTICE_THREADS"}
    root = os.environ["PERFBENCH_ROOT"]
    env["PERFBENCH_ROOT"] = root
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPYCACHEPREFIX"] = ""
    env["PYTHONHASHSEED"] = "0"
    return env


WORKLOADS = {w.name: w for w in (DomainQueries, ConeBuild, GroupCohomology, CliBatch)}

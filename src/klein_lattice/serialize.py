"""JSON encoding of all value types.

Numbers are exact: integers stay integers, non-integral rationals are "p/q"
strings.  Floating point never appears.
"""

from fractions import Fraction

from .cones import (
    DomainCertificate,
    PositiveCone,
    cone_from_halfspaces,
    cone_from_rays,
)
from .cohomology import (
    FiniteGroup,
    GGroup,
    cyclic,
    dihedral,
    klein_four,
    quaternion8,
    symmetric,
    trivial_action,
)
from .errors import EmptyInput, ParseError
from .hodge import HodgeLattice, KahlerModel, MonodromySpec
from .isometry import GeneratedGroup, Isometry, KleinIsometry
from .lattice import IntegerLattice, Sublattice, builtin


def rat_to_json(x):
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def rat_from_json(v):
    if isinstance(v, bool):
        raise ParseError("booleans are not numbers")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        parts = v.split("/")
        try:
            if len(parts) == 1:
                return int(parts[0])
            if len(parts) == 2:
                return Fraction(int(parts[0]), int(parts[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {v!r}") from exc
    raise ParseError(f"bad rational {v!r} (floats are not accepted)")


def vec_to_json(v):
    return [rat_to_json(x) for x in v]


def vec_from_json(v):
    if not isinstance(v, list):
        raise ParseError("vector must be a list")
    return tuple(rat_from_json(x) for x in v)


def mat_to_json(m):
    return [vec_to_json(row) for row in m]


def int_vec_from_json(v):
    out = vec_from_json(v)
    for x in out:
        if Fraction(x).denominator != 1:
            raise ParseError("expected integer entries")
    return tuple(int(x) for x in out)


def int_mat_from_json(m):
    if not isinstance(m, list):
        raise ParseError("matrix must be a list of lists")
    rows = tuple(int_vec_from_json(row) for row in m)
    if any(len(row) != len(rows[0]) for row in rows):
        raise ParseError("matrix rows must have equal length")
    return rows


# --- lattices ---------------------------------------------------------------


def lattice_to_json(lat):
    return {"rank": lat.rank, "gram": mat_to_json(lat.gram)}


def lattice_from_json(obj):
    if isinstance(obj, str):
        return builtin(obj)
    if not isinstance(obj, dict):
        raise ParseError("lattice must be a name or an object")
    if "name" in obj:
        return builtin(obj["name"])
    if "gram" not in obj:
        raise ParseError("lattice object needs a gram matrix")
    gram = int_mat_from_json(obj["gram"])
    if not gram:
        raise EmptyInput("gram matrix must have at least one row")
    lat = IntegerLattice(gram)
    if "rank" in obj and obj["rank"] != lat.rank:
        raise ParseError("declared rank does not match the gram matrix")
    return lat


def sublattice_from_json(lat, obj):
    return Sublattice(lat, int_mat_from_json(obj["basis"]))


# --- isometries ----------------------------------------------------------------


def isometry_to_json(iso):
    return {"matrix": mat_to_json(iso.matrix)}


def klein_to_json(k):
    return {"matrix": mat_to_json(k.matrix), "sign": k.sign}


def generated_group_to_json(g):
    gens = []
    for gen in g.generators:
        if isinstance(gen, KleinIsometry):
            gens.append(klein_to_json(gen))
        else:
            gens.append(isometry_to_json(gen))
    out = {
        "lattice": lattice_to_json(g.lattice),
        "generators": gens,
        "word_bound": g.word_bound,
    }
    if g.full_orthogonal_plus:
        out["full_orthogonal_plus"] = True
    if g.component_base is not None:
        out["component_base"] = vec_to_json(g.component_base)
    return out


def generated_group_from_json(obj):
    lat = lattice_from_json(obj["lattice"])
    gens = []
    for g in obj.get("generators", []):
        m = int_mat_from_json(g["matrix"])
        if "sign" in g:
            gens.append(KleinIsometry(Isometry(lat, m), int(g["sign"])))
        else:
            gens.append(Isometry(lat, m))
    base = (
        vec_from_json(obj["component_base"]) if "component_base" in obj else None
    )
    return GeneratedGroup(
        lat,
        tuple(gens),
        word_bound=int(obj.get("word_bound", 12)),
        full_orthogonal_plus=bool(obj.get("full_orthogonal_plus", False)),
        component_base=base,
    )


# --- cones ------------------------------------------------------------------------


def cone_to_json(cone):
    out = {
        "ambient_dim": cone.ambient_dim,
        "rays": mat_to_json(cone.rays),
        "halfspaces": mat_to_json(cone.halfspaces),
    }
    if cone.lines:
        out["lines"] = mat_to_json(cone.lines)
    if cone.equalities:
        out["equalities"] = mat_to_json(cone.equalities)
    return out


def cone_from_json(obj):
    dim = obj.get("ambient_dim")
    if "rays" in obj and obj.get("rays") is not None and "halfspaces" not in obj:
        rays = int_mat_from_json(obj["rays"])
        lines = int_mat_from_json(obj.get("lines", []))
        if dim is None:
            if not rays and not lines:
                raise ParseError("cannot infer the dimension of the zero cone")
            dim = len((rays + lines)[0])
        return cone_from_rays(dim, rays, lines)
    if "halfspaces" in obj and "rays" not in obj:
        hs = int_mat_from_json(obj["halfspaces"])
        eqs = int_mat_from_json(obj.get("equalities", []))
        if dim is None:
            if not hs and not eqs:
                raise ParseError("cannot infer the dimension")
            dim = len((hs + eqs)[0])
        return cone_from_halfspaces(dim, hs, eqs)
    if "rays" in obj and "halfspaces" in obj:
        rays = int_mat_from_json(obj["rays"])
        lines = int_mat_from_json(obj.get("lines", []))
        if dim is None:
            dim = len((rays + lines)[0]) if (rays or lines) else len(obj["halfspaces"][0])
        cone = cone_from_rays(dim, rays, lines)
        return cone
    raise ParseError("cone needs rays or halfspaces")


def positive_cone_to_json(pos):
    return {
        "lattice": lattice_to_json(pos.lattice),
        "component_base": vec_to_json(pos.component_base),
    }


def positive_cone_from_json(obj):
    return PositiveCone(
        lattice_from_json(obj["lattice"]), vec_from_json(obj["component_base"])
    )


def certificate_to_json(cert):
    return {
        "positive_cone": positive_cone_to_json(cert.positive_cone),
        "group": generated_group_to_json(cert.group),
        "xi": vec_to_json(cert.xi),
        "word_bound": cert.word_bound,
        "halfspaces": mat_to_json(cert.halfspaces),
        "domain": cone_to_json(cert.domain),
        "full_cone": cert.full_cone,
        "stabilization_depth": cert.stabilization_depth,
        "orbit_elements": [
            {"matrix": mat_to_json(m), "word": w} for m, w in cert.orbit_elements
        ],
        "rays_in_closure": cert.rays_in_closure,
        "covering_evidence": cert.covering_evidence,
        "disjointness_evidence": cert.disjointness_evidence,
    }


def certificate_from_json(obj):
    pos = positive_cone_from_json(obj["positive_cone"])
    group = generated_group_from_json(obj["group"])
    domain = cone_from_json(obj["domain"])
    return DomainCertificate(
        positive_cone=pos,
        group=group,
        xi=vec_from_json(obj["xi"]),
        word_bound=int(obj["word_bound"]),
        halfspaces=int_mat_from_json(obj["halfspaces"]),
        domain=domain,
        full_cone=bool(obj["full_cone"]),
        stabilization_depth=int(obj["stabilization_depth"]),
        orbit_elements=tuple(
            (int_mat_from_json(e["matrix"]), e.get("word", "?"))
            for e in obj.get("orbit_elements", [])
        ),
        rays_in_closure=bool(obj.get("rays_in_closure", True)),
        covering_evidence=obj.get("covering_evidence"),
        disjointness_evidence=obj.get("disjointness_evidence"),
    )


# --- hodge ---------------------------------------------------------------------------


def hodge_to_json(h):
    return {
        "lattice": lattice_to_json(h.lattice),
        "period_re": vec_to_json(h.period_re),
        "period_im": vec_to_json(h.period_im),
    }


def hodge_from_json(obj):
    return HodgeLattice(
        lattice_from_json(obj["lattice"]),
        vec_from_json(obj["period_re"]),
        vec_from_json(obj["period_im"]),
    )


def monodromy_spec_to_json(spec):
    out = {"kind": spec.kind}
    if spec.kind == "discriminant":
        out["signs"] = list(spec.signs)
        out["require_orientation"] = spec.require_orientation
    if spec.kind == "generators":
        out["generators"] = [mat_to_json(m) for m in spec.generators]
        out["word_bound"] = spec.word_bound
    return out


def monodromy_spec_from_json(obj):
    kind = obj.get("kind")
    if kind == "full_orthogonal_plus":
        return MonodromySpec("full_orthogonal_plus")
    if kind == "discriminant":
        return MonodromySpec(
            "discriminant",
            signs=tuple(obj.get("signs", [1, -1])),
            require_orientation=bool(obj.get("require_orientation", True)),
        )
    if kind == "generators":
        return MonodromySpec(
            "generators",
            generators=tuple(int_mat_from_json(m) for m in obj["generators"]),
            word_bound=int(obj.get("word_bound", 8)),
        )
    raise ParseError(f"unknown monodromy spec kind {kind!r}")


def kahler_model_to_json(km):
    return {
        "cone": cone_to_json(km.cone),
        "embedding": mat_to_json(km.embedding),
        "lattice": lattice_to_json(km.lattice),
    }


def kahler_model_from_json(obj):
    return KahlerModel(
        cone_from_json(obj["cone"]),
        int_mat_from_json(obj["embedding"]),
        lattice_from_json(obj["lattice"]),
    )


# --- finite groups and G-groups --------------------------------------------------------


BUILTIN_GROUPS = {
    "Z1": lambda: cyclic(1),
    "Z2": lambda: cyclic(2),
    "Z3": lambda: cyclic(3),
    "Z4": lambda: cyclic(4),
    "Z5": lambda: cyclic(5),
    "Z6": lambda: cyclic(6),
    "V4": klein_four,
    "Z2xZ2": klein_four,
    "S3": lambda: symmetric(3),
    "S4": lambda: symmetric(4),
    "D4": lambda: dihedral(4),
    "D6": lambda: dihedral(6),
    "Q8": quaternion8,
}


def finite_group_from_json(obj):
    if isinstance(obj, str):
        if obj not in BUILTIN_GROUPS:
            raise ParseError(f"unknown group name {obj!r}")
        return BUILTIN_GROUPS[obj]()
    if isinstance(obj, dict):
        if "name" in obj:
            return finite_group_from_json(obj["name"])
        if "table" in obj:
            table = tuple(tuple(int(x) for x in row) for row in obj["table"])
            return FiniteGroup(table, tuple(obj.get("names", ())) or None)
        if "permutations" in obj:
            return group_from_permutations(
                [tuple(int(x) for x in p) for p in obj["permutations"]]
            )
    raise ParseError("finite group must be a name, a table, or permutation generators")


def group_from_permutations(gens):
    """Finite group generated by permutations in one-line notation."""
    if not gens:
        raise ParseError("need at least one permutation")
    n = len(gens[0])
    for p in gens:
        if sorted(p) != list(range(n)):
            raise ParseError("not a permutation")
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(a[g[i]] for i in range(n))
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
        if len(elems) > 10000:
            raise ParseError("permutation group too large")
    ordered = sorted(elems)
    pos = {p: i for i, p in enumerate(ordered)}
    table = tuple(
        tuple(pos[tuple(a[b[i]] for i in range(n))] for b in ordered) for a in ordered
    )
    return FiniteGroup(table)


def finite_group_to_json(g):
    out = {"table": [list(row) for row in g.table]}
    if g.names:
        out["names"] = list(g.names)
    return out


def ggroup_from_json(obj):
    group = finite_group_from_json(obj["group"])
    carrier = finite_group_from_json(obj["carrier"])
    action = obj.get("action", "trivial")
    if action == "trivial":
        return trivial_action(group, carrier)
    perms = tuple(tuple(int(x) for x in p) for p in action)
    return GGroup(group, carrier, perms)

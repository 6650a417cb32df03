"""JSON encoding of the composite value types: groups, cones, domain
certificates, Hodge data, finite groups and G-groups.

They build on the codecs of numbers, vectors, matrices and lattices in
codec, which keeps the same exact conventions: integers stay integers,
non-integral rationals are "p/q" strings, and floating point never appears.
"""

from . import intlinalg as la
from .codec import (
    bool_from_json,
    int_from_json,
    int_mat_from_json,
    int_vec_from_json,
    lattice_from_json,
    lattice_to_json,
    list_from_json,
    mat_to_json,
    required,
    vec_from_json,
    vec_to_json,
)
from .errors import DimensionMismatch, InvalidInput, NonPositiveVector, ParseError


# --- isometries ----------------------------------------------------------------


def isometry_to_json(iso):
    return {"matrix": mat_to_json(iso.matrix)}


def klein_to_json(k):
    return {"matrix": mat_to_json(k.matrix), "sign": k.sign}


def generated_group_to_json(g):
    from .isometry import KleinIsometry

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
    from .isometry import GeneratedGroup, Isometry, KleinIsometry

    lat = lattice_from_json(required(obj, "lattice", "group"))
    gens = []
    for g in list_from_json(obj.get("generators", []), "generators"):
        iso = Isometry(lat, int_mat_from_json(required(g, "matrix", "generator")))
        gens.append(KleinIsometry(iso, int_from_json(g["sign"])) if "sign" in g else iso)
    base = (
        vec_from_json(obj["component_base"]) if "component_base" in obj else None
    )
    return GeneratedGroup(
        lat,
        tuple(gens),
        word_bound=int_from_json(obj.get("word_bound", 12)),
        full_orthogonal_plus=bool_from_json(obj.get("full_orthogonal_plus", False)),
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


def _ambient_dim(obj, *mats):
    """The declared ambient_dim, else the row length of the first nonempty
    matrix."""
    if obj.get("ambient_dim") is not None:
        return int_from_json(obj["ambient_dim"])
    for m in mats:
        if m:
            return len(m[0])
    raise ParseError("cannot infer the dimension of the cone")


def _same_facets(hs, cone):
    """Whether the rows hs are the facets of the cone, up to order and
    positive scale.  Facet normals are fixed only up to the span of the
    cone's equalities, so each normal is compared by its values on the
    cone's generators, which span the cone."""

    if any(len(h) != cone.ambient_dim for h in hs):
        return False
    gens = cone.generators()

    def key(h):
        return la.primitive_vector([la.dot(h, g) for g in gens])

    return {key(h) for h in hs} == {key(h) for h in cone.halfspaces}


def _spans(rows, cone, normals, k):
    """Whether the rows span the k-dimensional space of the cone's ambient
    space that is orthogonal to the normals: every row is, and their rank
    is k."""
    return (
        all(len(v) == cone.ambient_dim for v in rows)
        and all(la.dot(v, n) == 0 for v in rows for n in normals)
        and la.rank(rows) == k
    )


def cone_from_json(obj):
    """From the rays (and lines) when a "rays" key is present, else from the
    halfspaces (and equalities).  Halfspaces beside rays must be the
    facets of the rays' cone, up to order and positive scale; equalities
    beside rays must span the orthogonal complement of the cone, and lines
    beside halfspaces its lineality space."""
    from .cones import cone_from_halfspaces, cone_from_rays

    if not isinstance(obj, dict):
        raise ParseError("cone must be an object")
    if "halfspaces" in obj and "rays" not in obj:
        hs = int_mat_from_json(obj["halfspaces"])
        eqs = int_mat_from_json(obj.get("equalities", []))
        lines = int_mat_from_json(obj.get("lines", []))
        cone = cone_from_halfspaces(_ambient_dim(obj, hs, eqs), hs, eqs)
        normals = cone.halfspaces + cone.equalities
        if "lines" in obj and not _spans(lines, cone, normals, len(cone.lines)):
            raise InvalidInput("cone lines do not span its lineality space")
        return cone
    if obj.get("rays") is None and "halfspaces" not in obj:
        raise ParseError("cone needs rays or halfspaces")
    rays = int_mat_from_json(obj["rays"])
    lines = int_mat_from_json(obj.get("lines", []))
    hs = int_mat_from_json(obj.get("halfspaces", []))
    eqs = int_mat_from_json(obj.get("equalities", []))
    cone = cone_from_rays(_ambient_dim(obj, rays, lines, hs), rays, lines)
    if "halfspaces" in obj and not _same_facets(hs, cone):
        raise InvalidInput("cone halfspaces are not the facets of its rays")
    gens = cone.generators()
    if "equalities" in obj and not _spans(eqs, cone, gens, len(cone.equalities)):
        raise InvalidInput("cone equalities do not span the complement of its rays")
    return cone


def positive_cone_to_json(pos):
    return {
        "lattice": lattice_to_json(pos.lattice),
        "component_base": vec_to_json(pos.component_base),
    }


def positive_cone_from_json(obj):
    from .cones import PositiveCone

    return PositiveCone(
        lattice_from_json(required(obj, "lattice", "positive cone")),
        vec_from_json(required(obj, "component_base", "positive cone")),
    )


def certificate_to_json(cert):
    return {
        "positive_cone": positive_cone_to_json(cert.positive_cone),
        "group": generated_group_to_json(cert.group),
        "xi": vec_to_json(cert.xi),
        "word_bound": cert.word_bound,
        "halfspaces": mat_to_json(cert.domain.halfspaces),
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
    """A domain certificate with one source per fact: the halfspaces and both
    flags must be the domain's, and each orbit matrix the element that its
    word names.  Data of the wrong rank is a DimensionMismatch first, and
    an xi outside the open cone C a NonPositiveVector, as for
    dirichlet_domain; a generator that moves xi out of C and a
    stabilization depth that dirichlet_domain would not write are
    InvalidInput."""
    from .cones import DomainCertificate

    def need(key):
        return required(obj, key, "certificate")

    pos = positive_cone_from_json(need("positive_cone"))
    group = generated_group_from_json(need("group"))
    domain = cone_from_json(need("domain"))
    xi = vec_from_json(need("xi"))
    halfspaces = int_mat_from_json(need("halfspaces"))
    orbit = tuple(
        (int_mat_from_json(required(e, "matrix", "orbit element")), e.get("word"))
        for e in list_from_json(obj.get("orbit_elements", []), "orbit_elements")
    )
    n = pos.dim
    rows = [xi, *halfspaces, *(row for m, _ in orbit for row in m)]
    if (
        group.lattice.rank != n
        or domain.ambient_dim != n
        or any(len(m) != n for m, _ in orbit)
        or any(len(v) != n for v in rows)
    ):
        raise DimensionMismatch("certificate data does not match the lattice rank")
    if pos.lattice.gram != group.lattice.gram:
        raise InvalidInput("positive cone and group live on different lattices")
    if not pos.contains_open(xi):
        raise NonPositiveVector("xi must lie in the open cone C")
    for g in group.generator_elements():
        if not pos.contains_open(la.mat_vec(g.matrix, xi)):
            raise InvalidInput(f"{g.word} moves xi out of the component C")
    word_bound = int_from_json(need("word_bound"))
    stabilization_depth = int_from_json(need("stabilization_depth"))
    if not (0 < stabilization_depth < word_bound if orbit else stabilization_depth == 0):
        raise InvalidInput(
            "stabilization depth must be 0 without orbit elements, else in [1, word_bound)"
        )
    # the BFS goes as deep as the longest word, which is at most the bound
    depth = max((w.count("*") + 1 for _, w in orbit if isinstance(w, str)), default=0)
    layers = group.layers(min(depth, word_bound))[1:]
    named = {el.word: el.matrix for layer in layers for el in layer}
    if any(not isinstance(w, str) or named.get(w) != m for m, w in orbit):
        raise InvalidInput("an orbit matrix is not the element that its word names")
    cert = DomainCertificate(
        positive_cone=pos,
        group=group,
        xi=xi,
        word_bound=word_bound,
        domain=domain,
        stabilization_depth=stabilization_depth,
        orbit_elements=orbit,
        covering_evidence=obj.get("covering_evidence"),
        disjointness_evidence=obj.get("disjointness_evidence"),
    )
    if (
        not _same_facets(halfspaces, domain)
        or need("full_cone") is not cert.full_cone
        or obj.get("rays_in_closure", cert.rays_in_closure) is not cert.rays_in_closure
    ):
        raise InvalidInput("certificate halfspaces or flags disagree with its domain")
    return cert


# --- hodge ---------------------------------------------------------------------------


def hodge_to_json(h):
    return {
        "lattice": lattice_to_json(h.lattice),
        "period_re": vec_to_json(h.period_re),
        "period_im": vec_to_json(h.period_im),
    }


def hodge_from_json(obj):
    from .hodge import HodgeLattice

    return HodgeLattice(
        lattice_from_json(required(obj, "lattice", "hodge lattice")),
        vec_from_json(required(obj, "period_re", "hodge lattice")),
        vec_from_json(required(obj, "period_im", "hodge lattice")),
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
    from .hodge import MonodromySpec

    kind = required(obj, "kind", "monodromy spec")
    if kind == "full_orthogonal_plus":
        return MonodromySpec("full_orthogonal_plus")
    if kind == "discriminant":
        return MonodromySpec(
            "discriminant",
            signs=int_vec_from_json(obj.get("signs", [1, -1])),
            require_orientation=bool_from_json(obj.get("require_orientation", True)),
        )
    if kind == "generators":
        gens = list_from_json(required(obj, "generators", "monodromy spec"), "generators")
        return MonodromySpec(
            "generators",
            generators=tuple(int_mat_from_json(m) for m in gens),
            word_bound=int_from_json(obj.get("word_bound", 8)),
        )
    raise ParseError(f"unknown monodromy spec kind {kind!r}")


def kahler_model_to_json(km):
    return {
        "cone": cone_to_json(km.cone),
        "embedding": mat_to_json(km.embedding),
        "lattice": lattice_to_json(km.lattice),
    }


def kahler_model_from_json(obj):
    from .hodge import KahlerModel

    return KahlerModel(
        cone_from_json(required(obj, "cone", "kahler model")),
        int_mat_from_json(required(obj, "embedding", "kahler model")),
        lattice_from_json(required(obj, "lattice", "kahler model")),
    )


# --- finite groups and G-groups --------------------------------------------------------


def _cohomology():
    from . import cohomology

    return cohomology


BUILTIN_GROUPS = {
    "Z1": lambda: _cohomology().cyclic(1),
    "Z2": lambda: _cohomology().cyclic(2),
    "Z3": lambda: _cohomology().cyclic(3),
    "Z4": lambda: _cohomology().cyclic(4),
    "Z5": lambda: _cohomology().cyclic(5),
    "Z6": lambda: _cohomology().cyclic(6),
    "V4": lambda: _cohomology().klein_four(),
    "Z2xZ2": lambda: _cohomology().klein_four(),
    "S3": lambda: _cohomology().symmetric(3),
    "S4": lambda: _cohomology().symmetric(4),
    "D4": lambda: _cohomology().dihedral(4),
    "D6": lambda: _cohomology().dihedral(6),
    "Q8": lambda: _cohomology().quaternion8(),
}


def finite_group_from_json(obj):
    from .cohomology import FiniteGroup

    if isinstance(obj, str):
        if obj not in BUILTIN_GROUPS:
            raise ParseError(f"unknown group name {obj!r}")
        return BUILTIN_GROUPS[obj]()
    if isinstance(obj, dict):
        if "name" in obj:
            return finite_group_from_json(obj["name"])
        if "table" in obj:
            return FiniteGroup(int_mat_from_json(obj["table"]))
        if "permutations" in obj:
            perms = list_from_json(obj["permutations"], "permutations")
            return group_from_permutations([int_vec_from_json(p) for p in perms])
    raise ParseError("finite group must be a name, a table, or permutation generators")


def group_from_permutations(gens):
    """Finite group generated by permutations in one-line notation, of at
    most 120 elements (|S5|): the group table is checked in cubic time."""
    from .cohomology import permutation_group

    if not gens:
        raise ParseError("need at least one permutation")
    n = len(gens[0])
    for p in gens:
        if sorted(p) != list(range(n)):
            raise ParseError("not a permutation")
    group = permutation_group(gens, bound=120)
    if group is None:
        raise ParseError("permutation group has more than 120 elements")
    return group


def finite_group_to_json(g):
    return {"table": [list(row) for row in g.table]}


def ggroup_from_json(obj):
    from .cohomology import GGroup, trivial_action

    group = finite_group_from_json(required(obj, "group", "G-group"))
    carrier = finite_group_from_json(required(obj, "carrier", "G-group"))
    action = obj.get("action", "trivial")
    if action == "trivial":
        return trivial_action(group, carrier)
    perms = tuple(int_vec_from_json(p) for p in list_from_json(action, "action"))
    return GGroup(group, carrier, perms)


# --- cohomology inputs -------------------------------------------------------------


def exact_sequence_from_json(obj):
    from .cohomology import ShortExactSequence

    def need(key):
        return required(obj, key, "exact sequence")

    return ShortExactSequence(
        ggroup_from_json(need("sub")),
        ggroup_from_json(need("mid")),
        ggroup_from_json(need("quot")),
        int_vec_from_json(need("inclusion")),
        int_vec_from_json(need("projection")),
    )


def klein_group_from_json(obj):
    from .cohomology import KleinGroupData

    def need(key):
        return required(obj, key, "klein group")

    carrier = finite_group_from_json(need("carrier"))
    return KleinGroupData(
        carrier, int_vec_from_json(need("eps")), int_from_json(need("sigma"))
    )


def filtration_spec_from_json(obj):
    """The kind of a filtration spec, "finite" or "split", followed by the
    arguments of its driver: (group, chain, G-group) or (split extension
    spec, acting group)."""
    from .cohomology import FgAbelian, SplitExtensionSpec

    def need(key):
        return required(obj, key, "filtration spec")

    kind = need("kind")
    if kind == "finite":
        group = finite_group_from_json(need("group"))
        gg = ggroup_from_json(
            {
                "group": need("g"),
                "carrier": obj["group"],
                "action": obj.get("action", "trivial"),
            }
        )
        layers = list_from_json(obj.get("chain", []), "chain")
        return kind, group, [int_vec_from_json(layer) for layer in layers], gg
    if kind == "split":
        module = FgAbelian(
            int_from_json(need("free_rank")), int_vec_from_json(obj.get("torsion", []))
        )
        quotient = finite_group_from_json(need("quotient"))
        q_action = tuple(
            int_mat_from_json(m) for m in list_from_json(need("q_action"), "q_action")
        )
        spec = SplitExtensionSpec(module, quotient, q_action)
        return kind, spec, finite_group_from_json(need("g"))
    raise ParseError("filtration spec kind must be 'finite' or 'split'")

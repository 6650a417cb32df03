from fractions import Fraction

import pytest

from klein_lattice import codec, serialize as ser
from klein_lattice.cones import (
    DomainCertificate,
    PositiveCone,
    cone_from_halfspaces,
    cone_from_rays,
    dirichlet_domain,
    find_trivial_stabilizer_point,
)
from klein_lattice.errors import DimensionMismatch, InvalidInput, ParseError
from klein_lattice.hodge import HodgeLattice, KahlerModel, MonodromySpec
from klein_lattice.isometry import GeneratedGroup, Isometry, KleinIsometry
from klein_lattice.lattice import IntegerLattice, U

from cases import forged_certificates


def test_rationals():
    assert codec.rat_to_json(5) == 5
    assert codec.rat_to_json(Fraction(1, 2)) == "1/2"
    assert codec.rat_to_json(Fraction(4, 2)) == 2
    assert codec.rat_from_json("3/4") == Fraction(3, 4)
    assert codec.rat_from_json(7) == 7
    assert codec.rat_from_json("-5") == -5
    with pytest.raises(ParseError):
        codec.rat_from_json(1.5)
    with pytest.raises(ParseError):
        codec.rat_from_json("1/0")
    with pytest.raises(ParseError):
        codec.rat_from_json(True)


def test_lattice_roundtrip():
    lat = IntegerLattice(((2, 0), (0, -4)))
    assert ser.lattice_from_json(ser.lattice_to_json(lat)).gram == lat.gram
    assert ser.lattice_from_json("U").gram == U().gram
    assert ser.lattice_from_json({"name": "K3"}).rank == 22
    with pytest.raises(ParseError):
        ser.lattice_from_json({"rank": 3, "gram": [[2]]})


PELL_JSON = {"gram": [[2, 0], [0, -4]]}


@pytest.mark.parametrize(
    "read, doc",
    [
        (ser.lattice_from_json, {**PELL_JSON, "rank": 2.0}),
        (ser.lattice_from_json, {"gram": [[2]], "rank": True}),
        (ser.generated_group_from_json, {"lattice": PELL_JSON, "component_base": [1, 0],
                                         "full_orthogonal_plus": "false"}),
        (ser.generated_group_from_json, {"lattice": PELL_JSON, "component_base": [1, 0],
                                         "full_orthogonal_plus": 1}),
        (ser.monodromy_spec_from_json, {"kind": "discriminant", "require_orientation": "false"}),
        (ser.monodromy_spec_from_json, {"kind": "discriminant", "require_orientation": 0}),
    ],
    ids=["rank-float", "rank-boolean", "group-flag-string", "group-flag-number",
         "orientation-flag-string", "orientation-flag-number"],
)
def test_flags_are_json_booleans_and_the_rank_an_integer(read, doc):
    with pytest.raises(ParseError):
        read(doc)


def test_group_roundtrip():
    lat = IntegerLattice(((2, 0), (0, -4)))
    g = GeneratedGroup(
        lat,
        (
            Isometry(lat, ((3, 4), (2, 3))),
            KleinIsometry(Isometry(lat, ((1, 0), (0, -1))), -1),
        ),
        word_bound=9,
        component_base=(1, 0),
    )
    back = ser.generated_group_from_json(ser.generated_group_to_json(g))
    assert back.word_bound == 9
    assert back.component_base == (1, 0)
    assert isinstance(back.generators[1], KleinIsometry)
    assert back.generators[1].sign == -1


def test_full_orthogonal_plus_group_roundtrip():
    # the flag is written only when set, and read back beside its base
    swap = Isometry(U(), ((0, 1), (1, 0)))
    g = GeneratedGroup(U(), (swap,), word_bound=5, full_orthogonal_plus=True,
                       component_base=(1, 1))
    doc = ser.generated_group_to_json(g)
    assert doc["full_orthogonal_plus"] is True
    assert "full_orthogonal_plus" not in ser.generated_group_to_json(GeneratedGroup(U(), (swap,)))
    back = ser.generated_group_from_json(doc)
    assert back == g and back.full_orthogonal_plus


def test_cone_roundtrip():
    c = cone_from_rays(2, ((2, 1), (2, -1)))
    back = ser.cone_from_json(ser.cone_to_json(c))
    assert back.same_cone(c)
    c2 = ser.cone_from_json({"halfspaces": [[1, 2], [1, -2]]})
    assert c2.same_cone(c)
    # halfspaces beside rays are their facets, up to order and scale
    c3 = ser.cone_from_json({"rays": [[2, 1], [2, -1]], "halfspaces": [[2, 4], [1, -2]]})
    assert c3.same_cone(c)
    for hs in ([[5, 5]], [[1, 2]], [[1, 2], [1, -2], [1, 0]], [], [[1, 2, 0], [1, -2, 0]]):
        with pytest.raises(InvalidInput):
            ser.cone_from_json({"rays": [[2, 1], [2, -1]], "halfspaces": hs})


def test_cone_roundtrip_not_full_dimensional():
    """A facet normal of a cone that is not full-dimensional counts only on
    the cone's span, so any normal that agrees there is the same facet."""
    ray = cone_from_rays(2, ((1, 0),))
    half_plane = cone_from_rays(3, ((1, 0, 0),), ((0, 1, 0),))
    for c in (ray, half_plane):
        assert not c.is_full_dimensional()
        back = ser.cone_from_json(ser.cone_to_json(c))
        assert back == c
    for obj in (
        {"rays": [[1, 0]], "halfspaces": [[1, 1]], "equalities": [[0, 1]]},
        {"rays": [[1, 0]], "halfspaces": [[3, -7]]},
    ):
        assert ser.cone_from_json(obj) == ray
    assert ser.cone_from_json(
        {"rays": [[1, 0, 0]], "lines": [[0, 1, 0]], "halfspaces": [[2, 0, 5]]}
    ) == half_plane
    for obj in (
        {"rays": [[1, 0]], "halfspaces": [[0, 1]]},
        {"rays": [[1, 0]], "halfspaces": [[-1, 1]]},
        {"rays": [[1, 0, 0]], "lines": [[0, 1, 0]], "halfspaces": [[1, 1, 0]]},
    ):
        with pytest.raises(InvalidInput):
            ser.cone_from_json(obj)


def test_cone_equalities_and_lines_span_the_cones_own():
    """Equalities beside rays span the orthogonal complement of the cone,
    lines beside halfspaces its lineality space, in any basis."""
    half_plane = cone_from_rays(3, ((1, 0, 0),), ((0, 1, 0),))
    assert ser.cone_from_json(
        {"rays": [[1, 0, 0], [1, 5, 0]], "lines": [[0, 1, 0]], "equalities": [[0, 0, -2]]}
    ) == half_plane
    assert ser.cone_from_json({"halfspaces": [[1, 0, 0]], "equalities": [[0, 0, 1]],
                               "lines": [[0, 3, 0]]}) == half_plane
    assert ser.cone_from_json(
        {"halfspaces": [[1, 0, 0]], "lines": [[0, 1, 1], [0, 1, -1]]}
    ) == cone_from_rays(3, ((1, 0, 0),), ((0, 1, 0), (0, 0, 1)))
    # a spanning set need not be a basis
    assert ser.cone_from_json(
        {"rays": [[1, 0, 0]], "equalities": [[0, 1, 0], [0, 0, 1], [0, 1, 1]]}
    ) == cone_from_rays(3, ((1, 0, 0),))
    for obj in (
        {"rays": [[2, 1], [2, -1]], "halfspaces": [[1, 2], [1, -2]], "equalities": [[1, 0]]},
        {"rays": [[1, 0]], "equalities": [[1, 1]]},
        {"rays": [[1, 0]], "equalities": []},
        {"rays": [[1, 0, 0]], "equalities": [[0, 1, 0]]},
        {"rays": [[1, 0]], "equalities": [[0, 1, 0]]},
        {"halfspaces": [[1, 0]], "lines": [[1, 1]]},
        {"halfspaces": [[1, 0]], "lines": []},
        {"halfspaces": [[1, 0, 0]], "lines": [[0, 1, 0]]},
        {"halfspaces": [[1, 0, 0]], "lines": [[0, 1, 0], [0, 1, 0]]},
        {"halfspaces": [[1, 0]], "lines": [[0, 1, 0]]},
    ):
        with pytest.raises(InvalidInput):
            ser.cone_from_json(obj)


def test_certificate_roundtrip(pell_group, pell_cone, pell_cert):
    obj = ser.certificate_to_json(pell_cert)
    back = ser.certificate_from_json(obj)
    assert back.halfspaces == pell_cert.halfspaces
    assert back.domain.same_cone(pell_cert.domain)
    assert back.xi == pell_cert.xi
    assert back.stabilization_depth == pell_cert.stabilization_depth
    assert len(back.orbit_elements) == len(pell_cert.orbit_elements)


@pytest.mark.parametrize(
    "key, value",
    [
        ("xi", [1]),
        ("halfspaces", [[1]]),
        ("orbit_elements", [{"matrix": [[1]], "word": "g0"}]),
        ("domain", {"rays": [[1, 0, 0]]}),
    ],
)
def test_certificate_data_must_match_the_rank(pell_cert, key, value):
    obj = dict(ser.certificate_to_json(pell_cert), **{key: value})
    with pytest.raises(DimensionMismatch):
        ser.certificate_from_json(obj)


@pytest.mark.parametrize(
    "matrix", [[[0, 0], [0, 0]], [[2, 0], [0, 1]], [[0, 1], [1, 0]]],
    ids=["singular", "not-unimodular", "unimodular-not-isometry"],
)
def test_certificate_orbit_elements_must_be_isometries(pell_cert, matrix):
    obj = ser.certificate_to_json(pell_cert)
    assert ser.certificate_from_json(obj).orbit_elements == pell_cert.orbit_elements
    obj["orbit_elements"] = obj["orbit_elements"][:2] + [{"matrix": matrix, "word": "g0"}]
    with pytest.raises(InvalidInput):
        ser.certificate_from_json(obj)


@pytest.fixture(scope="module")
def signflip_cert():
    lat = IntegerLattice(((2, 0, 0), (0, -2, 0), (0, 0, -2)))
    flips = (((1, 0, 0), (0, -1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    gamma = GeneratedGroup(
        lat, tuple(Isometry(lat, m) for m in flips), word_bound=6, component_base=(1, 0, 0)
    )
    pos = PositiveCone(lat, (1, 0, 0))
    return dirichlet_domain(gamma, pos, find_trivial_stabilizer_point(gamma, pos))


@pytest.fixture(scope="module")
def full_cone_cert(pell_group, pell_cone):
    # C+ itself, offered as the domain of the infinite Pell group
    return DomainCertificate(pell_cone, pell_group, (1, 0), 0, cone_from_halfspaces(2, ()), 0, ())


@pytest.mark.parametrize("name", ["pell_cert", "dihedral_cert", "signflip_cert", "full_cone_cert"])
def test_certificate_json_roundtrip_is_exact(name, request):
    obj = ser.certificate_to_json(request.getfixturevalue(name))
    assert ser.certificate_to_json(ser.certificate_from_json(obj)) == obj
    assert obj["full_cone"] is (name == "full_cone_cert")
    # the sign-flip domain is cut by two walls in rank 3, so it holds a line
    assert obj["rays_in_closure"] is (name != "signflip_cert")


def test_forged_certificates_are_refused(pell_cert):
    for forged in forged_certificates(ser.certificate_to_json(pell_cert)).values():
        with pytest.raises(InvalidInput):
            ser.certificate_from_json(forged)


@pytest.mark.parametrize(
    "key, value",
    [
        ("halfspaces", [[1, 2]]),
        ("halfspaces", [[1, 2], [1, -2], [1, 0]]),
        ("halfspaces", [[1, 2], [0, 0]]),
        ("full_cone", True),
        ("full_cone", 0),
        ("rays_in_closure", False),
        ("orbit_elements", [{"matrix": [[3, 4], [2, 3]]}]),
        ("orbit_elements", [{"matrix": [[3, 4], [2, 3]], "word": ["g0"]}]),
        ("orbit_elements", [{"matrix": [[3, 4], [2, 3]], "word": "g0*g0"}]),
        ("orbit_elements", [{"matrix": [[1, 0], [0, 1]], "word": "e"}]),
        ("word_bound", 0),
        ("stabilization_depth", -3),
        ("stabilization_depth", 0),
    ],
    ids=["a-facet-missing", "not-a-facet", "zero-halfspace", "full-cone-claimed",
         "full-cone-not-a-boolean", "rays-in-closure-denied", "no-word", "word-not-a-string",
         "word-of-another-element", "identity", "words-past-the-bound", "negative-depth",
         "depth-0-with-orbit-elements"],
)
def test_certificate_facts_that_disagree_are_refused(pell_cert, key, value):
    obj = dict(ser.certificate_to_json(pell_cert), **{key: value})
    with pytest.raises(InvalidInput):
        ser.certificate_from_json(obj)


def test_certificate_without_orbit_elements_has_depth_0(pell_lattice, pell_cone):
    # dirichlet_domain writes depth 0 for a group with no orbit elements
    gamma = GeneratedGroup(pell_lattice, (), word_bound=4, component_base=(1, 0))
    obj = ser.certificate_to_json(dirichlet_domain(gamma, pell_cone, (1, 0)))
    assert obj["stabilization_depth"] == 0 and obj["orbit_elements"] == []
    assert ser.certificate_to_json(ser.certificate_from_json(obj)) == obj
    with pytest.raises(InvalidInput, match="stabilization depth"):
        ser.certificate_from_json(dict(obj, stabilization_depth=2))


def test_certificate_halfspaces_are_read_as_facets(pell_cert):
    # order and scale are not facts about the domain
    obj = dict(ser.certificate_to_json(pell_cert), halfspaces=[[2, 4], [1, -2]])
    assert ser.certificate_from_json(obj).halfspaces == pell_cert.halfspaces
    del obj["rays_in_closure"]
    assert ser.certificate_from_json(obj).rays_in_closure


def test_hodge_and_model_roundtrip():
    lat = IntegerLattice(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, -2)))
    h = HodgeLattice(lat, (1, 0, 0, 0), (0, 1, 0, 0))
    back = ser.hodge_from_json(ser.hodge_to_json(h))
    assert back.lattice.gram == lat.gram and back.period_re == h.period_re
    from klein_lattice.hodge import neron_severi

    ns = neron_severi(h)
    km = KahlerModel(cone_from_rays(2, ((2, 1), (2, -1))), ns.basis, lat)
    km2 = ser.kahler_model_from_json(ser.kahler_model_to_json(km))
    assert km2.embedding == km.embedding
    assert km2.cone.same_cone(km.cone)


def test_monodromy_spec_roundtrip():
    for spec in (
        MonodromySpec("full_orthogonal_plus"),
        MonodromySpec("discriminant", signs=(-1,), require_orientation=False),
        MonodromySpec("generators", generators=(((1, 0), (0, 1)),), word_bound=5),
        MonodromySpec(
            "generators", generators=(((3, 4), (2, 3)), ((1, 0), (0, -1))), word_bound=3
        ),
    ):
        # every field survives: a dropped generator or word bound fails here
        back = ser.monodromy_spec_from_json(ser.monodromy_spec_to_json(spec))
        assert back == spec


def test_finite_group_names():
    g = ser.finite_group_from_json("S3")
    assert g.order == 6
    back = ser.finite_group_from_json(ser.finite_group_to_json(g))
    assert back.table == g.table
    assert ser.finite_group_to_json(g) == {"table": [list(row) for row in g.table]}
    # a "names" key is ignored like any other unknown key
    named = ser.finite_group_from_json({"table": [[0, 1], [1, 0]], "names": ["e", "a"]})
    assert named.table == ((0, 1), (1, 0))
    with pytest.raises(ParseError):
        ser.finite_group_from_json("nope")


def test_finite_group_from_permutations():
    # S3 generated by a transposition and a 3-cycle
    g = ser.finite_group_from_json({"permutations": [[1, 0, 2], [1, 2, 0]]})
    assert g.order == 6 and not g.is_abelian()
    v4 = ser.finite_group_from_json({"permutations": [[1, 0, 3, 2], [2, 3, 0, 1]]})
    assert v4.order == 4 and v4.is_abelian()
    with pytest.raises(ParseError):
        ser.finite_group_from_json({"permutations": [[0, 0, 1]]})
    # S5 has 120 elements, the bound; S6 (720) and S8 (40320) are past it
    s5 = {"permutations": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]}
    assert ser.finite_group_from_json(s5).order == 120
    s6 = {"permutations": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]}
    s8 = {"permutations": [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]}
    for doc in (s6, s8):
        with pytest.raises(ParseError):
            ser.finite_group_from_json(doc)

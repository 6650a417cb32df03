from fractions import Fraction

import pytest

from klein_lattice import serialize as ser
from klein_lattice.cones import PositiveCone, cone_from_rays, dirichlet_domain
from klein_lattice.errors import DimensionMismatch, InvalidInput, ParseError
from klein_lattice.hodge import HodgeLattice, KahlerModel, MonodromySpec
from klein_lattice.isometry import GeneratedGroup, Isometry, KleinIsometry
from klein_lattice.lattice import IntegerLattice, U


def test_rationals():
    assert ser.rat_to_json(5) == 5
    assert ser.rat_to_json(Fraction(1, 2)) == "1/2"
    assert ser.rat_to_json(Fraction(4, 2)) == 2
    assert ser.rat_from_json("3/4") == Fraction(3, 4)
    assert ser.rat_from_json(7) == 7
    assert ser.rat_from_json("-5") == -5
    with pytest.raises(ParseError):
        ser.rat_from_json(1.5)
    with pytest.raises(ParseError):
        ser.rat_from_json("1/0")
    with pytest.raises(ParseError):
        ser.rat_from_json(True)


def test_lattice_roundtrip():
    lat = IntegerLattice(((2, 0), (0, -4)))
    assert ser.lattice_from_json(ser.lattice_to_json(lat)).gram == lat.gram
    assert ser.lattice_from_json("U").gram == U().gram
    assert ser.lattice_from_json({"name": "K3"}).rank == 22
    with pytest.raises(ParseError):
        ser.lattice_from_json({"rank": 3, "gram": [[2]]})


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


def test_cone_roundtrip():
    c = cone_from_rays(2, ((2, 1), (2, -1)))
    back = ser.cone_from_json(ser.cone_to_json(c))
    assert back.same_cone(c)
    c2 = ser.cone_from_json({"halfspaces": [[1, 2], [1, -2]]})
    assert c2.same_cone(c)


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
    ):
        back = ser.monodromy_spec_from_json(ser.monodromy_spec_to_json(spec))
        assert back.kind == spec.kind
        if spec.kind == "discriminant":
            assert set(back.signs) == set(spec.signs)
            assert back.require_orientation == spec.require_orientation


def test_finite_group_names():
    g = ser.finite_group_from_json("S3")
    assert g.order == 6
    back = ser.finite_group_from_json(ser.finite_group_to_json(g))
    assert back.table == g.table
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
    # S8 has 40320 elements, past the 10000-element bound
    s8 = {"permutations": [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]}
    with pytest.raises(ParseError):
        ser.finite_group_from_json(s8)

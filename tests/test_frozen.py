"""Every Frozen value type behaves as the frozen dataclass it replaced.

The reference for a class is ``dataclasses.make_dataclass(frozen=True)``
built from the class-body annotations, the class attributes of the same
names as defaults and the class's own methods, so its ``__post_init__`` runs
the same checks.  Only this test imports dataclasses.
"""

import dataclasses
import importlib
from functools import cache
from pathlib import Path

import pytest

import klein_lattice
from klein_lattice import frozen
from klein_lattice.cohomology import (
    AbelianGGroup,
    ExactSequenceReport,
    FgAbelian,
    FiniteGroup,
    GGroup,
    H1Set,
    KleinGroupData,
    ShortExactSequence,
    SplitExtensionSpec,
    cyclic,
    dihedral,
    h1_finite,
    les_of_pointed_sets,
    symmetric,
    trivial_action,
)
from klein_lattice.cones import (
    DomainCertificate,
    PolyhedralCone,
    PositiveCone,
    cone_from_rays,
    dirichlet_domain,
)
from klein_lattice.hodge import HodgeLattice, KahlerModel, KleinVerdict, MonodromySpec
from klein_lattice.isometry import (
    FixDecision,
    GeneratedGroup,
    GroupElement,
    Isometry,
    KleinIsometry,
    StabilizerResult,
    stabilizer,
)
from klein_lattice.lattice import (
    DiscriminantGroup,
    IntegerLattice,
    Signature,
    Sublattice,
    U,
    discriminant_group,
)

for _path in sorted(Path(klein_lattice.__file__).parent.glob("*.py")):
    importlib.import_module(f"klein_lattice.{_path.stem}")
CLASSES = sorted(
    (c for c in frozen.Frozen.__subclasses__() if c.__module__.startswith("klein_lattice.")),
    key=lambda c: c.__name__,
)

PELL = IntegerLattice(((2, 0), (0, -4)))
PELL_GEN = Isometry(PELL, ((3, 4), (2, 3)))
FLIP = Isometry(PELL, ((1, 0), (0, -1)))
D4_EPS = (1, 1, 1, 1, -1, -1, -1, -1)
U3 = IntegerLattice(tuple(tuple(int(j == i ^ 1) for j in range(6)) for i in range(6)))
SIGN = (((1,),), ((-1,),))  # Z/2 acting on Z by -1


def z2_in_z4(inclusion):
    z2 = trivial_action(cyclic(2), cyclic(2))
    return z2, trivial_action(cyclic(2), cyclic(4)), z2, inclusion, (0, 1, 0, 1)


@cache
def samples():
    """Instances of every value type, made by the library where it can."""
    pell_group = GeneratedGroup(PELL, (PELL_GEN,), 8, False, (1, 0))
    pos = PositiveCone(PELL, (1, 0))
    cert = dirichlet_domain(pell_group, pos, (1, 0), word_bound=8)
    ggs = [trivial_action(cyclic(2), symmetric(3)), trivial_action(cyclic(2), cyclic(4))]
    ses = ShortExactSequence(*z2_in_z4((0, 2)))
    return {
        IntegerLattice: [PELL, IntegerLattice(((2, 1), (1, 2)))],
        Signature: [Signature(1, 0, 1), Signature(3, 0, 19)],
        Sublattice: [Sublattice(U(), ((2, 0),)), Sublattice(U(), ((1, 0), (0, 1)))],
        DiscriminantGroup: [
            discriminant_group(IntegerLattice(((-4,),))),
            discriminant_group(IntegerLattice(((2, 1), (1, 2)))),
        ],
        Isometry: [PELL_GEN, FLIP],
        KleinIsometry: [KleinIsometry(PELL_GEN, -1), KleinIsometry(FLIP, 1)],
        FixDecision: [FixDecision("IdentityOnly"), FixDecision("Counterexample", ((1, 0),))],
        GroupElement: pell_group.generator_elements(),
        GeneratedGroup: [pell_group, GeneratedGroup(PELL, (PELL_GEN, FLIP), word_bound=5)],
        StabilizerResult: [
            stabilizer(pell_group, (1, 0)),
            StabilizerResult((), "BoundedSearch", 3, ()),
        ],
        PolyhedralCone: [cone_from_rays(2, ((2, -1), (2, 1))), cert.domain],
        PositiveCone: [pos, PositiveCone(IntegerLattice(((2, 0), (0, -6))), (1, 0))],
        DomainCertificate: [
            cert, frozen.replace(cert, covering_evidence={"status": "pass", "seed": 1})
        ],
        FiniteGroup: [cyclic(2), symmetric(3)],
        GGroup: ggs,
        H1Set: [h1_finite(gg) for gg in ggs],
        ShortExactSequence: [ses],
        ExactSequenceReport: [les_of_pointed_sets(ses)],
        FgAbelian: [FgAbelian(1, ()), FgAbelian(0, (2, 4))],
        AbelianGGroup: [AbelianGGroup(cyclic(2), FgAbelian(1, ()), SIGN)],
        SplitExtensionSpec: [SplitExtensionSpec(FgAbelian(1, ()), cyclic(2), SIGN)],
        KleinGroupData: [
            KleinGroupData(dihedral(4), D4_EPS, 4),
            KleinGroupData(dihedral(4), D4_EPS, 5),
        ],
        HodgeLattice: [HodgeLattice(U3, (1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0))],
        MonodromySpec: [
            MonodromySpec("discriminant", signs=(-1,)),
            MonodromySpec("full_orthogonal_plus"),
        ],
        KahlerModel: [KahlerModel(cone_from_rays(2, ((1, 0), (0, 1))), ((1, 0), (0, 1)), U())],
        KleinVerdict: [
            KleinVerdict("KleinRealizable", sign=-1),
            KleinVerdict("NotRealizable", reason="cone condition fails"),
        ],
    }


# arguments that __post_init__ rejects
BAD = {
    IntegerLattice: [(((1, 2), (3, 4)),), (((1, 2),),)],
    Sublattice: [(U(), ((1, 0, 0),)), (U(), ((1, 0), (2, 0)))],
    Isometry: [(PELL, ((2, 0), (0, 1)))],
    KleinIsometry: [(PELL_GEN, 2)],
    GeneratedGroup: [(IntegerLattice(((2, 0), (0, -6))), (PELL_GEN,))],
    PolyhedralCone: [(2, ((1, -1),), (), ((0, 1),), ()), (2, (), ((1, 0),), ((1, 0),), ())],
    PositiveCone: [(IntegerLattice(((1, 0), (0, 1))), (1, 0)), (PELL, (1, 0, 0))],
    FiniteGroup: [(((0, 1), (1, 1)),), (((0, 2), (1, 0)),)],
    GGroup: [
        (cyclic(2), cyclic(3), ((0, 1, 2),)),
        (cyclic(2), cyclic(3), ((0, 1, 2), (0, 0, 2))),
    ],
    ShortExactSequence: [z2_in_z4((0, 7)), z2_in_z4((0, 1))],
    FgAbelian: [(0, (1,)), (0, (2, 3))],
    AbelianGGroup: [(cyclic(2), FgAbelian(1, ()), SIGN[:1])],
    SplitExtensionSpec: [(FgAbelian(1, ()), cyclic(2), (((2,),), ((1,),)))],
    KleinGroupData: [(dihedral(4), D4_EPS, sigma) for sigma in (40, -4, 0)],
    HodgeLattice: [(U3, (1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)), (PELL, (1, 0), (0, 1))],
    MonodromySpec: [("bogus",), ("discriminant", (2,))],
    KahlerModel: [(cone_from_rays(2, ((1, 0), (0, 1))), ((1, 0),), U())],
}


def reference(cls):
    """cls as a frozen dataclass with the same fields, defaults and methods."""
    own = vars(cls)
    names = list(cls.__annotations__)
    specs = []
    for name in names:
        spec = {"default": own[name]} if name in own else {}
        if name in cls._uncompared:
            spec.update(compare=False, repr=False)
        specs.append((name, object, dataclasses.field(**spec)))
    skip = {"__dict__", "__weakref__", "__module__", "__qualname__",
            "_fields", "_defaults", "_compared", "_key", "_uncompared", *names}
    # __annotations__, or with lazy annotations __annotate__ and its cache
    methods = {k: v for k, v in own.items() if k not in skip and not k.startswith("__annotat")}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=methods, frozen=True)


def outcome(fn, *args, **kwargs):
    """("ok", result) or the type and message of the exception fn raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # any exception, to compare it with the reference's
        return type(exc), str(exc)


def fields_of(obj):
    return [getattr(obj, name) for name in type(obj).__annotations__]


def assert_same(mine, theirs):
    """Two outcomes agree: equal exceptions, or values with equal fields,
    repr and hash (or the same error from hash)."""
    if mine[0] != "ok" or theirs[0] != "ok":
        assert mine == theirs
        return
    mine, theirs = mine[1], theirs[1]
    assert fields_of(mine) == fields_of(theirs)
    assert repr(mine) == repr(theirs)
    assert outcome(hash, mine) == outcome(hash, theirs)


def test_every_value_type_has_samples():
    assert len(CLASSES) == 26
    assert set(samples()) == set(CLASSES)
    has_checks = {c for c in CLASSES if "__post_init__" in vars(c)}
    assert set(BAD) == has_checks


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_value_type_matches_its_dataclass(cls):
    ref = reference(cls)
    names = list(cls.__annotations__)
    required = [n for n in names if n not in vars(cls)]
    objs = samples()[cls]
    pairs = []
    for obj in objs:
        args = fields_of(obj)
        mine, theirs = cls(*args), ref(*args)
        assert_same(("ok", mine), ("ok", theirs))
        pairs.append((mine, theirs))
        assert cls(**dict(zip(names, args))) == mine
        assert outcome(hash, mine) == outcome(hash, obj)
        assert mine == obj and not mine != obj
        assert mine.__eq__(theirs) is NotImplemented and mine != theirs
        # defaults fill in what is left out
        assert_same(outcome(cls, *args[: len(required)]), outcome(ref, *args[: len(required)]))
        # replace, with the values of every sample
        for name in names:
            for other in objs:
                value = getattr(other, name)
                assert_same(
                    outcome(frozen.replace, mine, **{name: value}),
                    outcome(dataclasses.replace, theirs, **{name: value}),
                )
            for target in (mine, theirs):
                with pytest.raises(AttributeError):
                    setattr(target, name, None)
                with pytest.raises(AttributeError):
                    delattr(target, name)
        assert fields_of(mine) == args
        # signature errors are TypeErrors in both
        for bad_call in (
            lambda k: k(*args, None),
            lambda k: k(*args, unknown=1),
            lambda k: k(*args, **{names[0]: args[0]}),
        ):
            assert outcome(bad_call, cls)[0] is TypeError
            assert outcome(bad_call, ref)[0] is TypeError
        if required:
            assert outcome(cls)[0] is TypeError and outcome(ref)[0] is TypeError
        with pytest.raises(TypeError):
            frozen.replace(mine, unknown=1)
    for i, (a, ra) in enumerate(pairs):
        for b, rb in pairs[i:]:
            assert (a == b) == (ra == rb)
            assert (a != b) == (ra != rb)


@pytest.mark.parametrize("cls", sorted(BAD, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_value_type_checks_match_its_dataclass(cls):
    ref = reference(cls)
    for args in BAD[cls]:
        mine = outcome(cls, *args)
        assert mine[0] != "ok"
        assert mine == outcome(ref, *args)


def test_class_index_stays_out_of_equality_hash_and_repr():
    h1 = samples()[H1Set][0]
    other = frozen.replace(h1, class_index={})
    assert other == h1 and hash(other) == hash(h1) and repr(other) == repr(h1)
    assert "class_index" not in repr(h1)


def test_hash_is_that_of_the_field_tuple():
    assert hash(PELL) == hash((PELL.gram,))
    assert hash(Signature(1, 0, 1)) == hash((1, 0, 1))

"""Fuzzing of the CLI's JSON boundary.

Each example breaks a valid document of one JSON option (a subtree replaced
by junk, a key or item dropped, the text cut short) and runs main()
in-process.  A deterministic sweep also sets each integer leaf of the
documents that carry element indices to -1 and to 99.  Every request must
end in exit 0, 1 or 2 without a traceback, and exit 1 must name a
KleinLatticeError subclass on stderr.  The codec and serialize readers get
broken documents too, and must return a value or raise a KleinLatticeError.
"""

import contextlib
import io
import json
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from klein_lattice import codec, serialize as ser
from klein_lattice.cli import main
from klein_lattice.cones import (
    DomainCertificate,
    PositiveCone,
    cone_from_halfspaces,
    cone_from_rays,
    dirichlet_domain,
)
from klein_lattice.errors import KleinLatticeError
from klein_lattice.hodge import KahlerModel, hilbert_square_extension, neron_severi
from klein_lattice.isometry import Isometry

from cases import HODGE6, KAHLER4, SIGMA6

PELL_GROUP = {
    "lattice": {"gram": [[2, 0], [0, -4]]},
    "generators": [{"matrix": [[3, 4], [2, 3]]}],
    "word_bound": 8,
    "component_base": [1, 0],
}
PELL_POS = {"lattice": {"gram": [[2, 0], [0, -4]]}, "component_base": [1, 0]}
PELL_DOMAIN = {"ambient_dim": 2, "rays": [[2, -1], [2, 1]], "halfspaces": [[1, -2], [1, 2]]}
MON = {"kind": "discriminant", "signs": [-1]}
X = object()  # where "OPTION=DOCUMENT" goes in a request
# where the Hilbert square documents of hilbert_square() go
HILBERT, KAHLER, KLEIN = object(), object(), object()

REQUESTS = {
    "--in": [
        ["lattice", "signature", X],
        ["lattice", "discriminant", X],
        ["lattice", "radical", X],
        ["isom", "check", X, "--matrix", "[[1,0],[0,1]]"],
        ["cone", "member", X, "--base", "1,0", "--point", "1,0"],
    ],
    "--sub": [
        ["lattice", "saturate", "--name", "U", X],
        ["isom", "fix-sublattice", "--name", "U", X],
    ],
    "--group": [
        ["cone", "domain", X, "--base", "1,0", "--xi", "1,0", "--bound", "4"],
        ["isom", "stabilizer", X, "--point", "1,0"],
        ["h1", "compute", X, "--coeff", "Z2"],
    ],
    "--cert": [
        ["cone", "verify", X, "--samples", "2", "--disjoint-bound", "2"],
        ["isom", "stabilizer", "--group", json.dumps(PELL_GROUP), "--point", "3,1",
         X],
    ],
    "--pos": [
        ["cone", "domain", "--group", json.dumps(PELL_GROUP), X, "--xi", "1,0",
         "--bound", "4"],
    ],
    "--pi1": [
        ["cone", "siegel", "--group", json.dumps(PELL_GROUP), "--base", "1,0", X,
         "--pi2", json.dumps(PELL_DOMAIN), "--bound", "4"],
    ],
    "--pi2": [
        ["cone", "siegel", "--group", json.dumps(PELL_GROUP), "--base", "1,0",
         "--pi1", json.dumps(PELL_DOMAIN), X, "--bound", "4"],
    ],
    "--seq": [["h1", "les", X], ["h1", "les", X, "--fibers"]],
    "--spec": [["h1", "filtration", X]],
    "--klein": [["h1", "real-forms", X], ["h1", "real-forms", X, "--inner-twist"]],
    "--ggroup": [["h1", "twist", X, "--sub", "0,1,2,3,4,5", "--phi", "0,0"]],
    "--hodge": [
        ["hk", "ns", X],
        ["hk", "projective", X],
        ["hk", "hilbert", X, "--n", "3", "--sigma", json.dumps(SIGMA6)],
    ],
    "--cone": [
        ["hk", "kaut-criterion", "--phi", KLEIN, "--hodge", HILBERT, X,
         "--mon", json.dumps(MON)],
    ],
    "--mon": [
        ["hk", "kaut-criterion", "--phi", KLEIN, "--hodge", HILBERT, "--cone", KAHLER, X],
        ["hk", "torelli", "--phi", KLEIN, "--source", HILBERT, "--target", HILBERT,
         "--ksource", KAHLER, "--ktarget", KAHLER, X],
    ],
}


@cache
def hilbert_square():
    """The Hilbert square of HODGE6 with SIGMA6: its Hodge lattice, a Kahler
    model and the Klein matrix, as JSON text for HILBERT, KAHLER and KLEIN."""
    h = ser.hodge_from_json(HODGE6)
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, SIGMA6))
    rays = ((1, 0, 4, 4, 0), (0, 1, 4, 4, 0), (0, 0, 5, 4, 0), (0, 0, 4, 5, 0),
            (0, 0, 4, 4, 1))
    km = KahlerModel(cone_from_rays(5, rays), neron_severi(h_ext).basis, h_ext.lattice)
    return {
        HILBERT: json.dumps(ser.hodge_to_json(h_ext)),
        KAHLER: json.dumps(ser.kahler_model_to_json(km)),
        KLEIN: json.dumps(ser.mat_to_json(klein.matrix)),
    }


@cache
def pell_certificate():
    gamma = ser.generated_group_from_json(PELL_GROUP)
    pos = PositiveCone(gamma.lattice, (1, 0))
    return ser.certificate_to_json(dirichlet_domain(gamma, pos, (1, 0), word_bound=8))


@cache
def full_cone_certificate():
    """C+ itself as the domain of the Pell group: it reads, and verification
    refuses it."""
    gamma = ser.generated_group_from_json(PELL_GROUP)
    pos = PositiveCone(gamma.lattice, (1, 0))
    full = cone_from_halfspaces(2, ())
    return ser.certificate_to_json(DomainCertificate(pos, gamma, (1, 0), 0, full, 0, ()))


def valid_documents(option):
    if option == "--in":
        return [{"gram": [[2, 0], [0, -4]]}, {"name": "U"}]
    if option == "--sub":
        return [{"basis": [[2, 0]]}]
    if option == "--group":
        return [PELL_GROUP, {"table": [[0, 1], [1, 0]]}, {"permutations": [[1, 2, 0]]}]
    if option == "--pos":
        return [PELL_POS]
    if option in ("--pi1", "--pi2"):
        return [PELL_DOMAIN, {"halfspaces": [[1, -2], [1, 2]]}]
    if option == "--seq":
        z2 = {"group": "Z2", "carrier": "Z2", "action": "trivial"}
        return [{"sub": z2, "mid": {"group": "Z2", "carrier": "Z4", "action": "trivial"},
                 "quot": z2, "inclusion": [0, 2], "projection": [0, 1, 0, 1]}]
    if option == "--spec":
        return [
            {"kind": "finite", "group": "S3", "chain": [[0, 3, 4]], "g": "Z2"},
            {"kind": "split", "free_rank": 1, "torsion": [], "quotient": "Z2",
             "q_action": [[[1]], [[-1]]], "g": "Z2"},
        ]
    if option == "--klein":
        return [{"carrier": "D4", "eps": [1, 1, 1, 1, -1, -1, -1, -1], "sigma": 4}]
    if option == "--ggroup":
        return [{"group": "Z2", "carrier": "S3", "action": "trivial"}]
    if option == "--hodge":
        return [HODGE6]
    if option == "--cone":
        return [json.loads(hilbert_square()[KAHLER])]
    if option == "--mon":
        return [MON, {"kind": "full_orthogonal_plus"},
                {"kind": "generators", "generators": [], "word_bound": 2}]
    return [pell_certificate(), full_cone_certificate()]


KEYS = st.sampled_from(
    ["gram", "name", "rank", "basis", "lattice", "generators", "matrix", "sign",
     "word_bound", "component_base", "table", "names", "permutations", "rays",
     "halfspaces", "lines", "equalities", "ambient_dim", "positive_cone", "group",
     "xi", "domain", "full_cone", "stabilization_depth", "orbit_elements", "sub",
     "mid", "quot", "inclusion", "projection", "kind", "chain", "g", "free_rank",
     "torsion", "quotient", "q_action", "carrier", "eps", "sigma", "action",
     "period_re", "period_im", "signs", "require_orientation", "cone", "embedding"]
) | st.text(max_size=3)
SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 9) | st.sampled_from([-1, 99])
    | st.floats(width=16) | st.sampled_from(["1/2", "0/0", "x", "U", "K3", "Z2", "S3"])
    | st.text(max_size=3)
)
JUNK = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=3),
    max_leaves=8,
)
DROP = object()


def paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from paths(value, path + (key,))


def edited(doc, path, value):
    """A copy of doc with the subtree at path replaced by value, or removed
    when value is DROP."""
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    key, rest = path[0], path[1:]
    if rest:
        out[key] = edited(doc[key], rest, value)
    elif value is DROP:
        del out[key]
    else:
        out[key] = value
    return out


@st.composite
def mutated(draw, docs):
    """One of docs with one or two subtrees replaced by junk or dropped."""
    doc = draw(st.sampled_from(docs))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(paths(doc))))
        drop = path and draw(st.booleans())
        doc = edited(doc, path, DROP if drop else draw(JUNK))
    return doc


@st.composite
def malformed(draw, option):
    text = json.dumps(draw(mutated(valid_documents(option))))
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def error_names():
    out, todo = set(), [KleinLatticeError]
    while todo:
        cls = todo.pop()
        out.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return out


def request(template, option, text):
    docs = hilbert_square()
    return [f"{option}={text}" if arg is X else docs.get(arg, arg) for arg in template]


def assert_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        first = err.getvalue().split("\n", 1)[0]
        assert first.startswith("error: "), argv
        assert first[len("error: "):].split(":", 1)[0] in error_names(), argv
    else:
        json.loads(out.getvalue())


@pytest.mark.parametrize("option", sorted(REQUESTS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_malformed_json_ends_in_an_exit_code(option, data):
    template = data.draw(st.sampled_from(REQUESTS[option]))
    assert_ends_in_an_exit_code(request(template, option, data.draw(malformed(option))))


def index_sweep():
    """Every request of a --seq, --spec or --klein template whose document
    has one integer leaf set to -1 or 99, and h1 twist with -1 or 99 as the
    last index of --sub or --phi."""
    for option in ("--seq", "--spec", "--klein"):
        for doc in valid_documents(option):
            for path in paths(doc):
                leaf = doc
                for key in path:
                    leaf = leaf[key]
                if type(leaf) is not int:
                    continue
                for bad in (-1, 99):
                    text = json.dumps(edited(doc, path, bad))
                    for template in REQUESTS[option]:
                        yield request(template, option, text)
    for template in REQUESTS["--ggroup"]:
        argv = request(template, "--ggroup", json.dumps(valid_documents("--ggroup")[0]))
        for flag in ("--sub", "--phi"):
            at = argv.index(flag) + 1
            for bad in (-1, 99):
                yield argv[:at] + [argv[at].rsplit(",", 1)[0] + f",{bad}"] + argv[at + 1:]


def test_out_of_range_indices_end_in_an_exit_code():
    argvs = list(index_sweep())
    assert len(argvs) == 76
    for argv in argvs:
        assert_ends_in_an_exit_code(argv)


@cache
def readers():
    """Every codec.*_from_json and serialize.*_from_json reader as a
    function of one document, with valid documents for it."""
    u = ser.lattice_from_json("U")
    return {
        "rat_from_json": (codec.rat_from_json, [3, "1/2"]),
        "int_from_json": (ser.int_from_json, [3, "4"]),
        "bool_from_json": (codec.bool_from_json, [True, False]),
        "list_from_json": (lambda v: ser.list_from_json(v, "list"), [[1, 2]]),
        "vec_from_json": (ser.vec_from_json, [[1, "1/2"]]),
        "int_vec_from_json": (ser.int_vec_from_json, [[1, 2]]),
        "int_mat_from_json": (ser.int_mat_from_json, [[[1, 0], [0, 1]]]),
        "lattice_from_json": (ser.lattice_from_json, valid_documents("--in") + ["U"]),
        "sublattice_from_json": (
            lambda obj: codec.sublattice_from_json(u, obj), valid_documents("--sub")
        ),
        "generated_group_from_json": (ser.generated_group_from_json, [PELL_GROUP]),
        "cone_from_json": (ser.cone_from_json, valid_documents("--pi1")),
        "positive_cone_from_json": (ser.positive_cone_from_json, [PELL_POS]),
        "certificate_from_json": (ser.certificate_from_json, valid_documents("--cert")),
        "hodge_from_json": (ser.hodge_from_json, [HODGE6]),
        "monodromy_spec_from_json": (ser.monodromy_spec_from_json, valid_documents("--mon")),
        "kahler_model_from_json": (ser.kahler_model_from_json, [KAHLER4]),
        "finite_group_from_json": (
            ser.finite_group_from_json,
            ["S3", {"table": [[0, 1], [1, 0]]}, {"permutations": [[1, 2, 0]]}],
        ),
        "ggroup_from_json": (
            ser.ggroup_from_json,
            valid_documents("--ggroup")
            + [{"group": "Z2", "carrier": "Z3", "action": [[0, 1, 2], [0, 2, 1]]}],
        ),
        "exact_sequence_from_json": (ser.exact_sequence_from_json, valid_documents("--seq")),
        "filtration_spec_from_json": (
            ser.filtration_spec_from_json, valid_documents("--spec")
        ),
        "klein_group_from_json": (ser.klein_group_from_json, valid_documents("--klein")),
    }


def test_every_reader_is_fuzzed():
    assert set(readers()) == {
        name for module in (codec, ser) for name in dir(module) if name.endswith("_from_json")
    }
    for read, docs in readers().values():
        for doc in docs:
            read(doc)


@st.composite
def reader_cases(draw):
    name = draw(st.sampled_from(sorted(readers())))
    return name, draw(mutated(readers()[name][1]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=reader_cases())
@example(case=("kahler_model_from_json", {**KAHLER4, "embedding": [[1]]}))
@example(case=("kahler_model_from_json", {**KAHLER4, "embedding": [[0, 0, 1, 0, 7]]}))
@example(case=("certificate_from_json", {**full_cone_certificate(), "full_cone": False}))
@example(case=("certificate_from_json", {**full_cone_certificate(), "halfspaces": [[1, 0]]}))
def test_readers_raise_only_library_errors(case):
    name, doc = case
    read, _ = readers()[name]
    try:
        read(doc)
    except KleinLatticeError:
        pass

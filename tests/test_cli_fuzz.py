"""Fuzzing of the CLI's JSON boundary.

Each example breaks a valid --in, --sub, --group, --cert, --pos or --pi1
document (a subtree replaced by junk, a key or item dropped, the text cut
short) and runs main() in-process.  Every request must end in exit 0, 1 or 2 without a
traceback, and exit 1 must name a KleinLatticeError subclass on stderr.
"""

import contextlib
import io
import json
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from klein_lattice import serialize as ser
from klein_lattice.cli import main
from klein_lattice.cones import PositiveCone, dirichlet_domain
from klein_lattice.errors import KleinLatticeError

PELL_GROUP = {
    "lattice": {"gram": [[2, 0], [0, -4]]},
    "generators": [{"matrix": [[3, 4], [2, 3]]}],
    "word_bound": 8,
    "component_base": [1, 0],
}
PELL_POS = {"lattice": {"gram": [[2, 0], [0, -4]]}, "component_base": [1, 0]}
PELL_DOMAIN = {"ambient_dim": 2, "rays": [[2, -1], [2, 1]], "halfspaces": [[1, -2], [1, 2]]}
X = object()  # where "OPTION=DOCUMENT" goes in a request

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
}


@cache
def pell_certificate():
    gamma = ser.generated_group_from_json(PELL_GROUP)
    pos = PositiveCone(gamma.lattice, (1, 0))
    return ser.certificate_to_json(dirichlet_domain(gamma, pos, (1, 0), word_bound=8))


def valid_documents(option):
    if option == "--in":
        return [{"gram": [[2, 0], [0, -4]]}, {"name": "U"}]
    if option == "--sub":
        return [{"basis": [[2, 0]]}]
    if option == "--group":
        return [PELL_GROUP, {"table": [[0, 1], [1, 0]]}, {"permutations": [[1, 2, 0]]}]
    if option == "--pos":
        return [PELL_POS]
    if option == "--pi1":
        return [PELL_DOMAIN, {"halfspaces": [[1, -2], [1, 2]]}]
    return [pell_certificate()]


KEYS = st.sampled_from(
    ["gram", "name", "rank", "basis", "lattice", "generators", "matrix", "sign",
     "word_bound", "component_base", "table", "names", "permutations", "rays",
     "halfspaces", "lines", "equalities", "ambient_dim", "positive_cone", "group",
     "xi", "domain", "full_cone", "stabilization_depth", "orbit_elements"]
) | st.text(max_size=3)
SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(width=16)
    | st.sampled_from(["1/2", "0/0", "x", "U", "K3", "Z2"]) | st.text(max_size=3)
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
def malformed(draw, option):
    doc = draw(st.sampled_from(valid_documents(option)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(paths(doc))))
        drop = path and draw(st.booleans())
        doc = edited(doc, path, DROP if drop else draw(JUNK))
    text = json.dumps(doc)
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


@pytest.mark.parametrize("option", sorted(REQUESTS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_malformed_json_ends_in_an_exit_code(option, data):
    template = data.draw(st.sampled_from(REQUESTS[option]))
    text = data.draw(malformed(option))
    argv = [f"{option}={text}" if arg is X else arg for arg in template]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        first = err.getvalue().split("\n", 1)[0]
        assert first.startswith("error: ")
        assert first[len("error: "):].split(":", 1)[0] in error_names()
    else:
        json.loads(out.getvalue())

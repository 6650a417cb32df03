"""The benchmark's output checks accept real outputs and reject corrupted ones.

    python3 -m pytest -q perfbench/test_checkers.py
"""

import os
import random
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
os.environ.setdefault("PERFBENCH_ROOT", ROOT)

import pytest  # noqa: E402

from workloads import (  # noqa: E402
    SUBGROUP_CLASSES,
    CliBatch,
    ConeBuild,
    DomainQueries,
    GroupCohomology,
)


@pytest.fixture(scope="module")
def domain():
    w = DomainQueries()
    w.setup(random.Random(1))
    return w


@pytest.fixture(scope="module")
def cohomology():
    w = GroupCohomology()
    w.setup(random.Random(1))
    return w


def test_domain_checks(domain):
    for task in domain.deck(random.Random(2), 0)[:6]:
        out = domain.run(task)
        assert domain.check(task, out) is None, task
        if task["kind"] == "member":
            flipped = list(out)
            flipped[0] = "out" if flipped[0] == "in" else "in"
            assert domain.check(task, flipped) is not None
        else:
            short = dict(out, disjointness=dict(out["disjointness"]))
            short["disjointness"]["checked"] -= 1
            assert domain.check(task, short) is not None


def test_cone_check_rejects_dropped_ray():
    w = ConeBuild()
    w.setup(random.Random(1))
    tasks = [t for t in w.deck(random.Random(3), 0) if t["dim"] == 4]
    for task in tasks[:4]:
        cone = w.run(task)
        assert w.check(task, cone) is None, task
        dropped = SimpleNamespace(
            rays=cone.rays[1:], lines=cone.lines, halfspaces=cone.halfspaces,
            equalities=cone.equalities,
        )
        assert w.check(task, dropped) is not None


def test_matrix_check_rejects_dropped_class(cohomology):
    task = {"kind": "matrix", "k": 2, "bound": 3}
    out = cohomology.run(task)
    assert cohomology.check(task, out) is None
    assert cohomology.check(task, dict(out, matrix=out["matrix"][:-1])) is not None
    assert cohomology.check(task, dict(out, cone=out["cone"][1:])) is not None
    # a class that matches nothing on the other route
    other = cohomology.run({"kind": "matrix", "k": 3, "bound": 3})
    assert cohomology.check(task, dict(out, cone=other["cone"])) is not None


def test_table_checks(cohomology):
    for task in cohomology.deck(random.Random(4), 0):
        if task["kind"] != "matrix":
            assert cohomology.check(task, cohomology.run(task)) is None, task
    task = {"kind": "subgroups", "item": "S4"}
    assert cohomology.check(task, cohomology.run(task)[1:]) is not None
    task = {"kind": "h1", "item": "D4"}
    out = cohomology.run(task)
    assert cohomology.check(task, dict(out, size=out["size"] - 1)) is not None


def _subgroup_classes(table):
    """Independent count: every subgroup of these groups is generated by
    two elements; classes by the minimum over conjugates."""
    n = len(table)
    ident = next(e for e in range(n) if all(table[e][x] == x for x in range(n)))
    inv = [next(y for y in range(n) if table[x][y] == ident) for x in range(n)]
    subs = set()
    for x in range(n):
        for y in range(n):
            h, frontier = {ident}, [ident]
            while frontier:
                a = frontier.pop()
                for g in (x, y):
                    b = table[a][g]
                    if b not in h:
                        h.add(b)
                        frontier.append(b)
            subs.add(frozenset(h))
    canon = {
        min(tuple(sorted(table[table[c][s]][inv[c]] for s in h)) for c in range(n))
        for h in subs
    }
    return len(canon)


def test_subgroup_class_table(cohomology):
    for name, want in SUBGROUP_CLASSES.items():
        assert _subgroup_classes(cohomology.groups[name].table) == want, name


def test_cli_check_rejects_traceback():
    w = CliBatch()
    w.error_names = {"KleinLatticeError", "InvalidInput", "ParseError"}
    ok = {"kind": "classify", "argv": ["lattice", "classify", "--in", '{"gram": [[2,0],[0,-4]]}']}
    report = ('{"completeness": "Certified", "elapsed_ms": 0, "request": {}, '
              '"result": {"type": "Hyperbolic"}, "seed": 0}')
    assert w.check(ok, {"code": 0, "stdout": report, "stderr": ""}) is None
    tb = "Traceback (most recent call last):\n  ...\nTypeError: boom\n"
    assert w.check(ok, {"code": 0, "stdout": report, "stderr": tb}) is not None
    bad = {"kind": "non_square", "argv": ["lattice", "signature", "--in", '{"gram": [[1,2]]}']}
    err = "error: InvalidInput: gram matrix must be square\n"
    assert w.check(bad, {"code": 1, "stdout": "", "stderr": err}) is None
    assert w.check(bad, {"code": 1, "stdout": "", "stderr": tb}) is not None
    assert w.check(bad, {"code": 1, "stdout": "", "stderr": "error: TypeError: x\n"}) is not None
    # the seed-commit response to {"gram": 5}: a known defect, still a failed check
    wrong = {"kind": "wrong_type", "argv": ["lattice", "signature", "--in", '{"gram": 5}']}
    out = {"code": 1, "stdout": "", "stderr": tb}
    assert w.check(wrong, out) is not None and w.known_defect(wrong, out)
    assert not w.known_defect(bad, {"code": 1, "stdout": "", "stderr": tb})


def test_layer_metrics_mark_missing_functions_absent():
    import tracer

    export = {
        "functions": {"cones.cone_from_halfspaces": [3, 0.5, 0.2],
                      "intlinalg.rank": [10, 0.1, 0.1]},
        "counts": {},
        "defined": ["cones.cone_from_halfspaces", "intlinalg.rank"],
    }
    out = tracer.layer_metrics(export, {})
    assert out["cones.dd_rays.calls"] is None and out["cones.dd_rays.rays_out"] is None
    assert out["intlinalg.rank.calls"] == 10 and out["intlinalg.frac_inverse.calls"] is None
    assert out["cones.self_s"] == 0.2 and out["intlinalg.calls"] == 10

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import klein_lattice

from cases import HODGE6

PACKAGE = Path(klein_lattice.__file__).parent


def unused_imports(source):
    """Names a module imports but never reads, found with the ast module."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detects_a_dead_name():
    source = "import os\nfrom fractions import Fraction\nos.getcwd()\n"
    assert unused_imports(source) == [(2, "Fraction")]


def assert_no_unused_imports(directory):
    found = {p.name: unused_imports(p.read_text()) for p in sorted(directory.glob("*.py"))}
    assert found
    assert {name: dead for name, dead in found.items() if dead} == {}


def test_library_modules_import_no_unused_names():
    assert_no_unused_imports(PACKAGE)


def test_test_modules_import_no_unused_names():
    assert_no_unused_imports(Path(__file__).parent)


def imported_modules(source):
    """Top-level names of the modules a source imports, absolute imports only."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_imported_modules_sees_every_import_form():
    source = "import os.path\nfrom dataclasses import field\nfrom . import lattice\n"
    assert imported_modules(source) == {"os", "dataclasses"}


def test_no_test_module_imports_another():
    # shared data lives in cases.py: a test module imported by another runs
    # twice, and does not import at all under --import-mode=importlib
    tests = sorted(Path(__file__).parent.glob("test_*.py"))
    names = {p.stem for p in tests}
    found = {p.name: imported_modules(p.read_text()) & names for p in tests}
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_no_library_module_imports_dataclasses():
    # the value types derive from frozen.Frozen; dataclasses would load inspect
    found = {p.name: imported_modules(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {name for name, mods in found.items() if "dataclasses" in mods} == set()


def name_of(node):
    """The name a bare or dotted name node ends in, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def summed_products(source):
    """Lines of sum(...) calls that add up products taken pairwise from two
    sequences: a generator or list of x * y over zip(...), or map(mul, ...)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and name_of(node.func) == "sum" and node.args):
            continue
        arg = node.args[0]
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            over_zip = any(
                isinstance(gen.iter, ast.Call) and name_of(gen.iter.func) == "zip"
                for gen in arg.generators
            )
            if over_zip and isinstance(arg.elt, ast.BinOp) and isinstance(arg.elt.op, ast.Mult):
                found.append(node.lineno)
        elif (isinstance(arg, ast.Call) and name_of(arg.func) == "map" and arg.args
              and name_of(arg.args[0]) == "mul"):
            found.append(node.lineno)
    return found


def test_summed_products_sees_both_forms():
    source = (
        "a = sum(x * y for x, y in zip(u, v))\n"
        "b = sum([x * Fraction(y) for x, y in zip(u, v)])\n"
        "c = sum(map(mul, u, v))\n"
        "d = sum(map(operator.mul, u, v))\n"
        "e = sum(x * x for x in u)\n"
        "f = sum(x + y for x, y in zip(u, v))\n"
        "g = sum(1 for d in u if d > 0)\n"
    )
    assert summed_products(source) == [1, 2, 3, 4]


def test_only_intlinalg_sums_products():
    # dot products go through the intlinalg kernels, which sum in C
    found = {p.name: summed_products(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("intlinalg.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def form_evaluations(source):
    """Lines of dot(mat_vec(...), ...) calls: the lattice form u^T G v
    written out by hand."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and name_of(node.func) == "dot"
        and any(isinstance(a, ast.Call) and name_of(a.func) == "mat_vec" for a in node.args)
    )


def test_form_evaluations_detects_a_hand_written_pairing():
    source = (
        "a = la.dot(la.mat_vec(g, v), u)\n"
        "b = dot(u, mat_vec(g, v))\n"
        "c = la.dot(h, x)\n"
        "d = lat.pairing(la.mat_vec(m, v), v)\n"
    )
    assert form_evaluations(source) == [1, 2]


def test_only_the_lattice_evaluates_the_form():
    # pairings, norms, Gram matrices and covectors go through IntegerLattice
    found = {p.name: form_evaluations(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("lattice.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def handlers_of(source, exc):
    """Lines of the except clauses that name the exception `exc`, alone or
    in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(name_of(n) == exc for n in names):
                found.append(node.lineno)
    return found


def test_handlers_of_detects_a_caught_attribute_error():
    source = (
        "try:\n    v = primitive_vector(x)\nexcept (AttributeError, TypeError):\n    pass\n"
        "try:\n    f()\nexcept builtins.AttributeError as exc:\n    raise\n"
        "try:\n    g()\nexcept (KeyError, TypeError):\n    pass\n"
        "try:\n    g()\nexcept:\n    raise\n"
    )
    assert handlers_of(source, "AttributeError") == [3, 7]


def test_only_the_point_reader_catches_attribute_error():
    # lattice.rational_point reads every rational point the library is
    # handed; an entry point that catches AttributeError reads one itself
    found = {
        p.name: handlers_of(p.read_text(), "AttributeError") for p in sorted(PACKAGE.glob("*.py"))
    }
    assert found.pop("lattice.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_calls_outside_detects_a_pairing_in_the_cone_layer():
    source = (
        "def rank(lat, xi, moves, x):\n"
        "    return min(moves, key=lambda m: lat.pairing(xi, mat_vec(m, x)))\n\n\n"
        "val = pairing(xi, x)\ncov = lat.covector(xi)\nside = la.dot(cov, x) > 0 < lat.q(x)\n"
    )
    assert calls_outside(source, "pairing", ()) == [2, 5]


def test_the_cone_layer_reads_the_form_only_through_covectors():
    # membership reads <base, .> through base_covector and reduction ranks
    # its moves by xi's covector: cones calls covector and q, never pairing
    assert calls_outside((PACKAGE / "cones.py").read_text(), "pairing", ()) == []


CONE_BUILDERS = ("cone_from_halfspaces", "cone_from_rays")


def nodes_outside(source, match, definitions):
    """Lines of the nodes that `match` accepts outside the module-level
    functions and classes named in `definitions`, and the methods named
    there as Class.method."""
    tree = ast.parse(source)
    named = [
        (node, node.name)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    named += [
        (item, f"{node.name}.{item.name}")
        for node, _ in named
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    ]
    allowed = [
        range(node.lineno, node.end_lineno + 1)
        for node, name in named
        if name in definitions
    ]
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if match(node) and not any(node.lineno in lines for lines in allowed)
    )


def calls_outside(source, callee, functions):
    """Lines of calls to `callee`, bare or dotted, outside the module-level
    functions and the Class.method methods named in `functions`."""
    return nodes_outside(
        source, lambda n: isinstance(n, ast.Call) and name_of(n.func) == callee, functions
    )


def reads_outside(source, attr, classes):
    """Lines that read the attribute `attr` outside the module-level classes
    named in `classes`."""
    return nodes_outside(
        source, lambda n: isinstance(n, ast.Attribute) and n.attr == attr, classes
    )


def test_direct_cone_calls_detects_a_direct_call():
    source = (
        "def cone_from_rays(dim, rays):\n    return PolyhedralCone(dim, rays, (), (), ())\n\n\n"
        "def shortcut(dim):\n    return cones.PolyhedralCone(dim, (), (), (), ())\n\n\n"
        "zero = PolyhedralCone(1, (), (), (), ())\n"
    )
    assert calls_outside(source, "PolyhedralCone", CONE_BUILDERS) == [6, 9]


def test_cones_are_built_only_by_the_two_builders():
    # a direct call can pair rays with equalities they do not span, and
    # dim() trusts the equalities
    sources = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    found = {
        f"{p.parent.name}/{p.name}": calls_outside(p.read_text(), "PolyhedralCone", CONE_BUILDERS)
        for p in sources
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


# the library functions that need an image cone m(K): the sector rays and the
# Torelli cone condition, whose matrix may be singular
IMAGE_CONE_CALLERS = {"cli.py": ("emit_sectors",), "hodge.py": ("torelli_anti_check",)}


def test_calls_outside_detects_a_translate_built_as_an_image():
    source = (
        "def emit_sectors(cert, m):\n    return transform_cone(cert.domain, m)\n\n\n"
        "def meets(d, m):\n    return intersect(cones.transform_cone(d, m), d)\n"
    )
    assert calls_outside(source, "transform_cone", ("emit_sectors",)) == [6]
    assert calls_outside(source, "transform_cone", ()) == [2, 6]


def test_translates_meet_cones_by_one_pull_back():
    # D cap gD is meet_preimage(D, g^-1, D), one cone build; only the two
    # callers that need an image cone call transform_cone
    found = {
        p.name: calls_outside(p.read_text(), "transform_cone", IMAGE_CONE_CALLERS.get(p.name, ()))
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


# the subgroup engine of cohomology: every closure walk and every cyclic
# extension runs in these functions and methods, so none bypasses the
# closure from generators
ENGINE_CALLERS = {
    "subgroup_closure": {
        "cohomology.py": (
            "_orbit_partition", "extension_subgroups", "FiniteGroup.closure", "permutation_group",
        ),
    },
    "extension_subgroups": {
        "cohomology.py": ("FiniteGroup.all_subgroups", "finite_subgroup_classes_matrix"),
        "hodge.py": ("classify_finite_subgroups_on_cone",),
    },
}


def test_calls_outside_detects_a_closure_outside_the_named_method():
    source = (
        "class FiniteGroup:\n    def closure(self, s):\n        return subgroup_closure(s)\n\n"
        "    def span(self, s):\n        return subgroup_closure(s)\n"
    )
    assert calls_outside(source, "subgroup_closure", ("FiniteGroup.closure",)) == [6]
    assert calls_outside(source, "subgroup_closure", ("FiniteGroup",)) == []
    assert calls_outside(source, "subgroup_closure", ()) == [3, 6]


def test_only_the_engine_closes_subgroups():
    found = {
        (callee, p.name): calls_outside(p.read_text(), callee, callers.get(p.name, ()))
        for callee, callers in ENGINE_CALLERS.items()
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert {key: lines for key, lines in found.items() if lines} == {}


# the JSON number codecs; the CLI writes a report with one json.dumps whose
# default is rat_to_json, and its handlers return library values as they are
NUMBER_ENCODERS = ("mat_to_json", "vec_to_json", "rat_to_json")


def test_calls_outside_detects_an_encoder_call_not_a_reference():
    source = (
        "def cmd(args):\n    return {'basis': codec.mat_to_json(args.basis)}\n\n\n"
        "text = json.dumps(report, default=codec.rat_to_json)\n"
        "ray = vec_to_json(r)\n"
    )
    found = {name: calls_outside(source, name, ()) for name in NUMBER_ENCODERS}
    assert found == {"mat_to_json": [2], "vec_to_json": [6], "rat_to_json": []}


def test_the_cli_encodes_no_number_by_hand():
    source = (PACKAGE / "cli.py").read_text()
    found = {name: calls_outside(source, name, ()) for name in NUMBER_ENCODERS}
    assert {name: lines for name, lines in found.items() if lines} == {}


# the orientation of C is read off PositiveCone.base_covector; only the
# class itself reads its component_base
ORIENTATION_READERS = {"cones.py": ("PositiveCone",), "cli.py": (), "hodge.py": ()}


def test_reads_outside_detects_a_stray_orientation_test():
    source = (
        "class PositiveCone:\n    def covector(self):\n        return self.component_base\n\n\n"
        "def member(pos, x):\n    return pairing(x, pos.component_base) > 0\n"
    )
    assert reads_outside(source, "component_base", ("PositiveCone",)) == [7]
    assert reads_outside(source, "component_base", ()) == [3, 7]


def test_only_the_positive_cone_reads_its_base():
    found = {
        name: reads_outside((PACKAGE / name).read_text(), "component_base", classes)
        for name, classes in ORIENTATION_READERS.items()
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


# a bounded routine states whether its answer is Certified or a
# BoundedSearch; the CLI copies that flag and reads no kind or mode to
# choose one
FLAG_WORDS = ("BoundedSearch", "Undecided", "bounded")


def flag_words(source):
    """Lines of the string constants of FLAG_WORDS in a source."""
    return nodes_outside(
        source, lambda n: isinstance(n, ast.Constant) and n.value in FLAG_WORDS, ()
    )


def test_flag_words_detects_a_flag_chosen_from_a_kind():
    source = (
        'def handler(out):\n    """Undecided is bounded."""\n'
        '    flag = "Certified" if out.kind != "Undecided" else "BoundedSearch"\n'
        '    return out.mode == "bounded", flag\n'
    )
    assert flag_words(source) == [3, 3, 4]


def test_the_cli_decides_no_flag():
    assert flag_words((PACKAGE / "cli.py").read_text()) == []


def names_read(source):
    """The bare names and the attribute names a module reads, as two sets."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def definitions(tree):
    """(node, is_method) for the module-level functions and classes and
    for the non-dunder methods and properties of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item, True


def dead_definitions(modules, readers):
    """Definitions of `modules` (name -> source) that no source in `readers`
    reads, as sorted (module, line, name) triples.  A method or property is
    read only as an attribute, so a bare name of the same spelling, such as
    a local function, does not count for it."""
    names, attrs = set(), set()
    for source in readers:
        n, a = names_read(source)
        names |= n
        attrs |= a
    return sorted(
        (module, node.lineno, node.name)
        for module, source in modules.items()
        for node, is_method in definitions(ast.parse(source))
        if node.name not in attrs and (is_method or node.name not in names)
    )


def test_dead_definitions_detects_an_orphan():
    lib = (
        "def helper():\n    return 1\n\n\ndef api():\n    return helper()\n\n\n"
        "class Gone:\n    pass\n\n\n"
        "class Kept:\n    def __init__(self):\n        pass\n\n"
        "    def used(self):\n        return 1\n\n"
        "    @property\n    def unused(self):\n        return 2\n\n"
        "    def helper(self):\n        return 3\n"
    )
    test = "from lib import Gone, Kept, api\n\nassert api() == Kept().used()\n"
    # helper is read by lib, api, Kept and used by the test; importing Gone
    # is not reading it, a dunder method is read by the language, and the
    # bare name helper does not read the method helper
    assert dead_definitions({"lib": lib}, [lib, test]) == [
        ("lib", 9, "Gone"), ("lib", 21, "unused"), ("lib", 24, "helper"),
    ]
    assert dead_definitions({"lib": lib}, [test]) == [
        ("lib", 1, "helper"), ("lib", 9, "Gone"), ("lib", 21, "unused"),
        ("lib", 24, "helper"),
    ]


def test_every_library_definition_is_read():
    modules = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    tests = [p.read_text() for p in sorted(Path(__file__).parent.glob("*.py"))]
    assert dead_definitions(modules, [*modules.values(), *tests]) == []


LOADED = """
import contextlib, importlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("klein_lattice."))

def slow():
    return sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)

import klein_lattice.lattice
after_import = loaded()
from klein_lattice.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["lattice", "signature", "--name", "K3"])
request, request_slow = loaded(), slow()
with contextlib.redirect_stdout(io.StringIO()):
    cone_code = main(["cone", "member", "--name", "U", "--base", "1,1", "--point", "1,0"])
cone_request = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    hk_code = main(["hk", "projective", "--hodge", sys.argv[1]])
hk_request = loaded()
for name in sys.argv[2:]:
    importlib.import_module("klein_lattice." + name)
print(json.dumps({"import": after_import, "request": request, "code": code,
                  "cone_request": cone_request, "cone_code": cone_code,
                  "hk_request": hk_request, "hk_code": hk_code,
                  "request_slow": request_slow, "all_slow": slow()}))
"""


def test_lattice_request_loads_no_other_library_module():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, json.dumps(HODGE6), *modules],
        capture_output=True, text=True, env=env, check=True,
    )
    out = json.loads(proc.stdout)
    heavy = {f"klein_lattice.{m}" for m in ("cohomology", "cones", "hodge", "isometry")}
    assert out["code"] == 0
    assert "klein_lattice.lattice" in out["import"]
    assert heavy.isdisjoint(out["import"])
    assert "klein_lattice.cli" in out["request"]
    assert heavy.isdisjoint(out["request"])
    # the lattice and matrix codecs live apart from the composite ones
    assert "klein_lattice.codec" in out["request"]
    assert "klein_lattice.serialize" not in out["request"]
    # a cone member request needs no group: cones imports isometry only
    # where a group is involved
    assert out["cone_code"] == 0
    assert "klein_lattice.cones" in out["cone_request"]
    assert (heavy - {"klein_lattice.cones"}).isdisjoint(out["cone_request"])
    # hodge imports cohomology only to classify finite subgroups
    assert out["hk_code"] == 0
    assert "klein_lattice.hodge" in out["hk_request"]
    assert "klein_lattice.cohomology" not in out["hk_request"]
    # neither the request nor the whole library loads dataclasses or inspect
    assert out["request_slow"] == []
    assert out["all_slow"] == []

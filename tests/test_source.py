import ast
from pathlib import Path

import klein_lattice

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


def test_library_modules_import_no_unused_names():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: dead for name, dead in found.items() if dead} == {}

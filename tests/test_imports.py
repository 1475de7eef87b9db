"""Every name a package module imports is used, and every function or class it
defines is referred to.

Stdlib only: each module of `src/heisflag` except `__init__.py` (which
imports to re-export), and the test oracles in `tests/oracles.py`, is parsed
with `ast`, and each imported name must occur as a name in the module body,
or inside a string annotation.  Each top-level function and class of
`src/heisflag/*.py` must be named, outside its own definition, somewhere in
`src/`, `tests/`, `demos/` or `bench/`: as an identifier, an attribute, an
imported name or a string that is exactly the name.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "heisflag"
SCANNED = ("src", "tests", "demos", "bench")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    source = "from typing import Sequence\nimport json\n\ndef f(x: 'Sequence'):\n    return x\n"
    assert unused_imports(source) == ["line 2: json"]


def test_no_unused_imports_in_package_modules():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    modules.append(TESTS / "oracles.py")
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def top_level_definitions(source: str) -> list[str]:
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def referenced_names(source: str) -> set[str]:
    """Names a module refers to, leaving out each top-level definition's own name inside it."""
    names = set()
    for stmt in ast.parse(source).body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        names |= found
    return names


def unreferenced(defining: dict[str, str], sources: list[str]) -> list[str]:
    """Top-level definitions of the `defining` modules (name to source) that no source names."""
    referenced = set().union(*map(referenced_names, sources))
    return [f"{module}: {name}" for module, source in defining.items()
            for name in top_level_definitions(source) if name not in referenced]


def test_checker_flags_an_unreferenced_definition():
    lib = ("def used():\n    pass\n\n\ndef recursive(n):\n    return recursive(n - 1)\n\n\n"
           "class Named:\n    pass\n")
    user = "from lib import used\nx = getattr(lib, 'Named')\n"
    assert unreferenced({"lib.py": lib}, [lib, user]) == ["lib.py: recursive"]
    assert unreferenced({"lib.py": lib}, [lib]) == ["lib.py: used", "lib.py: recursive",
                                                    "lib.py: Named"]


def test_every_package_definition_is_referenced():
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert defining
    sources = [p.read_text() for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced(defining, sources) == []

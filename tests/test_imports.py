"""Every name a package module imports is used, and every function or class it
defines is referred to.

Stdlib only: each module of `src/heisflag` except `__init__.py` (which
imports to re-export), and the test oracles in `tests/oracles.py`, is parsed
with `ast`, and each imported name must occur as a name in the module body,
or inside a string annotation.  Each top-level function and class of
`src/heisflag/*.py` must be named, outside its own definition, somewhere in
`src/`, `tests/`, `demos/` or `bench/`: as an identifier that is loaded, an
attribute of a name that an import in the same source binds (`linalg.rank`,
`heisflag.linalg.rank`), an imported name or a string that is exactly the
name.  A stored name, such as a dataclass field, and an attribute of any
other value, such as `result.metric_class`, do not count.  A relative
import, such as a re-export in `__init__.py`, is not a reference: every
other relative import is used in its module, which the unused-import check
ensures.  A module outside `src/heisflag` that defines a top-level function
or class of the same name N refers to its own N, so its mentions of N do not
count.
Each method and property of a class there, other than dunders, must be
referred to as an attribute (`x.name`) in those directories, outside its own
definition.  Members cannot be told apart without types, so a member name
that several classes share counts as referred to for all of them once one of
them is used; deleting a member therefore needs a runtime check as well,
such as the test suite run with that member patched to raise.  A private
(`_name`) top-level function or class must be named in `src/` itself: a
helper that only the tests use is a test oracle and lives in
`tests/oracles.py`.  Test oracles live in `tests/`: scanning `src/`,
`demos/` and `bench/` alone, with the strings under `bench/` blanked (its
`LAYERS` names by string what it traces), the only public definitions and
class members that nothing names are the few in `KEPT_FOR_USERS`, each kept
for a stated reason.  No module of `src/heisflag` defines both a top-level
`name` and a private twin `_name`, such as an unchecked second path.

Each top-level function and class of `tests/oracles.py` must be reachable
from a test module: named there as `oracles.name`, imported from `oracles` or
given as a string (for `getattr(oracles, name)`), or named inside an oracle
that is.

`linalg` owns the copy that each elimination works on: no call in
`src/heisflag` to `rank`, `kernel`, `row_space`, `solve`, `integer_inverse`,
`_inverse_rows` or `congruence_diagonalize` copies rows with `list(...)`
in its arguments.  A transpose built in place, as a comprehension over the
rows, is a new matrix and stays allowed.

`witness.py` keeps only float assembly: the flag-adapted frame is built in
`forms`, so the module names none of `ScaledSystem`, `Subspace`, `restrict`,
`scaled_system` and `extend_basis`, calls none of `kernel`, `row_space`,
`lll_reduce` and `extend_to_independent`, and defines no frame helper.

`linalg` is the one exact input boundary: outside `linalg.py`, no module of
`src/heisflag` calls `is_symmetric`, compares a matrix with its transpose
(an operand or a comprehension source built by `transpose(...)` or
`zip(*m)`, or `m[i][j]` against `m[j][i]`), or catches `ShapeError` to
re-raise it under another name (`cli.main` maps it to an exit code).

`linalg.ratio` is the one maker of rationals, so every exact result is
canonical: no module of `src/heisflag` calls `Fraction`, as a name or an
attribute and at module level too, outside `ratio` and
`matrixio.parse_rational` (whose `Fraction(token)` reads a token that its
regex has already matched), or imports it under another name.

`linalg.shape` is the one reader of row lengths: in no module of
`src/heisflag`, `linalg.py` included, does any other function call
`map(len, ...)` or build a comprehension that calls `len` on its own loop
target.  The one exception is `cli._parse_flag_spec`, whose vectors are
parsed user text that must fail with `MatrixFormatError`.

`LineSignature` is the one home of a line type's facts: outside the
`_LINE_FACTS` table of `forms.py`, no module of `src/heisflag` calls
`Signature` with a line's literal signature, (1, 0, 0), (0, 1, 0) or
(0, 0, 1), or builds a tuple, list, set or dict keys holding two or more
`LineSignature` members, such as an order of the types or a membership test.

Every true division in `src/heisflag` and `tests/oracles.py` is exact: no
module has a `/` or `/=` outside `linalg.ratio`, so no quotient of two
`int`s becomes a float; the oracles divide with `Fraction(a, b)` or
`ratio`.  The exceptions are the last line of `witness._assemble`, which
rounds each finished entry to binary64, and the oracles' `hp`, the mpmath
rounding of their 256-bit witness assembly.
`witness.py` assembles in `int` plus `linalg.ratio`: it imports no
`fractions` and names no `Fraction`.

`curvature_report` reads flatness off the theorem in the `curvature`
docstring: its body names none of `riemann`, `_riemann` and `is_flat`, so it
builds and scans no Riemann table.  `curvature.py` reads G once and in
`int`: it calls neither `mat` nor `invert`, as a name or an attribute, so
it builds no `Fraction` copy of G and no full inverse.

The command line has one exit-code map: in `cli.py` only `main` has an
`except` clause or refers to `sys.stderr`, apart from the clause of
`cmd_witness` that turns `InequivalentFlagsError` into an answer.

numpy loads only when a witness is built: no module of `src/heisflag`
imports it at module level (or in a class body, which also runs on
import), and the only numpy imports are inside `witness.py`'s
`subspace_distance`, `_assemble` and `witness_residuals`.  Two child
processes check the same at run time: a fresh `import heisflag` leaves
numpy out of `sys.modules`, and with numpy made unimportable the exact
library and `heisflag table` still work while `isometry_witness` raises an
`ImportError` that names numpy.

Each checker is first tested on small synthetic sources, clean and with a
mutation added, never on a literal line of the library, so that a rewrite
of the library leaves the self-tests as they are.
"""

import ast
import os
import subprocess
import sys
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


def imported_bindings(tree: ast.AST) -> set[str]:
    """The names that an import anywhere in the module binds."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def attribute_root(node: ast.expr) -> str | None:
    """The name at the root of an attribute chain such as `a.b` in `a.b.c`."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def referenced_names(source: str) -> set[str]:
    """Names a module refers to, leaving out each top-level definition's own name inside it."""
    tree = ast.parse(source)
    modules = imported_bindings(tree)
    names = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and attribute_root(node.value) in modules:
                found.add(node.attr)
            elif isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                  and node.level == 0):
                found.update(alias.name.rpartition(".")[2] for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        names |= found
    return names


def unreferenced(defining: dict[str, str], sources: list[str]) -> list[str]:
    """Top-level definitions of the `defining` modules (name to source) that no source names.

    A source that is not one of the defining modules does not name N by
    referring to a top-level definition N of its own.
    """
    library = set(defining.values())
    referenced = set()
    for source in sources:
        names = referenced_names(source)
        if source not in library:
            names -= set(top_level_definitions(source))
        referenced |= names
    return [f"{module}: {name}" for module, source in defining.items()
            for name in top_level_definitions(source) if name not in referenced]


def test_checker_flags_an_unreferenced_definition():
    lib = ("def used():\n    pass\n\n\ndef recursive(n):\n    return recursive(n - 1)\n\n\n"
           "class Named:\n    pass\n")
    user = "from lib import used\nx = getattr(lib, 'Named')\n"
    assert unreferenced({"lib.py": lib}, [lib, user]) == ["lib.py: recursive"]
    # a package re-export names `recursive` for no caller
    init = "from .lib import recursive, used\n"
    assert unreferenced({"lib.py": lib}, [lib, user, init]) == ["lib.py: recursive"]
    assert unreferenced({"lib.py": lib}, [lib]) == ["lib.py: used", "lib.py: recursive",
                                                    "lib.py: Named"]


def test_checker_ignores_a_same_named_definition_outside_the_library():
    lib = "def helper():\n    pass\n\n\ndef used():\n    pass\n"
    test = ("from lib import used\n\n\ndef helper():\n    return used()\n\n\n"
            "def test_a():\n    helper()\n")
    assert unreferenced({"lib.py": lib}, [lib, test]) == ["lib.py: helper"]
    # inside the library, a module's own mentions of its definitions count
    assert unreferenced({"lib.py": lib, "other.py": test}, [lib, test]) == ["other.py: test_a"]


def test_checker_counts_only_loaded_names_and_imported_attributes():
    lib = ("from dataclasses import dataclass\n\n\n@dataclass\nclass Result:\n"
           "    metric_class: int\n\n\ndef metric_class(class_id):\n    return Result(class_id)\n")
    user = ("from lib import Result\n\n\ndef show(result):\n    print(result.metric_class)\n\n\n"
            "show(Result(1))\n")
    # a field, a stored name and an attribute of a value name no definition
    assert unreferenced({"lib.py": lib}, [lib, user]) == ["lib.py: metric_class"]
    assert unreferenced({"lib.py": lib}, [lib, user, "metric_class = 1\n"]) == [
        "lib.py: metric_class"]
    # an attribute of an imported module does, at any depth
    assert unreferenced({"lib.py": lib}, [lib, user, "import lib\nlib.metric_class(1)\n"]) == []
    assert unreferenced({"lib.py": lib}, [lib, user, "import pkg.lib\npkg.lib.metric_class(1)\n"]) == []


def test_every_package_definition_is_referenced():
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert defining
    sources = [p.read_text() for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced(defining, sources) == []


def unreferenced_private(defining: dict[str, str], sources: list[str]) -> list[str]:
    """Private top-level definitions of the `defining` modules that no source names."""
    return [entry for entry in unreferenced(defining, sources)
            if entry.rpartition(": ")[2].startswith("_")]


def test_checker_flags_a_private_definition_only_tests_use():
    lib = ("def _oracle():\n    pass\n\n\ndef _helper():\n    pass\n\n\n"
           "def public():\n    return _helper()\n\n\ndef _recursive(n):\n    return _recursive(n)\n")
    test = "from lib import _oracle, public\n"
    assert unreferenced_private({"lib.py": lib}, [lib]) == ["lib.py: _oracle", "lib.py: _recursive"]
    # a test naming `_oracle` hides it, so the check scans src/ alone
    assert unreferenced_private({"lib.py": lib}, [lib, test]) == ["lib.py: _recursive"]


def test_every_private_definition_is_used_in_src():
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    sources = [p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))]
    assert unreferenced_private(defining, sources) == []


def private_twins(source: str) -> list[str]:
    """`_name` for each top-level `_name` whose public twin `name` the module also defines."""
    names = set(top_level_definitions(source))
    return sorted(f"_{name}" for name in names if f"_{name}" in names)


def test_checker_flags_a_private_twin():
    source = ("def extend(x):\n    check(x)\n    return _extend(x)\n\n\n"
              "def _extend(x):\n    return x\n\n\nclass Table:\n    pass\n\n\n"
              "class _Table:\n    pass\n\n\ndef _helper():\n    pass\n")
    assert private_twins(source) == ["_Table", "_extend"]
    assert private_twins("def _helper():\n    pass\n\n\ndef helper_of():\n    pass\n") == []


def test_no_private_twins_in_the_library():
    found = {p.name: private_twins(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: twins for name, twins in found.items() if twins} == {}


def unreachable_oracles(oracles: str, tests: list[str]) -> list[str]:
    """Top-level definitions of the `oracles` source that no test reaches, directly or not."""
    defs = {node.name: node for node in ast.parse(oracles).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    todo = []
    for node in (n for source in tests for n in ast.walk(ast.parse(source))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "oracles"):
            todo.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "oracles":
            todo.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            todo.append(node.value)
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo.extend(n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name))
    return [name for name in defs if name not in reached]


def test_checker_flags_an_unreachable_oracle():
    lib = ("def direct():\n    return helper()\n\n\ndef helper():\n    pass\n\n\n"
           "def imported():\n    pass\n\n\ndef named():\n    pass\n\n\n"
           "def orphan():\n    return orphan() + helper()\n\n\nclass Unused:\n    pass\n")
    test = ("import oracles\nfrom oracles import imported\n\ndef test_a():\n"
            "    oracles.direct()\n    getattr(oracles, 'named')\n    helper = 1\n")
    assert unreachable_oracles(lib, [test]) == ["orphan", "Unused"]
    assert unreachable_oracles(lib, []) == ["direct", "helper", "imported", "named", "orphan",
                                            "Unused"]


def test_every_oracle_is_reachable_from_a_test():
    tests = [p.read_text() for p in sorted(TESTS.glob("test_*.py"))]
    assert unreachable_oracles((TESTS / "oracles.py").read_text(), tests) == []


def class_members(source: str) -> list[str]:
    """`Class.member` for each method and property of each class, dunders left out."""
    return [f"{cls.name}.{node.name}" for cls in ast.walk(ast.parse(source))
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def referenced_attributes(source: str) -> set[str]:
    """Attribute names a module refers to, leaving out each member's own name inside it."""
    names = set()

    def visit(node, own):
        if isinstance(node, ast.Attribute) and node.attr != own:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            member = (isinstance(node, ast.ClassDef)
                      and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))
            visit(child, child.name if member else own)

    visit(ast.parse(source), None)
    return names


def unreferenced_members(defining: dict[str, str], sources: list[str]) -> list[str]:
    """Class members of the `defining` modules that no source uses as an attribute."""
    referenced = set().union(*map(referenced_attributes, sources))
    return [f"{module}: {member}" for module, source in defining.items()
            for member in class_members(source) if member.rpartition(".")[2] not in referenced]


def test_checker_flags_an_unreferenced_member():
    lib = ("class Lib:\n    def __init__(self):\n        self.n = 0\n\n"
           "    def used(self):\n        return self.recursive()\n\n"
           "    def recursive(self):\n        return self.recursive()\n\n"
           "    @property\n    def size(self):\n        return self.n\n\n"
           "    def named(self):\n        return 0\n")
    user = "from lib import Lib\nLib().used()\nLib().size\nused = getattr(Lib(), 'named')\n"
    assert unreferenced_members({"lib.py": lib}, [lib, user]) == ["lib.py: Lib.named"]
    assert unreferenced_members({"lib.py": lib}, [lib]) == [
        "lib.py: Lib.used", "lib.py: Lib.size", "lib.py: Lib.named"]


def test_every_class_member_is_referenced():
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    sources = [p.read_text() for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced_members(defining, sources) == []


LIBRARY_USERS = ("src", "demos", "bench")

# Public definitions that only the tests call, kept on purpose: entry to reason.
KEPT_FOR_USERS = {
    "forms.py: subspaces_equivalent": "Witt's test for one subspace, the flag test's first half",
    "heisenberg.py: representative_flag": "the flag a taxonomy row names, as the README lists",
    "heisenberg.py: is_scaled_automorphism": "the group's membership test, as the README lists; "
                                             "from_matrix shares its one read and det D",
    "matrixio.py: format_matrix": "the writing half of the matrix file format",
    "heisenberg.py: ScaledAutomorphism.preserves_bracket": "states what from_matrix promises",
    "curvature.py: is_flat": "criterion 7's exact predicate on `riemann`'s table",
    "curvature.py: riemann": "criterion 7's exact Riemann tensor, which the report never builds",
    "linalg.py: mat_vec": "Mv, the public product beside mat_mul; the bracket check reads "
                          "phi's rows in closed form",
    "linalg.py: bilinear": "x^T M y for any matrix; a space's pairing runs its sums on the "
                           "Gram rows it read once",
}


def blank_strings(source: str) -> str:
    """The source with every string constant emptied, so that no string names a definition."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node.value = ""
    return ast.unparse(tree)


def used_only_by_tests(defining: dict[str, str], library_sources: list[str]) -> list[str]:
    """Definitions and class members of `defining` that none of `library_sources` uses.

    With the library, demos and benchmark as the only sources, a name that
    only tests use shows up: a test oracle, which belongs in `tests/`.  A
    string that is exactly the name counts as a use, so the benchmark's
    sources go in through `blank_strings`: otherwise a test-only definition
    that `bench/tracing.py`'s `LAYERS` names, to trace it, would hide.
    """
    return (unreferenced(defining, library_sources)
            + unreferenced_members(defining, library_sources))


def test_checker_flags_a_definition_only_tests_use():
    lib = ("class Table:\n    def check(self):\n        return True\n\n"
           "    def size(self):\n        return 0\n\n\n"
           "def build():\n    return Table()\n\n\ndef sample(rng):\n    return rng\n")
    demo = "from lib import build\nbuild().size()\n"
    test = "from lib import build, sample\nassert build().check() and sample(1)\n"
    assert used_only_by_tests({"lib.py": lib}, [lib, demo]) == [
        "lib.py: sample", "lib.py: Table.check"]
    # the tests name both, so scanning them too hides the test-only pair
    assert used_only_by_tests({"lib.py": lib}, [lib, demo, test]) == []


def test_checker_flags_a_definition_a_bench_string_names():
    lib = "def build():\n    return 0\n\n\ndef traced():\n    return 1\n"
    bench = ("import lib\n\nLAYERS = {'lib': ('build', 'traced')}\n\n\n"
             "def run():\n    \"\"\"Times traced.\"\"\"\n    return lib.build()\n")
    # the layer string hides `traced`, which only the tests call
    assert used_only_by_tests({"lib.py": lib}, [lib, bench]) == []
    assert used_only_by_tests({"lib.py": lib}, [lib, blank_strings(bench)]) == ["lib.py: traced"]


def test_no_test_only_definitions_in_the_library():
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    sources = [blank_strings(p.read_text()) if d == "bench" else p.read_text()
               for d in LIBRARY_USERS for p in sorted((ROOT / d).rglob("*.py"))]
    assert sorted(used_only_by_tests(defining, sources)) == sorted(KEPT_FOR_USERS)


def misplaced_error_handling(source: str) -> list[str]:
    """`function line n: what` for each `except` clause or `sys.stderr` outside `main`."""
    found = []
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", "<module>")
        if owner == "main":
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.ExceptHandler):
                answer = (owner == "cmd_witness" and isinstance(node.type, ast.Name)
                          and node.type.id == "InequivalentFlagsError")
                if not answer:
                    found.append(f"{owner} line {node.lineno}: except")
            elif (isinstance(node, ast.Attribute) and node.attr == "stderr"
                  and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                found.append(f"{owner} line {node.lineno}: sys.stderr")
    return found


def test_checker_flags_error_handling_outside_main():
    source = ("import sys\n\ndef cmd_a(args):\n    try:\n        run()\n"
              "    except ValueError as ex:\n        print(ex, file=sys.stderr)\n\n\n"
              "def cmd_witness(args):\n    try:\n        run()\n"
              "    except InequivalentFlagsError:\n        pass\n"
              "    except ValueError:\n        sys.stderr.write('x')\n\n\n"
              "def main():\n    try:\n        run()\n"
              "    except ValueError as ex:\n        print(ex, file=sys.stderr)\n")
    assert misplaced_error_handling(source) == [
        "cmd_a line 6: except", "cmd_a line 7: sys.stderr",
        "cmd_witness line 15: except", "cmd_witness line 16: sys.stderr"]


def test_only_main_maps_errors_to_exit_codes():
    assert misplaced_error_handling((SRC / "cli.py").read_text()) == []


ELIMINATIONS = ("rank", "kernel", "row_space", "solve", "integer_inverse", "_inverse_rows",
                "congruence_diagonalize")


def row_copying_calls(source: str) -> list[str]:
    """`line n: name` for each elimination call whose arguments copy rows with `list(...)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name not in ELIMINATIONS:
            continue
        if any(isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
               and inner.func.id == "list"
               for arg in node.args for inner in ast.walk(arg)):
            found.append(f"line {node.lineno}: {name}")
    return found


def test_checker_flags_a_row_copy_handed_to_an_elimination():
    source = ("r = linalg.rank([list(v) for v in basis] + [list(w)])\n"
              "s = linalg.row_space(list(f.big.basis))\n"
              "x = linalg.solve([[b[i] for b in basis] for i in range(n)], v)\n"
              "k = linalg.kernel(space.gram)\n"
              "c = linalg.combine(list(coeffs), vectors)\n"
              "d = linalg.integer_inverse(list(m))\n"
              "r = linalg.congruence_diagonalize([list(row) for row in gram], leading=m)\n"
              "r = linalg.congruence_diagonalize(restrict(space, w))\n")
    assert row_copying_calls(source) == ["line 1: rank", "line 2: row_space",
                                         "line 6: integer_inverse", "line 7: congruence_diagonalize"]


def test_no_row_copies_handed_to_eliminations():
    found = {p.name: row_copying_calls(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


FRAME_NAMES = ("ScaledSystem", "Subspace", "restrict", "scaled_system", "extend_basis")
FRAME_CALLS = ("kernel", "row_space", "lll_reduce", "extend_to_independent")
FRAME_HELPERS = ("_adapted_frame", "_annihilated", "_orient_frame")


def frame_code(source: str) -> list[str]:
    """`line n: name` for each frame-building name, call or helper definition in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in FRAME_CALLS:
                found.append((node.lineno, f"calls {name}"))
        elif isinstance(node, ast.FunctionDef) and node.name in FRAME_HELPERS:
            found.append((node.lineno, f"defines {node.name}"))
        elif isinstance(node, ast.alias) and node.name in FRAME_NAMES:
            found.append((node.lineno, f"names {node.name}"))
        else:
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in FRAME_NAMES:
                found.append((node.lineno, f"names {name}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_flags_frame_code_in_the_witness():
    # a witness-like module that only assembles, then the same with frame code added
    source = ("from .forms import (\n    QuadraticSpace,\n    adapted_frame,\n)\n\n\n"
              "def isometry_witness(p, q, f1, f2):\n"
              "    space = QuadraticSpace.standard(p, q)\n"
              "    return _assemble(p, adapted_frame(space, f1), adapted_frame(space, f2))\n")
    assert frame_code(source) == []
    built = ("    big = Subspace(3, tuple(linalg.lll_reduce(linalg.row_space(f1.big.basis))))\n"
             "    cap = linalg.kernel(forms.restrict(space, big))\n")
    anchor = "    return _assemble("
    assert frame_code(source.replace(anchor, built + anchor)) == [
        "line 9: calls lll_reduce", "line 9: calls row_space", "line 9: names Subspace",
        "line 10: calls kernel", "line 10: names restrict"]
    imported = source.replace("    adapted_frame,\n", "    adapted_frame,\n    extend_basis,\n")
    assert frame_code(imported) == ["line 4: names extend_basis"]
    helper = ("def _orient_frame(vectors, slots):\n"
              "    return ScaledSystem(extend_to_independent([], vectors, 0), ())\n")
    assert frame_code(helper) == ["line 1: defines _orient_frame",
                                  "line 2: calls extend_to_independent", "line 2: names ScaledSystem"]
    assert frame_code("g = scaled_system(space, w)\n") == ["line 1: names scaled_system"]


def test_witness_keeps_only_float_assembly():
    assert frame_code((SRC / "witness.py").read_text()) == []


# (module, function) whose divisions may be true ones: the exact division itself, and the
# mpmath rounding of each rational in the oracles' 256-bit witness assembly
DIVIDING_FUNCTIONS = {("linalg.py", "ratio"), ("oracles.py", "hp")}


def true_divisions(name: str, source: str) -> list[str]:
    """`line n: expression` for each `/` or `/=` in module `name`, outside the functions
    of `DIVIDING_FUNCTIONS` and the last statement of `witness._assemble`, in line order."""
    tree = ast.parse(source)
    allowed = set()
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.FunctionDef) and (name, stmt.name) in DIVIDING_FUNCTIONS:
            allowed.update(map(id, ast.walk(stmt)))
        elif isinstance(stmt, ast.FunctionDef) and (name, stmt.name) == ("witness.py", "_assemble"):
            allowed.update(map(id, ast.walk(stmt.body[-1])))
    found = [node for node in ast.walk(tree) if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.Div) and id(node) not in allowed]
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


# a witness-like assembly: the exact ratio of two norms, then one rounding per entry
# in the last statement
ASSEMBLY = ("from math import isqrt\n\nfrom . import linalg\n\n\n"
            "def _assemble(p, frame1, frame2):\n"
            "    rows = []\n"
            "    for m1, m2 in zip(frame1.norms, frame2.norms):\n"
            "        r = linalg.ratio(m2, m1)\n"
            "        rows.append(isqrt((r.numerator << 2 * SQRT_BITS) // r.denominator))\n"
            "    den = 1 << SQRT_BITS\n"
            "    return [x / den for x in rows]\n")
RATIO_LINE = "        r = linalg.ratio(m2, m1)\n"


def test_checker_flags_a_true_division():
    assert true_divisions("witness.py", ASSEMBLY) == []
    assert true_divisions("witness.py", ASSEMBLY.replace(RATIO_LINE, "        r = m2 / m1\n")) == [
        "line 9: m2 / m1"]
    # the rounding is the exception only in the last statement of `_assemble`
    early = RATIO_LINE + "        t = r / (1 << SQRT_BITS)\n"
    assert true_divisions("witness.py", ASSEMBLY.replace(RATIO_LINE, early)) == [
        "line 10: r / (1 << SQRT_BITS)"]
    ratio = "def ratio(a, b):\n    return a / b\n\n\ndef half(x):\n    x /= 2\n    return x\n"
    assert true_divisions("linalg.py", ratio) == ["line 6: x /= 2"]
    assert true_divisions("forms.py", ratio) == ["line 2: a / b", "line 6: x /= 2"]
    assert true_divisions("curvature.py", "def f(a, b):\n    return a // b + ratio(a, b)\n") == []
    # in the oracles only mpmath's rounding divides
    oracle = ("def mpmath_assemble(x):\n    def hp(x):\n"
              "        return mpf(x.numerator) / mpf(x.denominator)\n"
              "    return hp(x) / 2, Fraction(1, x)\n")
    assert true_divisions("oracles.py", oracle) == ["line 4: hp(x) / 2"]
    elimination = ("from fractions import Fraction\n\n\n"
                   "def gauss_jordan(a):\n"
                   "    for c in range(len(a)):\n"
                   "        inv = Fraction(1, a[c][c])\n"
                   "        a[c] = [x * inv for x in a[c]]\n"
                   "    return a\n")
    assert true_divisions("oracles.py", elimination) == []
    float_inverse = elimination.replace("Fraction(1, a[c][c])", "1 / a[c][c]")
    assert true_divisions("oracles.py", float_inverse) == ["line 6: 1 / a[c][c]"]


def test_every_division_is_exact():
    found = {p.name: true_divisions(p.name, p.read_text())
             for p in [*sorted(SRC.glob("*.py")), TESTS / "oracles.py"]}
    assert {name: lines for name, lines in found.items() if lines} == {}


def fraction_uses(source: str) -> list[str]:
    """`line n: what` for each import of `fractions` and each `Fraction` a module names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "imports fractions") for alias in node.names
                      if alias.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            found.append((node.lineno, "imports fractions"))
        elif isinstance(node, ast.alias) and node.name == "Fraction":
            found.append((node.lineno, "names Fraction"))
        elif isinstance(node, (ast.Name, ast.Attribute)) and "Fraction" in (
                getattr(node, "id", None), getattr(node, "attr", None)):
            found.append((node.lineno, "names Fraction"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_flags_a_fraction_in_the_witness():
    assert fraction_uses(ASSEMBLY) == []
    rebuilt = ASSEMBLY.replace(RATIO_LINE, "        r = Fraction(m2) / m1\n")
    imported = rebuilt.replace("from math import", "from fractions import Fraction\nfrom math import")
    assert fraction_uses(imported) == ["line 1: imports fractions", "line 1: names Fraction",
                                       "line 10: names Fraction"]
    assert fraction_uses("import fractions\n\nx = fractions.Fraction(1, 2)\n") == [
        "line 1: imports fractions", "line 3: names Fraction"]
    assert fraction_uses("from . import linalg\n\nx = linalg.Fraction(1, 2)\n") == [
        "line 3: names Fraction"]
    assert fraction_uses("from .linalg import Fraction as F\n") == ["line 1: names Fraction"]
    assert fraction_uses("r = linalg.ratio(a, b)\nfraction = r.numerator\n") == []


def test_witness_assembles_without_fractions():
    # the assembly is `int` arithmetic plus `linalg.ratio`
    assert fraction_uses((SRC / "witness.py").read_text()) == []


TENSOR_NAMES = ("riemann", "_riemann", "is_flat")


def tensor_names_in_report(source: str) -> list[str]:
    """`line n: name` for each name or attribute in `curvature_report` that builds or scans R."""
    report = next((node for node in ast.parse(source).body
                   if isinstance(node, ast.FunctionDef) and node.name == "curvature_report"), None)
    if report is None:
        return ["curvature_report is missing"]
    found = []
    for node in ast.walk(report):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in TENSOR_NAMES:
            found.append(f"line {node.lineno}: {name}")
    return found


def test_checker_flags_a_riemann_table_in_the_report():
    report = ("def curvature_report(alg, gram):\n"
              "    rows, scale, ia, ib, piv = _read_gram(alg.n, gram)\n"
              "    delta = ia[a] * ib[b] - ia[b] * ia[b]\n"
              "    return CurvatureReport(delta == 0)\n")
    assert tensor_names_in_report(report) == []
    anchor = "    delta = ia[a] * ib[b] - ia[b] * ia[b]\n"
    mutated = report.replace(anchor, anchor + "    flat = is_flat(riemann(alg, gram))\n")
    assert tensor_names_in_report(mutated) == ["line 4: is_flat", "line 4: riemann"]
    attribute = "def curvature_report(alg, gram):\n    return curvature._riemann(gram)\n"
    assert tensor_names_in_report(attribute) == ["line 2: _riemann"]
    assert tensor_names_in_report("def report():\n    pass\n") == [
        "curvature_report is missing"]


def test_curvature_report_builds_no_riemann_table():
    assert tensor_names_in_report((SRC / "curvature.py").read_text()) == []


FRACTION_READS = ("mat", "invert")


def fraction_reads(source: str) -> list[str]:
    """`line n: calls name` for each call of `mat` or `invert`, as a name or an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in FRACTION_READS:
                found.append((node.lineno, name))
    return [f"line {line}: calls {name}" for line, name in sorted(found)]


def test_checker_flags_a_fraction_read_in_curvature():
    reader = "def _read_gram(n, gram):\n    rows, scale = linalg.read_gram(gram)\n    return rows\n"
    assert fraction_reads(reader) == []
    anchor = "    rows, scale = linalg.read_gram(gram)\n"
    reread = "    g = linalg.mat(gram)\n    g_inv = linalg.invert(g)\n"
    assert fraction_reads(reader.replace(anchor, reread + anchor)) == [
        "line 2: calls mat", "line 3: calls invert"]
    assert fraction_reads("from .linalg import invert, mat\n\ng = invert(mat(rows))\n") == [
        "line 3: calls invert", "line 3: calls mat"]
    unread = "a = linalg.mat_mul(m, linalg.scaled_to_int(g)[0])\nf = linalg.mat\n"
    assert fraction_reads(unread) == []


def test_curvature_reads_the_gram_once_in_int():
    assert fraction_reads((SRC / "curvature.py").read_text()) == []


def builds_transpose(node: ast.AST) -> bool:
    """Whether the expression calls `transpose(...)` or `zip(*m)` anywhere inside."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Call):
            func = inner.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "transpose" or (name == "zip" and any(
                    isinstance(arg, ast.Starred) for arg in inner.args)):
                return True
    return False


def mirrored(left: ast.expr, right: ast.expr) -> bool:
    """Whether the two operands are m[i][j] and m[j][i] for one m."""
    if not all(isinstance(x, ast.Subscript) and isinstance(x.value, ast.Subscript)
               for x in (left, right)):
        return False
    return (ast.dump(left.value.value) == ast.dump(right.value.value)
            and ast.dump(left.slice) == ast.dump(right.value.slice)
            and ast.dump(left.value.slice) == ast.dump(right.slice))


def boundary_copies(name: str, source: str) -> list[str]:
    """`line n: what` for each entry or Gram decision that a module makes outside `linalg`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == "is_symmetric":
                found.append((node.lineno, "calls is_symmetric"))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(builds_transpose(x) for x in operands) or any(
                    mirrored(x, y) for x, y in zip(operands, operands[1:])):
                found.append((node.lineno, "compares a matrix with its transpose"))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            if any(builds_transpose(g.iter) for g in node.generators) and any(
                    isinstance(inner, ast.Compare) for inner in ast.walk(node)):
                found.append((node.lineno, "compares a matrix with its transpose"))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None and name != "cli.py":
            if any(getattr(inner, "attr", getattr(inner, "id", None)) == "ShapeError"
                   for inner in ast.walk(node.type)):
                found.append((node.lineno, "catches ShapeError"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_flags_a_second_gram_or_entry_check():
    # a module that leaves every Gram check to `linalg`, then with a check of its own
    source = ("def classify_metric(alg, gram):\n"
              "    n = alg.n\n"
              "    res = linalg.congruence_diagonalize(gram, leading=n - 2)\n"
              "    return res.leading_counts\n\n\n"
              "def act_on_metric(g, gram):\n"
              "    a, scale = linalg.read_gram(gram)\n"
              "    return a\n")
    assert boundary_copies("heisenberg.py", source) == []
    anchor = "    res = linalg.congruence_diagonalize(gram, leading=n - 2)\n"
    wrapped = ("    try:\n    " + anchor + "    except linalg.ShapeError:\n"
               "        raise PreconditionError(\"Gram matrix must be symmetric\") from None\n")
    assert boundary_copies("heisenberg.py", source.replace(anchor, wrapped)) == [
        "line 5: catches ShapeError"]
    anchor = "    a, scale = linalg.read_gram(gram)\n"
    compared = ("    if any(row != list(col) for row, col in zip(a, zip(*a))):\n"
                "        raise PreconditionError(\"Gram matrix must be square and symmetric\")\n")
    assert boundary_copies("heisenberg.py", source.replace(anchor, anchor + compared)) == [
        "line 9: compares a matrix with its transpose"]
    mirrored_source = ("def f(m, n):\n"
                       "    ok = linalg.is_symmetric(m) and m == linalg.transpose(m)\n"
                       "    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i))\n")
    assert boundary_copies("forms.py", mirrored_source) == [
        "line 2: calls is_symmetric", "line 2: compares a matrix with its transpose",
        "line 3: compares a matrix with its transpose"]


def test_linalg_is_the_one_input_boundary():
    found = {p.name: boundary_copies(p.name, p.read_text())
             for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


# (module, function) of each `Fraction(...)` call: the one maker of rationals, and the
# parser of a rational literal that its regex has matched
FRACTION_MAKERS = {("linalg.py", "ratio"), ("matrixio.py", "parse_rational")}


def fraction_calls(name: str, source: str) -> list[str]:
    """`line n: what` for each call of `Fraction`, as a name or an attribute, in module
    `name` outside the functions of `FRACTION_MAKERS`, and each import of it under
    another name, in line order."""
    tree = ast.parse(source)
    allowed = set()
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.FunctionDef) and (name, stmt.name) in FRACTION_MAKERS:
            allowed.update(map(id, ast.walk(stmt)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == "Fraction":
                found.append((node.lineno, "calls Fraction"))
        elif (isinstance(node, ast.alias) and node.name == "Fraction"
              and node.asname not in (None, "Fraction")):
            found.append((node.lineno, f"imports Fraction as {node.asname}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_flags_a_fraction_built_outside_ratio():
    source = ("def act_on_metric(g, gram):\n"
              "    out = [[0] * n for _ in range(n)]\n"
              "    for i, j, s in sums:\n"
              "        out[i][j] = out[j][i] = linalg.ratio(s, den)\n"
              "    return out\n")
    assert fraction_calls("heisenberg.py", source) == []
    boxed = source.replace("linalg.ratio(s, den)", "Fraction(s, den)")
    assert fraction_calls("heisenberg.py", boxed) == ["line 4: calls Fraction"]
    entries = ("def parse_rational(token):\n    return Fraction(token)\n\n\n"
               "def frac(x):\n"
               "    return fractions.Fraction(x), Fraction(-1), Fraction(1, x)\n")
    assert fraction_calls("matrixio.py", entries) == ["line 6: calls Fraction"] * 3
    assert fraction_calls("forms.py", entries) == ["line 2: calls Fraction"] + [
        "line 6: calls Fraction"] * 3
    # a module-level constant is a call outside `ratio` as well
    made = "def ratio(a, b):\n    return Fraction(a, b)\n\n\nHALF = Fraction(1, 2)\n"
    assert fraction_calls("linalg.py", made) == ["line 5: calls Fraction"]
    aliased = "from fractions import Fraction as F\n\nx = F(1, 2)\n"
    assert fraction_calls("sampling.py", aliased) == ["line 1: imports Fraction as F"]
    typed = ("from fractions import Fraction\n\n\n"
             "def f(x: Fraction) -> Fraction:\n    return ratio(x, 2)\n")
    assert fraction_calls("curvature.py", typed) == []


def test_only_ratio_and_the_parser_make_fractions():
    found = {p.name: fraction_calls(p.name, p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# (module, function) of each read of every row's length
ROW_LENGTH_READERS = {("linalg.py", "shape"), ("cli.py", "_parse_flag_spec")}


def row_length_reads(name: str, source: str) -> list[str]:
    """`line n: function` for each `map(len, ...)`, and each comprehension that calls `len`
    on its own loop target, outside the listed readers."""
    tree = ast.parse(source)
    owners = {}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.FunctionDef):
            for node in ast.walk(stmt):
                owners.setdefault(id(node), stmt.name)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map":
            reads = bool(node.args) and getattr(node.args[0], "id", None) == "len"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            targets = {n.id for g in node.generators for n in ast.walk(g.target)
                       if isinstance(n, ast.Name)}
            reads = any(isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "len"
                        and any(getattr(arg, "id", None) in targets for arg in inner.args)
                        for inner in ast.walk(node))
        else:
            continue
        owner = owners.get(id(node), "<module>")
        if reads and (name, owner) not in ROW_LENGTH_READERS:
            found.append(f"line {node.lineno}: {owner}")
    return found


def test_checker_flags_a_second_row_length_reader():
    source = ("def shape(m):\n    lengths = set(map(len, m))\n    return len(m), lengths.pop()\n\n\n"
              "def require_ints(**params) -> None:\n    pass\n")
    assert row_length_reads("linalg.py", source) == []
    anchor = "def require_ints(**params) -> None:\n"
    row_lengths = ("def row_lengths(rows):\n    try:\n        return [len(row) for row in rows]\n"
                   "    except TypeError:\n        raise _entry_error(rows) from None\n\n\n")
    assert row_length_reads("linalg.py", source.replace(anchor, row_lengths + anchor)) == [
        "line 8: row_lengths"]
    source = ("def _block_det_d(g, n):\n    if n < 3 or linalg.shape(g) != (n, n):\n"
              "        raise ShapeError(n)\n    return g\n")
    assert row_length_reads("heisenberg.py", source) == []
    scan = "    if len(g) != n or n < 3 or any(len(row) != n for row in g):\n"
    mutated = source.replace("    if n < 3 or linalg.shape(g) != (n, n):\n", scan)
    assert row_length_reads("heisenberg.py", mutated) == ["line 2: _block_det_d"]
    parsed = ("def _parse_flag_spec(vectors):\n    return {len(v) for v in vectors}\n\n\n"
              "def widths(rows, a):\n    return set(map(len, rows)), [i for i in range(len(a))]\n")
    # the exception is one function; `len(a)` of no loop target is no row reader
    assert row_length_reads("cli.py", parsed) == ["line 6: widths"]
    assert row_length_reads("forms.py", parsed) == ["line 2: _parse_flag_spec", "line 6: widths"]


def test_only_shape_reads_every_row_length():
    found = {p.name: row_length_reads(p.name, p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# (module, assigned name) of the one table of line-type facts
LINE_TYPE_TABLE = ("forms.py", "_LINE_FACTS")
LINE_SIGNATURES = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
LINE_TYPES = {"SPACELIKE", "TIMELIKE", "LIGHTLIKE", "RADICAL"}


def line_type_tables(name: str, source: str) -> list[str]:
    """`line n: what` for each `Signature(...)` call whose arguments are the literal
    signature of a line, and each tuple, list, set or dict whose elements or keys hold
    two or more `LineSignature` members, outside the assignment of `LINE_TYPE_TABLE`.

    A member is `LineSignature.NAME`, through any module, or a name that a
    top-level unpacking of `LineSignature` binds; the unpacking itself is no table.
    """
    tree = ast.parse(source)
    bound, allowed = set(), set()
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        targets = [getattr(t, "id", None) for t in stmt.targets]
        if (name, targets[0]) == LINE_TYPE_TABLE:
            allowed.update(map(id, ast.walk(stmt)))
        if getattr(stmt.value, "id", None) == "LineSignature":
            bound.update(n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name))

    def member(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in LINE_TYPES and (
                getattr(node.value, "id", None) == "LineSignature"
                or getattr(node.value, "attr", None) == "LineSignature")
        return isinstance(node, ast.Name) and node.id in bound

    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            args = tuple(getattr(arg, "value", None) for arg in node.args)
            if called == "Signature" and args in LINE_SIGNATURES:
                found.append(f"line {node.lineno}: Signature{args}")
            continue
        if isinstance(node, (ast.Tuple, ast.List)) and isinstance(node.ctx, ast.Load):
            elements = node.elts
        elif isinstance(node, ast.Set):
            elements = node.elts
        elif isinstance(node, ast.Dict):
            elements = node.keys
        else:
            continue
        if sum(map(member, elements)) >= 2:
            found.append(f"line {node.lineno}: {type(node).__name__.lower()} of line types")
    return found


def test_checker_flags_a_line_type_table_outside_forms():
    source = ("def _center_cells(row, p, q):\n"
              "    s, t, u = (x - c for x, c in zip(row.sig(p, q), row.refined.cells))\n"
              "    return (row.refined,) + (LineSignature.SPACELIKE,) * s\n\n\n"
              "def pick(cell, sig):\n"
              "    big = Signature(sig.pos - 1, sig.neg, sig.nul)\n"
              "    return Signature(1, 1, 0), big if cell is LineSignature.RADICAL else None\n")
    assert line_type_tables("heisenberg.py", source) == []
    ordered = ("ORDER = [LineSignature.SPACELIKE, LineSignature.TIMELIKE,\n"
               "         LineSignature.LIGHTLIKE, LineSignature.RADICAL]\n")
    assert line_type_tables("heisenberg.py", ordered + source) == ["line 1: list of line types"]
    tested = source.replace(
        "row.refined.cells))\n",
        "row.refined.cells))\n"
        "    s -= row.refined in (LineSignature.SPACELIKE, forms.LineSignature.LIGHTLIKE)\n")
    assert line_type_tables("heisenberg.py", tested) == ["line 3: tuple of line types"]
    keyed = source.replace(
        "    big = Signature(sig.pos - 1, sig.neg, sig.nul)\n",
        "    big = {LineSignature.SPACELIKE: Signature(1, 0, 0),\n"
        "           LineSignature.TIMELIKE: forms.Signature(0, 1, 0)}.get(cell)\n")
    assert line_type_tables("heisenberg.py", keyed) == [
        "line 7: dict of line types", "line 7: Signature(1, 0, 0)", "line 8: Signature(0, 1, 0)"]
    null = "def null(big):\n    return {FlagInvariants(big, Signature(0, 0, 1), cap) for cap in (0, 1)}\n"
    assert line_type_tables("enumeration.py", null) == ["line 2: Signature(0, 0, 1)"]
    # the table is allowed in forms alone; the unpacking that binds its names is no
    # table, but the names it binds are members elsewhere in the module
    table = ("_A, _B = LineSignature\n"
             "_LINE_FACTS = {_A: Signature(1, 0, 0), _B: Signature(0, 1, 0)}\n")
    assert line_type_tables("forms.py", table) == []
    assert line_type_tables("forms.py", table + "PAIR = {_A, _B}\n") == [
        "line 3: set of line types"]
    assert line_type_tables("witness.py", table) == [
        "line 2: dict of line types", "line 2: Signature(1, 0, 0)", "line 2: Signature(0, 1, 0)"]


def test_line_type_facts_live_in_the_forms_table():
    found = {p.name: line_type_tables(p.name, p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def numpy_import_owners(source: str) -> list[str]:
    """The function that each numpy import runs in, in source order.

    `<module>` marks an import that runs when the module is imported: at
    module level, under a module-level `if` or `try`, or in a class body.
    """
    found = []

    def visit(node, owner):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append(owner)
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_flags_a_module_level_numpy_import():
    source = ("from __future__ import annotations\n\nimport numpy as np\n\n\n"
              "def build() -> np.ndarray:\n    import numpy as np\n    return np.zeros(1)\n\n\n"
              "class Table:\n    from numpy.linalg import qr\n\n"
              "    def solve(self):\n        from numpy import linalg\n        return linalg\n\n\n"
              "try:\n    import numpy.random\nexcept ImportError:\n    pass\n")
    assert numpy_import_owners(source) == ["<module>", "build", "<module>", "solve", "<module>"]
    assert numpy_import_owners("import numbers\nfrom . import numpy_free\n") == []


def test_numpy_loads_only_inside_witness_functions():
    found = {p.name: numpy_import_owners(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: owners for name, owners in found.items() if owners} == {
        "witness.py": ["subspace_distance", "_assemble", "witness_residuals"]}


def run_child(script: str) -> list[str]:
    """Run `script` in a fresh interpreter on this source tree; its stdout lines."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_import_heisflag_leaves_numpy_unloaded():
    script = "import sys\nimport heisflag\nprint(sorted(m for m in sys.modules if m.startswith('numpy')))\n"
    assert run_child(script) == ["[]"]


def test_library_runs_with_numpy_absent():
    # None in sys.modules makes every later `import numpy` raise ImportError
    script = """
import contextlib
import io
import random
import sys

sys.modules["numpy"] = None
import heisflag
from heisflag import cli, linalg, sampling

print(sorted(m for m in sys.modules if m.startswith("numpy")), sys.modules["numpy"])
alg = heisflag.HeisenbergAlgebra(4)
print(heisflag.classify_metric(alg, linalg.diag([1, 1, -1, -1])).class_id)
print(heisflag.curvature_report(alg, linalg.identity(4)).is_flat)
print(len(heisflag.survey_flags(2, 2).invariants))
table = io.StringIO()
with contextlib.redirect_stdout(table):
    code = cli.main(["table", "3", "1"])
print(code, table.getvalue().splitlines()[2])
f = sampling.random_flag(2, 2, random.Random(0))
try:
    heisflag.isometry_witness(2, 2, f, f)
except ImportError as ex:
    print(type(ex).__name__, "numpy" in str(ex))
"""
    assert run_child(script) == [
        "['numpy'] None", "7", "False", "10",
        "0 class 1: pattern (p-2, q, 0) = (1, 1, 0), refined spacelike",
        "ModuleNotFoundError True"]

"""Every private module-level function and class of avgmix has a caller,
and one module turns rationals into integers.

A helper only the tests reach is dead weight in the library: the guard
parses each module of `src/avgmix` and looks for a use of every
`_`-prefixed top-level function or class outside its own definition.
Imports do not count as uses, and neither does recursion.

`ExactMatrix` stores integer numerators over one denominator, so no
module but `exact.py` has a reason to unbox a `Fraction`: the second
guard fails when another module reads a `.numerator` attribute.

Each engine stage lives in one module: `exact.py` builds the spectral
integers (char poly, radical, resolvent) and `mixing.py` owns the trace
table every entry route reads.  The layering guard fails when another
module imports or reads a stage's internals, so a function the tests
patch has one module to patch.

Every exact result rests on integers, never on a float eigenvalue: the
exactness guard fails when a module reads a float root or eigen solver
(`roots`, `eig`, `eigh`, `eigvals`, `eigvalsh`), by attribute or by
import.  Only the float oracle `numeric.py` and the joint-eigenspace
clustering of `schemes.py`, whose multiplicities are not exact yet, may.
"""

import ast
from pathlib import Path

import avgmix

SOURCES = sorted(Path(avgmix.__file__).parent.glob("*.py"))


def _private_definitions(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def _uses(tree, skip):
    """Names read by Name or Attribute nodes of tree, outside the skipped nodes."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_private_definition_is_used_in_the_library():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    checked = 0
    unused = []
    for name, tree in trees.items():
        for node in _private_definitions(tree):
            checked += 1
            if not any(
                node.name in _uses(other, {node} if other is tree else set())
                for other in trees.values()
            ):
                unused.append(f"{name}::{node.name}")
    assert checked > 50
    assert unused == []


def test_only_exact_reads_numerators_of_fractions():
    readers = []
    for path in SOURCES:
        if path.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "numerator":
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


# internals of a stage, by the one module allowed to name them
STAGE_INTERNALS = {
    "exact.py": {
        "_charpoly_bound",
        "_charpoly_mod",
        "_int_disc",
        "_int_radical",
        "_resolvent_int",
        "_minimal_watch",
        "_certified_stop",
        "_hankel_solve",
        "_newton",
    },
    "mixing.py": {"_TraceTable", "_TraceForm"},
}


def test_each_stage_keeps_its_internals():
    leaks = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        named = imported | _uses(tree, set())
        for owner, internals in STAGE_INTERNALS.items():
            if path.name != owner:
                leaks += [f"{path.name}::{name}" for name in sorted(named & internals)]
    assert leaks == []


FLOAT_SOLVERS = {"roots", "eig", "eigh", "eigvals", "eigvalsh"}
FLOAT_SOLVER_MODULES = {"numeric.py", "schemes.py"}


def test_only_the_float_modules_solve_for_eigenvalues():
    readers = []
    for path in SOURCES:
        if path.name in FLOAT_SOLVER_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            for name in sorted(names & FLOAT_SOLVERS):
                readers.append(f"{path.name}:{node.lineno}:{name}")
    assert readers == []

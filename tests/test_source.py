"""Every function in the package is reached from the package itself."""

import ast
from pathlib import Path

import fockbench

SRC = Path(fockbench.__file__).parent

# one route of a pair in the README's two-route contract whose comparison
# lives in the tests only: no verify suite may gain a check (the benchmark
# reference fixes every suite's check list)
ALLOWED_UNREFERENCED = {
    "vacuum_moment_u": "exponential route of the vacuum moments, checked "
    "against vacuum_moment_closed_form in the tests",
    "two_mode_perelomov_closed_form": "closed form of the two-mode Perelomov "
    "state, checked against two_mode_perelomov in the tests",
}


def _definitions_and_references():
    """Names of all functions and methods, and for each name read as a
    variable or attribute the functions whose bodies read it (None for
    module or class level).  Methods are matched by name alone."""
    defined, used = set(), {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
                owner = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.setdefault(node.id, set()).add(owner)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.setdefault(node.attr, set()).add(owner)
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(tree, None)
    return defined, used


def test_every_function_has_a_caller_in_the_package():
    defined, used = _definitions_and_references()
    # __all__ lists names as strings, so it counts as no reference; a
    # function used only inside its own body (recursion) has no caller either
    unused = {
        name
        for name in defined
        if not (name.startswith("__") and name.endswith("__"))
        and not used.get(name, set()) - {name}
    }
    assert unused == set(ALLOWED_UNREFERENCED)

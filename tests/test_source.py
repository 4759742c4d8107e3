"""Every function in the package is reached from the package itself,
every dataclass field is read there, scipy and ctypes are imported only
where they are used, never at module level, and each verify suite takes
exactly the inputs its record declares."""

import ast
import inspect
from pathlib import Path

import fockbench
from fockbench import verify

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


def _dataclass_fields():
    """(class, field) for each annotated field of each dataclass in the
    package, and every attribute name the package reads."""
    fields, read = [], set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                fields += [(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return fields, read


def test_every_dataclass_field_is_read_in_the_package():
    # matched by attribute name alone, as methods are: a field that is
    # only ever set at construction is a knob nothing turns
    fields, read = _dataclass_fields()
    assert fields, "the scan finds the package's dataclasses"
    assert [(cls, name) for cls, name in fields if name not in read] == []


def _imports(package):
    """(module file, imported name, whether outside every function) for
    each import of `package` or one of its submodules in the package."""
    found = []

    def visit(node, path, in_function):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = []
        found.extend((path.name, name, not in_function) for name in names
                     if name == package or name.startswith(package + "."))
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, path, in_function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, False)
    return found


def test_scipy_is_imported_inside_functions_only_and_never_sparse():
    found = _imports("scipy")
    assert found, ("the scan finds the one scipy import left: the LAPACK fallback "
                   "inside sqm.spectral_check, for numpy builds without a bundled OpenBLAS")
    assert {f[0] for f in found} == {"sqm.py"}
    assert not [f for f in found if f[2]], "module-level scipy import"
    assert not [f for f in found if f[1].startswith("scipy.sparse")]


def test_ctypes_is_imported_inside_functions_only():
    # only the shared bundled-OpenBLAS loader, fock.bundled_lapack, needs
    # ctypes, so commands that never reach it do not import it for the
    # package (numpy may still load it for itself)
    found = _imports("ctypes")
    assert found, "the scan finds the lazy import of the shared LAPACK loader"
    assert not [f for f in found if f[2]], "module-level ctypes import"


def test_each_suite_takes_exactly_its_record_inputs():
    # a suite reads no input the CLI never passes, and hides no default
    assert list(verify.SUITES) == list(verify.INPUTS)
    for name, suite in verify.SUITES.items():
        params = inspect.signature(suite).parameters
        assert list(params) == list(verify.INPUTS[name]), name
        assert all(p.default is p.empty for p in params.values()), name

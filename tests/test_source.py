"""Every function and class in the package is reached from the package
itself, every dataclass field is read there, scipy and ctypes are imported
only where they are used, never at module level, each verify suite takes
exactly the inputs its record declares, and every exception the package
raises is one that the CLI turns into exit 2."""

import ast
import builtins
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
    """Names of all functions, methods and classes, and for each name read
    as a variable or attribute the functions or classes whose bodies read
    it (None for module level).  Methods are matched by name alone."""
    defined, used = set(), {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
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
    # a function used only inside its own body (recursion) has no caller
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


# the raises `main` does not turn into exit 2, by (module, enclosing
# function, exception), each with the reason no user reaches it
UNCAUGHT_RAISES = {
    ("cli.py", None, "SystemExit"): "the __main__ guard hands main's exit code to the "
    "interpreter",
    ("cli.py", "_emit_json", "TypeError"): "a guard against payload types the program never "
    "builds",
    ("verify.py", "run_suite", "KeyError"): "argparse choices keep an unknown suite off the "
    "CLI path",
}
# argparse reports their ArgumentTypeError as a usage error, exit 2
FLAG_CONVERTERS = {"_complex_arg", "_float_arg"}


def _raises():
    """(module file, innermost enclosing function or None, raised exception
    as written) for each raise statement in the package."""
    found = []

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((path.name, owner, None if exc is None else ast.unparse(exc)))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, None)
    return found


def _exits_two(path, owner, name):
    # `main` catches ValueError and ArithmeticError; a class the package
    # defines, or a bare re-raise, could slip past it as a traceback
    builtin = getattr(builtins, name or "", None)
    if isinstance(builtin, type) and issubclass(builtin, (ValueError, ArithmeticError)):
        return True
    return name == "argparse.ArgumentTypeError" and path == "cli.py" and owner in FLAG_CONVERTERS


def test_every_raise_exits_two_through_main():
    found = _raises()
    assert len(found) > len(UNCAUGHT_RAISES), "the scan finds the package's raises"
    assert [r for r in found if not _exits_two(*r) and r not in UNCAUGHT_RAISES] == []
    # each listed exception is still raised where it is listed
    assert set(UNCAUGHT_RAISES) <= set(found)

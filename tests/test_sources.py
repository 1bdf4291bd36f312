import ast
import warnings
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "oqctrl").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    # invalid escapes such as "\o" warn at compile time (SyntaxWarning from
    # Python 3.12); turning warnings into errors makes them fail here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def _names_used(path):
    """Identifiers a module's code refers to (not its docstrings or comments)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.rsplit(".", 1)[-1])
    return names


@pytest.mark.parametrize("name", ["ProcessPoolExecutor", "SeedSequence"])
def test_one_multistart_runner(name):
    # per-start seeds and the worker pool live in one module; a second copy
    # of the multistart runner fails here
    users = [p.name for p in SOURCES if name in _names_used(p)]
    assert users == ["core.py"]


def test_one_matrix_exponential():
    # core.expm_stack is the library's one matrix exponential; a call of
    # scipy's expm (by name or as an attribute) fails here, while the unused
    # imports that perfbench's tracer looks up do not
    calls = [
        f"{p.name}:{node.lineno}"
        for p in SOURCES
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "expm" or getattr(node.func, "attr", None) == "expm")
    ]
    assert calls == []


def _code_strings(path):
    """String constants in a module's code, leaving out docstrings."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
    ]


def test_one_float_format():
    # the 17-significant-digit rule is spelled once, in serialization.py; a
    # second copy (a format spec, an f-string or a %-template) fails here
    uses = [p.name for p in SOURCES for s in _code_strings(p) if "17g" in s]
    assert uses == ["serialization.py"]


def test_one_finiteness_rule():
    # core.require_finite is the one spelling of the rule that a number is
    # finite; a module that tests isfinite itself fails here
    users = [p.name for p in SOURCES if "isfinite" in _names_used(p)]
    assert users == ["core.py"]


def test_one_hermitian_coordinate_layout():
    # core alone lays out the real coordinates of Hermitian matrices (the
    # pair order of np.triu_indices); a second copy of the layout fails here
    users = [p.name for p in SOURCES if "triu_indices" in _names_used(p)]
    assert users == ["core.py"]


def _caught(handler):
    """Names of the exception types an ``except`` clause catches."""
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None) for t in types}


def test_one_exit_code_boundary():
    # cli.main alone turns an exception into an exit code, and one helper
    # alone attaches a config field path to a library ValueError
    cli = next(p for p in SOURCES if p.name == "cli.py")
    functions = [
        node for node in ast.walk(ast.parse(cli.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert "main" in {f.name for f in functions}
    exit_code_sites, field_helpers = [], set()
    for function in functions:
        if function.name == "main":
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Return)
                and isinstance(node.value, ast.Constant)
                and type(node.value.value) is int
            ):
                exit_code_sites.append(f"{function.name}: return {node.value.value}")
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("exit", "_exit"):
                exit_code_sites.append(f"{function.name}: exit call")
            elif isinstance(node, ast.Name) and node.id == "SystemExit":
                exit_code_sites.append(f"{function.name}: SystemExit")
            elif isinstance(node, ast.ExceptHandler):
                caught = _caught(node)
                if caught & {"Exception", "BaseException"}:
                    exit_code_sites.append(f"{function.name}: catch-all handler")
                if "ValueError" in caught:
                    field_helpers.add(function.name)
    assert exit_code_sites == []
    assert len(field_helpers) <= 1, sorted(field_helpers)


@pytest.mark.parametrize("method", ["__matmul__", "__add__", "dagger"])
def test_exact_matrix_arithmetic_has_no_python_loop(method):
    # the exact matrix works on whole (4, d, d) part arrays; a loop or a
    # comprehension over the entries brings back per-scalar arithmetic
    path = next(p for p in SOURCES if p.name == "kraussearch.py")
    cls = next(
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "RationalComplexMatrix"
    )
    function = next(
        node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == method
    )
    loops = [
        type(node).__name__ for node in ast.walk(function)
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
    ]
    assert loops == []


def test_no_scipy_optimize_import():
    # scipy.optimize adds about 18 MB of resident memory and 238 modules to
    # every CLI start; the optimizers here are the package's own
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {m}" for m in modules if m.startswith("scipy.optimize")]
    assert found == []

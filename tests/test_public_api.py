"""Export lists name only what exists, and the package re-exports exactly
those objects, so a deleted function cannot linger in either place; nor can
an import whose last use was deleted."""

import ast
import importlib
import pathlib

import pytest

import linident

MODULES = ["errors", "numkit", "dynsys", "ident", "experiments", "io", "cli"]


def exports(module) -> list[str]:
    """``module.__all__``; for ``errors``, which has none, its exception classes."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [name for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, Exception)]


def reexports() -> list[tuple[str, str]]:
    """(module, name) for every ``from .module import name`` in the package's __init__."""
    tree = ast.parse(pathlib.Path(linident.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(f"linident.{name}")
    assert [n for n in exports(module) if not hasattr(module, n)] == []


def test_package_reexports_module_exports():
    pairs = reexports()
    assert {module for module, _ in pairs} <= set(MODULES)
    for module_name, name in pairs:
        module = importlib.import_module(f"linident.{module_name}")
        assert name in exports(module), f"{module_name}.{name} is not exported"
        assert getattr(linident, name) is getattr(module, name)


SOURCES = sorted(p for p in pathlib.Path(linident.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    """Every module-level import of a module, or of a test module, is used in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name.split(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported if name not in used] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_lapack_goes_through_numkit(path):
    """No call to np.roots or to an np.linalg function but lstsq: every other
    LAPACK call runs numpy's gufunc through numkit._per_slice. Raising
    np.linalg.LinAlgError is not a LAPACK call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    allowed = {"np.linalg.lstsq", "np.linalg.LinAlgError"}
    assert sorted(c for c in calls - allowed if c == "np.roots" or c.startswith("np.linalg.")) == []
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg")
                for alias in node.names]
    assert [name for name in imported if name not in ("_umath_linalg", "LinAlgError")] == []

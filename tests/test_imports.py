"""The test modules share their oracles and helpers through `oracles`
(and fixtures through `conftest`), never by importing one another."""

import ast
from pathlib import Path


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_no_test_module_imports_another():
    modules = sorted(Path(__file__).parent.glob("test_*.py"))
    assert Path(__file__) in modules
    found = sorted((path.stem, name) for path in modules for name in _imported_modules(path)
                   if any(part.startswith("test_") for part in name.split(".")))
    assert found == []


def test_only_fem_imports_scipy_linalg():
    """LAPACK's band storage, factors and solves live in `fem` alone: no
    other module of the package imports `scipy.linalg`."""
    package = Path(__file__).parent.parent / "src" / "msdarcy"
    found = sorted({path.name for path in package.glob("*.py")
                    for name in _imported_modules(path)
                    if name == "scipy.linalg" or name.startswith("scipy.linalg.")})
    assert found == ["fem.py"]

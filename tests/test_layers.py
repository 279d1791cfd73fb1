"""The package's modules import one another along one chain, with no cycle.

errors <- spectrum, linalg <- selection, verify <- construct <- cli: a module
imports only modules of a lower rank, at module level, inside a function or
under TYPE_CHECKING alike.  In particular verify, the one certifier, imports
no builder.  Only linalg imports ctypes: it holds the one lookup of numpy's
bundled OpenBLAS.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "expframes"
RANK = {
    "errors": 0,
    "spectrum": 1,
    "linalg": 1,
    "selection": 2,
    "verify": 2,
    "construct": 3,
    "cli": 4,
    "__init__": 5,
}


def package_imports(path: Path) -> set[str]:
    """Names of the package modules that path imports anywhere in its source."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module
            else:
                base = "expframes" + (f".{node.module}" if node.module else "")
            if base == "expframes":  # from . import verify
                modules = [f"expframes.{alias.name}" for alias in node.names]
            else:
                modules = [base]
        else:
            continue
        for name in modules:
            parts = name.split(".")
            if parts[0] == "expframes" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_every_module_is_ranked():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(RANK)


@pytest.mark.parametrize("module", sorted(RANK))
def test_imports_only_lower_ranks(module):
    above = {
        name for name in package_imports(PACKAGE / f"{module}.py") if RANK[name] >= RANK[module]
    }
    assert not above, f"{module} imports {sorted(above)} from its own rank or above"


def imports_ctypes(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "ctypes" for name in names):
            return True
    return False


def test_only_linalg_imports_ctypes():
    # linalg._openblas_routines is the one way into numpy's bundled OpenBLAS
    assert [p.stem for p in sorted(PACKAGE.glob("*.py")) if imports_ctypes(p)] == ["linalg"]

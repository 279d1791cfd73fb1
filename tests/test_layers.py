"""The package's modules import one another along one chain, with no cycle.

errors <- spectrum, linalg <- selection, verify <- construct <- cli: a module
imports only modules of a lower rank, at module level, inside a function or
under TYPE_CHECKING alike.  In particular verify, the one certifier, imports
no builder.  Only linalg imports ctypes: it holds the one lookup of numpy's
bundled OpenBLAS.  Only linalg evaluates the Fourier entries that grid
systems and certified bounds gather: selection and verify take their blocks
from its builder.
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


# Every function of the package that evaluates a complex exponential or a
# trigonometric function.  The Fourier entries exp(2i pi j r / m) that the
# grid systems and the certified bounds gather come from linalg alone;
# verify's oracles evaluate exponentials at points and over intervals of
# their own, apart from that route by design.
TRIG_CALLERS = {
    ("linalg", "_fourier_block"),
    ("verify", "gram_quadrature_oracle"),
    ("verify", "_window_transform.primitive"),
    ("verify", "TestSignal.transform"),
    ("verify", "TestSignal.evaluate"),
}
TRIG = {"exp", "cos", "sin"}


def trig_callers(module: str) -> set[tuple[str, str]]:
    """(module, function qualname) of every function calling one of TRIG."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in TRIG:
                    found.add((module, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), [])
    return found


def test_only_linalg_evaluates_fourier_entries():
    assert set().union(*(trig_callers(module) for module in RANK)) == TRIG_CALLERS


def calls(module: str, function: str) -> set[str]:
    """Names that a top-level function of module calls."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return {
        c.func.id for c in ast.walk(node) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
    }


@pytest.mark.parametrize(
    "module,function",
    [("selection", "fourier_system"), ("verify", "sampling_bounds"), ("verify", "riesz_bounds")],
)
def test_blocks_come_from_linalgs_builder(module, function):
    assert "_fourier_block" in calls(module, function)

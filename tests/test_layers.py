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


# A module-level cache outlives every call that fills it: one of rank-one
# merge workspaces keyed by order held a workspace for every order from 2
# to n + 1 of a range state, more than twice the memory of an m = 1024 run.
# selection's engines keep their state on the objects a call creates.
IMMUTABLE_CALLS = {"float", "int", "frozenset", "tuple"}


def binds_immutable(node) -> bool:
    """Whether an expression bound at module level builds no mutable container."""
    if isinstance(node, (ast.Constant, ast.Name, ast.Attribute)):
        return True
    if isinstance(node, ast.Tuple):
        return all(binds_immutable(e) for e in node.elts)
    if isinstance(node, ast.UnaryOp):
        return binds_immutable(node.operand)
    if isinstance(node, ast.BinOp):
        return binds_immutable(node.left) and binds_immutable(node.right)
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) in IMMUTABLE_CALLS


def test_selection_keeps_no_module_level_container():
    tree = ast.parse((PACKAGE / "selection.py").read_text())
    bound = [
        node for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
    ]
    assert bound and all(node.value is None or binds_immutable(node.value) for node in bound)
    # nor a cache on a function or method, which is one by another name
    decorators = [
        ast.unparse(d)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for d in node.decorator_list
    ]
    assert not [d for d in decorators if "cache" in d], decorators

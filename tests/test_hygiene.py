"""Static checks on the package source: every imported name and every
function parameter is used, and every name the experiment scripts import
from the package exists."""
import ast
import importlib
from pathlib import Path

import pytest

import orbtour

SOURCES = sorted(Path(orbtour.__file__).parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).parents[1] / "scripts").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; a name listed in the
    module's ``__all__`` counts as read."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                             key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_guard_catches_an_unused_import():
    tree = ast.parse("from .propagate import propagate_numeric, rk4_segment\n"
                     "import numpy as np\n"
                     "propagate_numeric(np.zeros(3))\n")
    assert unused_imports(tree) == ["line 1: rk4_segment"]


def unused_parameters(tree: ast.Module) -> list[str]:
    """Parameters, other than ``self`` and ``cls``, that their function's
    body never reads; a nested function's reads count."""
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"line {node.lineno}: {node.name}.{p.arg}" for p in params
                   if p.arg not in ("self", "cls") and p.arg not in read]
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_parameters(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_parameters(tree) == []


def test_guard_catches_an_unused_parameter():
    tree = ast.parse("class Grid:\n"
                     "    def stages(self, plan, n, *rest, scale=1.0):\n"
                     "        def row(k):\n"
                     "            return k * scale\n"
                     "        return [row(k) for k in range(n)]\n")
    assert unused_parameters(tree) == ["line 2: stages.plan", "line 2: stages.rest"]


def missing_package_names(tree: ast.Module) -> list[str]:
    """Names a module imports from ``orbtour`` or its submodules that the
    package does not define."""
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "orbtour":
            module = importlib.import_module(node.module)
            missing += [f"line {node.lineno}: {node.module}.{alias.name}"
                        for alias in node.names if not hasattr(module, alias.name)]
    return missing


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_scripts_import_only_names_the_package_defines(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert missing_package_names(tree) == []


def test_guard_catches_a_missing_package_name():
    tree = ast.parse("import math\n"
                     "from orbtour.scp import refine_arc, solve_arc\n"
                     "from orbtour.tour import tour_cost\n")
    assert missing_package_names(tree) == ["line 2: orbtour.scp.solve_arc"]

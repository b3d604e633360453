"""Static checks on the package source: every imported name and every
function parameter is used, and every name the experiment scripts and the
benchmark import from the package, or read off its modules, exists."""
import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import orbtour

SOURCES = sorted(Path(orbtour.__file__).parent.glob("*.py"))
ROOT = Path(__file__).parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


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


def _package_attr(module: ModuleType, name: str):
    """``module.name``, a submodule included; None when the package does not
    define it."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return None


def missing_package_names(tree: ast.Module) -> list[str]:
    """Names a module imports from ``orbtour`` or its submodules, and
    attributes it reads off an imported ``orbtour`` module, that the package
    does not define."""
    def in_package(name: str | None) -> bool:
        return (name or "").split(".")[0] == "orbtour"

    missing, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and in_package(node.module):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = _package_attr(module, alias.name)
                if value is None:
                    missing.append(f"line {node.lineno}: {node.module}.{alias.name}")
                elif isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if in_package(alias.name):
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        modules[alias.asname] = module
                    else:
                        modules["orbtour"] = orbtour
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            module = modules[node.value.id]
            if _package_attr(module, node.attr) is None:
                missing.append(f"line {node.lineno}: {module.__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize("path", SCRIPTS + BENCHMARK, ids=lambda p: p.name)
def test_scripts_import_only_names_the_package_defines(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert missing_package_names(tree) == []


def test_guard_catches_a_missing_package_name():
    tree = ast.parse("import math\n"
                     "from orbtour.scp import refine_arc, solve_arc\n"
                     "from orbtour.tour import tour_cost\n")
    assert missing_package_names(tree) == ["line 2: orbtour.scp.solve_arc"]


def test_guard_catches_a_missing_module_attribute():
    tree = ast.parse("import orbtour.cli\n"
                     "from orbtour import optimizer, scp as s\n"
                     "def run():\n"
                     "    from orbtour import permutations\n"
                     "    s.RefineOptions(); s.solve_arc(); orbtour.cli.main\n"
                     "    optimizer.OptimizerConfig(); optimizer.sobol_points()\n"
                     "    orbtour.elements.kep_to_mee\n")
    assert missing_package_names(tree) == ["line 4: orbtour.permutations",
                                           "line 5: orbtour.scp.solve_arc",
                                           "line 6: orbtour.optimizer.sobol_points"]

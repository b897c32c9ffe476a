import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nsl

MODULES = ["nsl"] + [f"nsl.{info.name}" for info in pkgutil.iter_modules(nsl.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names what the module lacks: {missing}"


def _click_command(node: ast.FunctionDef) -> bool:
    """Decorated by click.command/group or a group's .command/.group, called or not."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


# Functions that only tests call, kept on purpose, each with its reason.
KEPT = {"scale_s_by_pairs": "the pair-sum route of S_t that tests compare scale_s_by_balls against"}


def test_every_function_has_a_caller_outside_the_tests():
    """A def in src/nsl that no module of nsl or perfbench names (as a name, an attribute or an
    import alias) is code that only tests run: delete it, or point its tests elsewhere. The
    package's re-exports in __init__.py are not uses; KEPT names the exceptions."""
    repo = Path(__file__).resolve().parents[1]
    root = repo / "src" / "nsl"
    modules = [path for path in root.glob("*.py") if path.name != "__init__.py"]
    sources = [*modules, *(repo / "perfbench").glob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update({node.name, node.asname})
    unused = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items() if path.parent == root
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not _click_command(node) and node.name not in used | set(KEPT))
    assert not unused, f"functions that only tests call: {unused}"

"""The package's modules import each other in one direction only."""

import ast
from pathlib import Path

import barkspace

PACKAGE = Path(barkspace.__file__).parent


def _package_imports(path: Path, modules: set) -> set:
    """The package modules that ``path`` imports anywhere, inside functions too.
    A relative import is read as one from ``barkspace``, a flat package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("barkspace" if node.level else "", node.module)))
            names = ([f"{module}.{alias.name}" for alias in node.names]
                     if module == "barkspace" else [module])
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("barkspace."))
    return found & modules


def _cycle(graph: dict) -> list:
    """One import cycle of ``graph`` as a list of modules, or [] when there is none."""
    state = {}  # module -> "open" while on the walk's path, "done" after

    def walk(module, path):
        state[module] = "open"
        for dep in sorted(graph[module]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state and (cycle := walk(dep, path + [dep])):
                return cycle
        state[module] = "done"
        return []

    for module in sorted(graph):
        if module not in state and (cycle := walk(module, [module])):
            return cycle
    return []


def test_cycle_finder_sees_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) == []


def test_package_modules_import_each_other_without_a_cycle():
    """``__init__`` imports every module and is left out; every other import
    between the package's modules, at the top or inside a function, counts."""
    paths = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    graph = {name: _package_imports(path, set(paths)) for name, path in paths.items()}
    assert graph["evaluation"] and graph["models"]  # the parse found imports at all
    assert _cycle(graph) == []

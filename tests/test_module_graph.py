"""The package's modules import each other one way only."""

import ast
from pathlib import Path

import dpkmeans

PACKAGE = Path(dpkmeans.__file__).parent


def _imports(source: str) -> set[str]:
    """Every ``dpkmeans.*`` module ``source`` imports, at module or function level."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(n for n in names if n.startswith("dpkmeans."))
    return found


def _graph() -> dict[str, set[str]]:
    """Each module of the package, ``__init__`` as ``dpkmeans``, to what it imports."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "dpkmeans" if path.stem == "__init__" else f"dpkmeans.{path.stem}"
        graph[name] = _imports(path.read_text())
    return graph


def test_function_level_imports_count():
    source = (
        "import numpy\n"
        "from dpkmeans.core import Dataset\n"
        "def f():\n"
        "    import dpkmeans.engine\n"
    )
    assert _imports(source) == {"dpkmeans.core", "dpkmeans.engine"}


def test_no_import_cycle():
    graph = _graph()
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            cycle = path[path.index(module) :] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        for target in sorted(graph.get(module, ())):
            visit(target, path + [module])
        done.add(module)

    for module in graph:
        visit(module, [])


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private module-level function or class of
    ``sources`` that no code in them refers to outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def names(nodes) -> set[str]:
        found = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    found.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    found.add(sub.attr)
        return found

    unreferenced = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            elsewhere = [n for n in tree.body if n is not node]
            elsewhere += [t for m, t in trees.items() if m != module]
            if node.name not in names(elsewhere):
                unreferenced.append(f"{module}.{node.name}")
    return sorted(unreferenced)


def test_a_helper_used_only_by_itself_is_unreferenced():
    sources = {
        "a": (
            "def _used():\n    pass\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Unused:\n    pass\n"
        ),
        "b": "import a\na._used()\n",
    }
    assert _unreferenced(sources) == ["a._Unused", "a._recursive"]


def test_every_private_helper_has_a_caller_in_the_package():
    # No helper exists only for its tests: each private module-level
    # function and class is used by the package's own code.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced(sources) == []

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

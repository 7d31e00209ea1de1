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


def _raw_reads(sources: dict[str, str]) -> set[tuple[str, str]]:
    """``(module.scope, what)`` of each place in ``sources`` that names a
    dataset's rows, ``.points``, or calls ``dataset_store``; the scope is the
    module-level function or class it lies in, or ``<module>``."""
    found = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            scope = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "points":
                    found.add((f"{module}.{scope}", ".points"))
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "attr", None) or getattr(func, "id", None)
                    if name == "dataset_store":
                        found.add((f"{module}.{scope}", "dataset_store"))
    return found


def test_raw_reads_are_found_in_their_scope():
    sources = {
        "a": (
            "class _B:\n    def f(self, d):\n        return d.points[0]\n"
            "def g(d):\n    return dataset_store(d)\n"
            "def h(d):\n    return core.dataset_store(d).get(d.n_rows)\n"
            "def dataset_store(d):\n    return d\n"
            "x = data.points\n"
        ),
        "b": "def i(d, points):\n    return Dataset(points=points)\n",
    }
    assert _raw_reads(sources) == {
        ("a._B", ".points"),
        ("a.g", "dataset_store"),
        ("a.h", "dataset_store"),
        ("a.<module>", ".points"),
    }


#: Where the package reads a dataset's rows, or its store of exact
#: statistics of them.  In a run only its boundary does, canopy start
#: included.
RAW_READERS = {
    ("engine._Boundary", ".points"),
    ("engine._Boundary", "dataset_store"),
    ("core.Dataset", ".points"),
    ("core.assign_labels", ".points"),
    ("ingestion.normalize", ".points"),
    ("evaluation.nicv", ".points"),
}


def test_raw_rows_are_read_only_where_listed():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _raw_reads(sources) == RAW_READERS


def test_canopy_imports_only_core():
    # The canopy pass computes on the rows it is given: the seeds, the noise
    # and the store stay with the run's boundary.
    assert _graph()["dpkmeans.canopy"] == {"dpkmeans.core"}


def _private_patches(source: str) -> list[str]:
    """What each ``setattr`` call and each assignment to an attribute in
    ``source`` patches, of these: any attribute of ``engine._Boundary`` or
    ``core._DatasetStore``, and an underscore-named attribute of any module,
    class or instance but a test's own ``self``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            owner, name = ast.unparse(node.value).split("."), node.attr  # owner.name = value
        elif (
            isinstance(node, ast.Call)
            and node.args
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "setattr"
        ):
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                *owner, name = first.value.split(".")  # setattr("pkg.module.name", value)
            else:
                owner = ast.unparse(first).split(".")
                second = node.args[1] if len(node.args) > 1 else None
                name = second.value if isinstance(second, ast.Constant) else None
        else:
            continue
        if owner[-1] in ("_Boundary", "_DatasetStore") or (
            owner != ["self"] and str(name).startswith("_")
        ):
            found.append(".".join(owner + [str(name)]))
    return found


def test_private_patches_are_found():
    source = (
        "monkeypatch.setattr(engine._Boundary, '_map', f)\n"
        "monkeypatch.setattr(core._DatasetStore, 'get', f)\n"
        "monkeypatch.setattr(engine, '_counts_and_sums', f)\n"
        "setattr(dpkmeans.engine, '_passes', 1)\n"
        "monkeypatch.setattr('dpkmeans.engine._Boundary.close', f)\n"
        "monkeypatch.setattr(boundary, '_kept', {})\n"
        "engine._Boundary._map = f\n"
        "core._DatasetStore.nbytes += 1\n"
        "engine._kept: dict = {}\n"
        "x, engine._passes = 1, 2\n"
        "boundary._candidates = None\n"
        "monkeypatch.setattr(engine, 'label_points', f)\n"
        "monkeypatch.setattr(engine.os, 'cpu_count', f)\n"
        "engine.MAP_BLOCK_ROWS = 16\n"
        "boundary.work = []\n"
        "self._calls = []\n"
    )
    assert sorted(_private_patches(source)) == [
        "boundary._candidates",
        "boundary._kept",
        "core._DatasetStore.get",
        "core._DatasetStore.nbytes",
        "dpkmeans.engine._Boundary.close",
        "dpkmeans.engine._passes",
        "engine._Boundary._map",
        "engine._Boundary._map",
        "engine._counts_and_sums",
        "engine._kept",
        "engine._passes",
    ]


#: The private names tests may patch, none of them the engine's: a
#: differential test of the labelling kernel's exact path, and a count of
#: the stdlib's pure-Python JSON encoder.
ALLOWED_PRIVATE_PATCHES = [
    "test_core.py: core._label_exact",
    "test_evaluation.py: json.encoder._make_iterencode",
]


def test_no_test_patches_the_engines_private_seams():
    # Tests of the map side read a run's work record (``RunReport.work``)
    # and patch only public names, so a refactor of the boundary's
    # internals that keeps the record's values breaks no test.
    tests = Path(__file__).parent
    found = [
        f"{path.name}: {patch}"
        for path in sorted(tests.glob("*.py"))
        for patch in _private_patches(path.read_text())
    ]
    assert found == ALLOWED_PRIVATE_PATCHES


def _private_names(source: str) -> list[str]:
    """``owner.name`` of each underscore-named name that ``source`` imports
    or reads as an attribute; dunder names are not private."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if "._" in f".{a.name}"]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if not node.attr.endswith("__"):
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_private_names_are_found():
    source = (
        "from dpkmeans.engine import _Boundary, Variant\n"
        "import dpkmeans._private\n"
        "engine._run_lloyd(data)\n"
        "x = core._label_exact\n"
        "y = engine.block_spans, type(x).__name__\n"
    )
    assert sorted(_private_names(source)) == [
        "core._label_exact",
        "dpkmeans._private",
        "dpkmeans.engine._Boundary",
        "engine._run_lloyd",
    ]


def test_reference_run_reads_only_public_names_and_the_exact_labels():
    # The reference states what the engine must compute; a private name of
    # the engine's would let it share the code it checks.
    source = (Path(__file__).parent / "reference_run.py").read_text()
    assert _private_names(source) == ["core._label_exact"]

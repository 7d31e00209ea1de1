"""The names the benchmark's tracer wraps must exist in the program.

``benchmark/spans.py`` looks up each ``(module, attribute)`` of its
``TRACED`` list when a traced run starts, so renaming or deleting one of
them breaks every ``--trace 1`` run of ``benchmark/run.py``.  The module is
loaded from its file without touching ``sys.path``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _traced():
    name = "_benchmark_spans"
    spec = importlib.util.spec_from_file_location(name, SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module.TRACED


TRACED = _traced()


@pytest.mark.parametrize("module_name, attr", TRACED, ids=[".".join(t) for t in TRACED])
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(f"dpkmeans.{module_name}")
    owner_name, _, method = attr.partition(".")
    if method:
        # The tracer reads methods from the class dict, not through inheritance.
        assert callable(vars(getattr(module, owner_name)).get(method))
    else:
        assert callable(getattr(module, attr, None))

"""The names and report fields the benchmark uses must exist in the program.

``benchmark/spans.py`` looks up each ``(module, attribute)`` of its
``TRACED`` list when a traced run starts, so renaming or deleting one of
them breaks every ``--trace 1`` run of ``benchmark/run.py``.  The checks of
``benchmark/oracles.py`` read the reports' fields, so a report that drops
one fails every operation of a workload; they must pass on the program's
own reports and grid.  Both modules are loaded from their files without
touching ``sys.path``.  The keywords ``benchmark/workloads.py`` passes to
the program's config dataclasses are read from its syntax tree, without
importing it.  A traced name must also still be called, through its
module attribute: one the engine stopped calling that way would read 0 ms,
not fail.
"""

import ast
import csv
import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dpkmeans import mechanism
from dpkmeans.engine import EngineConfig, Variant, run_baseline, run_edpdcs
from dpkmeans.evaluation import compare_variants, write_comparison_csv
from dpkmeans.ingestion import synthetic_blobs
from dpkmeans.planner import PlannerInputs

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def _load(stem: str):
    name = f"_benchmark_{stem}"
    spec = importlib.util.spec_from_file_location(name, BENCHMARK / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


TRACED = _load("spans").TRACED
oracles = _load("oracles")


@pytest.mark.parametrize("module_name, attr", TRACED, ids=[".".join(t) for t in TRACED])
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(f"dpkmeans.{module_name}")
    owner_name, _, method = attr.partition(".")
    if method:
        # The tracer reads methods from the class dict, not through inheritance.
        assert callable(vars(getattr(module, owner_name)).get(method))
    else:
        assert callable(getattr(module, attr, None))


def _keywords_passed(constructor: str) -> set[str]:
    tree = ast.parse((BENCHMARK / "workloads.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == constructor
    ]
    assert calls, f"workloads.py no longer calls {constructor}"
    return {kw.arg for call in calls for kw in call.keywords}


@pytest.mark.parametrize(
    "module_name, constructor",
    [("engine", "EngineConfig"), ("planner", "PlannerInputs")],
)
def test_workload_keywords_are_fields(module_name, constructor):
    module = importlib.import_module(f"dpkmeans.{module_name}")
    fields = {f.name for f in dataclasses.fields(getattr(module, constructor))}
    assert _keywords_passed(constructor) <= fields


def _counting(monkeypatch, module, attr):
    """Calls of ``module.attr``, replaced wherever a dpkmeans module holds it,
    as the tracer does."""
    original = getattr(module, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, holder in list(sys.modules.items()):
        if name.startswith("dpkmeans") and getattr(holder, attr, None) is original:
            monkeypatch.setattr(holder, attr, counting)
    return calls


def _run(variant):
    data = synthetic_blobs(300, 2, 2, 0)
    config = EngineConfig(variant=variant, master_seed=3)
    if variant is Variant.EDPDCS:
        inputs = PlannerInputs(n_rows=300, n_dims=2, k=2, epsilon_total=1.0)
        return run_edpdcs(data, 2, inputs, None, config)
    return run_baseline(data, 2, None if variant is Variant.NONPRIVATE else 1.0, config)


@pytest.mark.parametrize("attr", ["perturb_aggregate", "derive_stream_seed"])
def test_edpdcs_run_calls_traced_mechanism_name(monkeypatch, attr):
    calls = _counting(monkeypatch, mechanism, attr)
    _run(Variant.EDPDCS)
    assert calls
    if attr == "derive_stream_seed":
        # The noise streams of the start (1) and of a Lloyd step (2) are set
        # up through it, not only the start's own seeds (0).
        assert {args[1] for args in calls} >= {1, 2}


@pytest.mark.parametrize(
    "module_name, attr, variant",
    [
        ("canopy", "select_initial_centroids", Variant.EDPDCS),
        ("canopy", "select_initial_centroids", Variant.NONPRIVATE),
        ("planner", "make_plan", Variant.EDPDCS),
        ("planner", "make_plan", Variant.RF_DPKM),
    ],
)
def test_run_calls_traced_set_up_name(monkeypatch, module_name, attr, variant):
    # The set-up a run makes is reached through the traced module attribute.
    module = importlib.import_module(f"dpkmeans.{module_name}")
    calls = _counting(monkeypatch, module, attr)
    _run(variant)
    assert len(calls) == 1


@pytest.mark.parametrize("variant", list(Variant))
def test_oracles_pass_on_program_report(variant):
    data = synthetic_blobs(300, 2, 2, 0)
    centroids, _, report = _run(variant)
    _, problems = oracles.check_run(data.points, report.to_dict(), centroids.centroids)
    assert problems == []


def test_oracles_pass_on_program_grid(tmp_path):
    data = synthetic_blobs(300, 2, 2, 0)
    summary = compare_variants(data, 2, [1.0], 2, base_seed=3)
    path = tmp_path / "comparison.csv"
    write_comparison_csv(summary, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    as_json = json.loads(summary.to_json())
    assert oracles.check_grid(as_json, rows, [1.0], 2) == (0, [])
    for report in as_json["runs"]:
        assert oracles.check_run(data.points, report)[1] == []

"""Golden regression: every variant's results pinned to recorded values.

The ``blobs`` and ``blood`` cases of ``golden_engine.json`` were recorded
from the engine as it was before labelling became blockwise (one
(n, k, d) broadcast per full-data labelling, trace NICV re-labelled after
every iteration).  The ``wide`` cases were recorded from the blockwise
engine while ``label_points`` still computed every (row, centroid)
distance directly, before it filtered through a matrix product.  The
``supplied`` and ``converging`` cases were recorded while each variant
still ran its own copy of the Lloyd loop; they lock baselines started from
given centroids and RU_DPKM's convergence stop.  The ``start`` cases were
recorded while the engine still derived the canopy start's subsample and
fill seeds; they lock a subsample smaller than the data, a start filled
with uniform points, and given radii.  Every case runs the one
fixed reduce policy (noisy count floored at 1, centroids clipped to the
unit cube).  Every ``rest_sha256`` was re-hashed, and nothing else
changed, when the report stopped repeating itself: trace entries lost
``centroids_before`` and the always-null aggregates, and ``config`` lost
the keys that repeat top-level fields or code constants.  Centroids,
noise draws, budget charges, the ledger and the final labels must still
match the fixture bit for bit.  The NICV fields of the older
cases moved by floating-point summation order, so NICV is compared to a
relative 1e-12.

Regenerate a shape's cases only when results are meant to change::

    PYTHONPATH=src python tests/test_golden.py wide
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

import dpkmeans
from dpkmeans.canopy import CanopyParams
from dpkmeans.core import CentroidSet
from dpkmeans.engine import (
    MAP_BLOCK_ROWS,
    RU_MAX_ITERS,
    EngineConfig,
    Variant,
    run_baseline,
    run_edpdcs,
)
from dpkmeans.ingestion import synthetic_blobs
from dpkmeans.planner import PlannerInputs

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_engine.json")
NICV_RTOL = 1e-12

VARIANTS = [v.value for v in Variant]

#: Canopy starts: a subsample below N, radii so wide that three halvings
#: leave one canopy (the rest is filled), and given radii.
START_PARAMS = {
    "subsample": CanopyParams(subsample_size=1500),
    "fill": CanopyParams(t1=16.0, t2=16.0),
    "radii": CanopyParams(t1=0.5, t2=0.25),
}

#: name -> (synthetic_blobs args, k, epsilon, variants, options).  ``blobs``
#: spans three map blocks and has d >= 8; ``blood`` is the 748 x 4
#: reference shape; ``wide`` has the d and k of the threaded benchmark, with
#: wider blobs than its own, so that exact Lloyd runs 21 iterations.  The
#: one option, ``supplied_start``, starts each run from the centroids of
#: :func:`_diagonal_start`.  A ``start`` case is ``variant:name``, its
#: canopy parameters ``START_PARAMS[name]``.
SHAPES = {
    "blobs": (dict(n_rows=9000, n_dims=9, n_centers=4, seed=5), 4, 3.0, VARIANTS, {}),
    "blood": (dict(n_rows=748, n_dims=4, n_centers=2, seed=11), 2, 1.0, VARIANTS, {}),
    "wide": (
        dict(n_rows=20_000, n_dims=16, n_centers=20, seed=5, spread=0.1),
        20,
        3.0,
        ["EDPDCS", "NONPRIVATE"],
        {},
    ),
    "supplied": (
        dict(n_rows=6000, n_dims=6, n_centers=4, seed=9),
        4,
        2.0,
        ["RF_DPKM", "RU_DPKM", "NONPRIVATE"],
        dict(supplied_start=True),
    ),
    "converging": (
        dict(n_rows=748, n_dims=4, n_centers=2, seed=11),
        2,
        1e9,
        ["RU_DPKM"],
        {},
    ),
    "start": (
        dict(n_rows=6000, n_dims=4, n_centers=4, seed=13),
        3,
        2.0,
        [f"{v}:{name}" for v in ("EDPDCS", "NONPRIVATE") for name in START_PARAMS],
        {},
    ),
}
CASES = [(shape, variant) for shape in sorted(SHAPES) for variant in SHAPES[shape][3]]
_NICV_KEYS = ("nicv", "nicv_after")


def _diagonal_start(k: int, n_dims: int) -> CentroidSet:
    """k distinct centroids spaced along the unit cube's main diagonal."""
    return CentroidSet(
        centroids=np.repeat(np.linspace(0.2, 0.8, k)[:, None], n_dims, axis=1)
    )


def _run(shape: str, case: str, n_partitions: int):
    blob_args, k, eps, _, options = SHAPES[shape]
    variant, _, start_name = case.partition(":")
    canopy = START_PARAMS.get(start_name)
    data = synthetic_blobs(**blob_args)
    config = EngineConfig(
        variant=Variant(variant),
        n_partitions=n_partitions,
        master_seed=3,
        threads=2,
    )
    if variant == "EDPDCS":
        inputs = PlannerInputs(
            n_rows=data.n_rows, n_dims=data.n_dims, k=k, epsilon_total=eps
        )
        return run_edpdcs(data, k, inputs, canopy, config)
    epsilon = None if variant == "NONPRIVATE" else eps
    start = _diagonal_start(k, data.n_dims) if options.get("supplied_start") else None
    return run_baseline(
        data, k, epsilon, config, canopy_params=canopy, initial_centroids=start
    )


def _strip_nicv(obj):
    if isinstance(obj, dict):
        return {k: _strip_nicv(v) for k, v in obj.items() if k not in _NICV_KEYS}
    if isinstance(obj, list):
        return [_strip_nicv(v) for v in obj]
    return obj


def _summary(shape: str, variant: str, n_partitions: int) -> dict:
    cs, assignment, report = _run(shape, variant, n_partitions)
    comparable = json.loads(report.comparable_json())
    return {
        "iterations": [
            {
                "centroids_after": it["centroids_after"],
                "noise_draws": it["noise_draws"],
                "budget_charged": it["budget_charged"],
                "nicv_after": it["nicv_after"],
            }
            for it in report.iterations
        ],
        "centroids": cs.centroids.tolist(),
        "labels_sha256": hashlib.sha256(
            assignment.labels.astype("<i8").tobytes()
        ).hexdigest(),
        "budget_spent": report.budget_spent,
        "budget_remaining": report.budget_remaining,
        "nicv": report.nicv,
        # Everything else the report releases (plan, notes, config, shifts).
        "rest_sha256": hashlib.sha256(
            json.dumps(_strip_nicv(comparable), sort_keys=True).encode()
        ).hexdigest(),
    }


def _golden() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_blobs_shape_spans_more_than_two_blocks():
    assert SHAPES["blobs"][0]["n_rows"] > 2 * MAP_BLOCK_ROWS


def test_option_cases_reach_their_paths():
    golden = _golden()
    start = _diagonal_start(SHAPES["supplied"][1], SHAPES["supplied"][0]["n_dims"])
    for entry in golden["supplied"].values():
        first = np.array(entry["iterations"][0]["centroids_after"])
        assert np.array_equal(first, start.centroids)
    ru = golden["converging"]["RU_DPKM"]
    assert len(ru["iterations"]) - 1 < RU_MAX_ITERS
    assert START_PARAMS["subsample"].subsample_size < SHAPES["start"][0]["n_rows"]
    for variant in ("EDPDCS", "NONPRIVATE"):
        _, _, report = _run("start", f"{variant}:fill", 1)
        assert any(note.startswith("filled 2 centroid(s)") for note in report.notes)


@pytest.mark.parametrize("n_partitions", [1, 2])
@pytest.mark.parametrize("shape,variant", CASES)
def test_matches_golden(shape, variant, n_partitions):
    want = _golden()[shape][variant]
    got = _summary(shape, variant, n_partitions)
    assert math.isclose(got.pop("nicv"), want.pop("nicv"), rel_tol=NICV_RTOL)
    got_iters, want_iters = got.pop("iterations"), want.pop("iterations")
    assert len(got_iters) == len(want_iters)
    for g, w in zip(got_iters, want_iters):
        assert math.isclose(g.pop("nicv_after"), w.pop("nicv_after"), rel_tol=NICV_RTOL)
        assert g == w
    assert got == want


#: Turns numpy's AVX-512 dispatch off, so that ``np.log`` runs its AVX2
#: kernel.  The two kernels differ by one ulp on some inputs, and the
#: noise of the run below passes such an input to ``np.log``.  Turning off
#: AVX512_SPR and AVX512_ICL alone leaves its bytes as they are.
_AVX512_OFF = "AVX512_SPR AVX512_ICL X86_V4"


def _dispatch_case_sha256() -> str:
    """The sha256 of an RU_DPKM run whose noise hits a differing ``np.log``."""
    _, _, report = run_baseline(
        synthetic_blobs(748, 4, 2, seed=1),
        2,
        3.0,
        EngineConfig(variant=Variant.RU_DPKM, master_seed=14),
    )
    return hashlib.sha256(report.comparable_json().encode()).hexdigest()


@pytest.mark.skipif("X86_V4" not in __cpu_features__, reason="no X86_V4 dispatch to turn off")
@pytest.mark.xfail(__cpu_features__.get("X86_V4", False), strict=True, reason="ROADMAP item 16")
def test_released_bytes_do_not_depend_on_numpy_cpu_dispatch():
    # The child imports this module from the same paths; only its
    # environment turns the dispatch off.
    paths = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(dpkmeans.__file__))]
    code = (
        f"import sys; sys.path[:0] = {paths!r}; import test_golden as t;"
        " print(t.__cpu_features__['X86_V4'], t._dispatch_case_sha256())"
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=_AVX512_OFF),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    x86_v4, sha256 = child.stdout.split()
    assert x86_v4 == "False"
    assert sha256 == _dispatch_case_sha256()


def _record(shapes) -> None:
    golden = _golden()
    for shape in shapes:
        golden[shape] = {
            variant: _summary(shape, variant, 1) for variant in SHAPES[shape][3]
        }
    with open(FIXTURE, "w") as fh:
        json.dump(golden, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _record(sys.argv[1:] or sorted(SHAPES))

"""Every released value of a run equals the plain reference's, bit for bit."""

import json

import numpy as np
from hypothesis import example, given, settings, strategies as st

from dpkmeans.canopy import CanopyParams
from dpkmeans.core import CentroidSet
from dpkmeans.engine import MAP_BLOCK_ROWS, EngineConfig, Variant, run_baseline, run_edpdcs
from dpkmeans.ingestion import synthetic_blobs
from dpkmeans.planner import PlannerInputs
from reference_run import reference_run

#: Canopy starts: derived radii over all rows, a subsample below N, radii so
#: wide that three halvings leave one canopy (the rest is filled), and radii
#: so tight that every subsampled row is a canopy.
CANOPIES = {
    "default": None,
    "subsample": CanopyParams(subsample_size=500),
    "fill": CanopyParams(t1=16.0, t2=16.0),
    "tiny": CanopyParams(t1=1e-9, t2=1e-9, subsample_size=500),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    variant=st.sampled_from(list(Variant)),
    blocks=st.integers(1, 3),
    tail=st.integers(8, MAP_BLOCK_ROWS),
    n_dims=st.integers(1, 4),
    k=st.integers(1, 5),
    epsilon=st.floats(0.05, 50.0),
    seed=st.integers(0, 2**16),
    parts=st.sampled_from([1, 2, 8]),
    canopy=st.sampled_from(sorted(CANOPIES)),
    supplied=st.booleans(),
)
@example(Variant.EDPDCS, 3, 300, 3, 4, 1.0, 5, 2, "default", False)
@example(Variant.EDPDCS, 3, 808, 2, 3, 3.0, 1, 8, "subsample", False)
@example(Variant.EDPDCS, 2, 904, 3, 3, 0.5, 2, 2, "fill", False)
@example(Variant.NONPRIVATE, 3, 808, 3, 4, None, 8, 8, "fill", False)
@example(Variant.NONPRIVATE, 3, MAP_BLOCK_ROWS, 2, 5, None, 3, 2, "default", True)
@example(Variant.RF_DPKM, 3, 808, 4, 4, 1.0, 4, 8, "default", False)
@example(Variant.RU_DPKM, 3, 808, 3, 4, 1e9, 6, 2, "default", True)
def test_run_is_the_reference_run(
    variant, blocks, tail, n_dims, k, epsilon, seed, parts, canopy, supplied
):
    n_rows = (blocks - 1) * MAP_BLOCK_ROWS + tail
    data = synthetic_blobs(n_rows, n_dims, k, seed=seed)
    epsilon = epsilon if variant.spends_epsilon else None
    params = CANOPIES[canopy] if variant.has_canopy_start and not supplied else None
    start = None
    if supplied and variant is not Variant.EDPDCS:
        start = np.random.Generator(np.random.PCG64(seed)).random((k, n_dims))
    config = EngineConfig(variant=variant, n_partitions=parts, master_seed=seed + 1)
    if variant is Variant.EDPDCS:
        inputs = PlannerInputs(n_rows=n_rows, n_dims=n_dims, k=k, epsilon_total=epsilon)
        _, labels, report = run_edpdcs(data, k, inputs, params, config)
    else:
        initial = None if start is None else CentroidSet(centroids=start)
        _, labels, report = run_baseline(
            data, k, epsilon, config, canopy_params=params, initial_centroids=initial
        )

    trace, notes, spent, want = reference_run(
        data.points, k, variant, epsilon, seed + 1, params, start
    )
    # As JSON, so that a zero's sign counts too.
    assert json.dumps(report.iterations, sort_keys=True) == json.dumps(trace, sort_keys=True)
    assert (report.nicv, report.iterations_run) == (trace[-1]["nicv_after"], trace[-1]["iteration"])
    assert report.notes == notes
    assert report.budget_spent == spent
    assert report.budget_remaining == (0.0 if epsilon is None else epsilon - spent)
    assert np.array_equal(labels.labels, want)

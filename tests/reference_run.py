"""One run of each variant in plain code: the arithmetic the engine must
reproduce bit for bit, with no threads, store, certificate or labelling
filter.  It reads public names only, and ``core._label_exact``, which
``label_points`` must equal.  Each ``block_spans`` block is labelled and
summed on its own, and blocks fold in ascending order from block 0's
values.  Every draw comes from a stream (i, j) of the master seed: (0, 0)
for the canopy start's subsample, (0, 1) for its fill and the random-row
start, (1, 0) for the EDPDCS start's noise, and (t, j) for step t's noise
for cluster j.
"""

import math

import numpy as np

from dpkmeans import core, engine
from dpkmeans.canopy import CanopyParams, select_initial_centroids
from dpkmeans.engine import Variant, block_spans
from dpkmeans.mechanism import derive_stream_seed, noisy_mean, stream_unit_noise
from dpkmeans.planner import PlannerInputs, make_plan


def stream(seed, i, j):
    return np.random.Generator(np.random.PCG64(derive_stream_seed(seed, i, j)))


def labelling_pass(points, centroids):
    """Per-cluster counts and sums, the squared-distance sum and every label."""
    k, d = centroids.shape
    folded, labels = None, []
    for start, stop in block_spans(len(points)):
        x = points[start:stop]
        block_labels = core._label_exact(x, centroids)
        counts, sums = np.zeros(k), np.zeros((k, d))
        np.add.at(counts, block_labels, 1.0)
        np.add.at(sums, block_labels, x)
        diff = x - centroids[block_labels]
        block = (counts, sums, float((diff * diff).sum()))
        folded = block if folded is None else tuple(a + b for a, b in zip(folded, block))
        labels.append(block_labels)
    return (*folded, np.concatenate(labels))


def canopy_start(points, k, params, seed, epsilon):
    """The start's centroids, noise draws and notes; noisy given ``epsilon``."""
    (n, d), m = points.shape, params.subsample_size
    if m < n:
        points = points[np.sort(stream(seed, 0, 0).choice(n, m, replace=False))]
    top = select_initial_centroids(points, k, params)
    notes, draws, found = [], 0, len(top.counts)
    if top.halvings:
        notes.append(f"canopy radii halved {top.halvings}x to reach {top.n_canopies} canopies")
    if epsilon is None:
        centroids = top.sums / top.counts[:, None]
    else:
        noise = stream_unit_noise(seed, 1, 1, k * (d + 1))[0].reshape(k, d + 1)[:found]
        centroids, draws = noisy_mean(top.counts, top.sums, epsilon / (d + 1), noise), noise.size
    if found < k:
        centroids = np.vstack([centroids, stream(seed, 0, 1).random((k - found, d))])
        notes.append(f"filled {k - found} centroid(s) with uniform random points")
    return centroids, draws, notes


def reference_run(points, k, variant, epsilon, seed, canopy_params=None, start=None):
    """A run's trace, notes, budget spent and labels, as its report holds them."""
    n, d = points.shape
    tol, budget, draws, notes = None, None, 0, []
    if variant in (Variant.EDPDCS, Variant.RF_DPKM):
        plan = make_plan(PlannerInputs(n_rows=n, n_dims=d, k=k, epsilon_total=epsilon))
        first = 2 if variant is Variant.EDPDCS else 1
        steps = [(t, plan.epsilon_per_iter) for t in range(first, plan.iterations + 1)]
    elif variant is Variant.RU_DPKM:
        steps = [(t, epsilon / 2.0 ** (t + 1)) for t in range(1, engine.RU_MAX_ITERS + 1)]
        tol, converged = engine.RU_SHIFT_TOL, "converged at iteration {t} (shift {shift:.3g})"
    else:
        steps = [(t, None) for t in range(1, engine.EngineConfig().nonprivate_max_iters + 1)]
        tol, converged = engine.NONPRIVATE_SHIFT_TOL, "converged at iteration {t}"
    if start is not None:
        centroids, notes = start, ["started from supplied centroids"]
    elif variant in (Variant.EDPDCS, Variant.NONPRIVATE):
        budget = plan.epsilon_per_iter if variant is Variant.EDPDCS else None
        params = canopy_params or CanopyParams()
        centroids, draws, notes = canopy_start(points, k, params, seed, budget)
    else:
        centroids = points[np.sort(stream(seed, 0, 1).choice(n, k, replace=False))]
    trace = [dict(iteration=steps[0][0] - 1, phase="init", budget_charged=budget,
                  noise_draws=draws, centroid_shift=None, centroids_after=centroids.tolist())]
    spent = 0.0 if budget is None else budget
    for t, eps in steps:
        counts, sums, sq_dist, _ = labelling_pass(points, centroids)
        trace[-1]["nicv_after"] = sq_dist / n
        if eps is None:  # exact: an empty cluster keeps its centroid
            new = np.array([s / c if c else old for c, s, old in zip(counts, sums, centroids)])
            draws = 0
        else:
            noise = stream_unit_noise(seed, t, k, d + 1)
            new, draws = noisy_mean(counts, sums, eps / (d + 1), noise), noise.size
            spent += eps
        shift = math.sqrt(((new - centroids) ** 2).sum(axis=1).max())
        trace.append(dict(iteration=t, phase="lloyd", budget_charged=eps, noise_draws=draws,
                          centroid_shift=shift, centroids_after=new.tolist()))
        centroids = new
        if tol is not None and shift < tol:
            notes.append(converged.format(t=t, shift=shift))
            break
    *_, sq_dist, labels = labelling_pass(points, centroids)
    trace[-1]["nicv_after"] = sq_dist / n
    if variant is Variant.RU_DPKM:
        notes.append(f"residual budget {epsilon - spent:.6g} left by halving schedule")
    return trace, notes, spent, labels

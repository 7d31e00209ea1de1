"""Core domain types and distance primitives shared by every stage.

All clustering math in this package runs on plain ``float64`` numpy arrays;
the dataclasses here wrap those arrays with the invariants the rest of the
pipeline relies on (shape, finiteness, and -- for normalized data -- the
unit hypercube bound that makes a global sensitivity of 1 valid).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class InvalidInputError(ValueError):
    """An argument violated a documented precondition."""


def _as_float_matrix(points: np.ndarray | list, name: str) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-D array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains NaN or infinite values")
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable N x d matrix of points, optionally min-max normalized.

    Compares and hashes by identity, so caches can be kept per dataset.

    Attributes:
        points: Row-major float64 matrix, one point per row.
        normalized: True when every coordinate is guaranteed to lie in
            [0, 1].  Noise calibration for sums assumes this.
        source_label: Free-form provenance tag (file name, generator name).
    """

    points: np.ndarray
    normalized: bool = False
    source_label: str = ""

    def __post_init__(self) -> None:
        arr = _as_float_matrix(self.points, "points")
        if self.normalized and (arr.min() < 0.0 or arr.max() > 1.0):
            raise InvalidInputError(
                "normalized dataset has coordinates outside [0, 1]: "
                f"min={arr.min():.6g} max={arr.max():.6g}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def n_rows(self) -> int:
        return self.points.shape[0]

    @property
    def n_dims(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class CentroidSet:
    """k centroids in the same coordinate space as the data they summarize.

    Attributes:
        centroids: k x d float64 matrix.
    """

    centroids: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_float_matrix(self.centroids, "centroids")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "centroids", arr)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def n_dims(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True)
class Assignment:
    """Labels mapping each data row to the index of its nearest centroid."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.labels)
        if arr.ndim != 1:
            raise InvalidInputError(f"labels must be 1-D, got ndim={arr.ndim}")
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            raise InvalidInputError(f"labels must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=True)
        if arr.size and arr.min() < 0:
            raise InvalidInputError("labels must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def n_rows(self) -> int:
        return self.labels.shape[0]


#: Most (centroid, row) pairs labelled per step of :func:`label_points`, so
#: that a chunk holds max(1, 20480 // k) rows: 1024 at k=20, 4096 at k=5.
#: Bounds its temporaries to one (k, rows) float64 array, plus one
#: (rows, k, d) array for the rows the filter cannot settle, whatever the
#: number of rows.
_LABEL_CHUNK_ENTRIES = 20_480

#: Unit roundoff of float64, and its smallest positive value, twice the most
#: a product that underflows can lose.
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)


def label_chunk_rows(k: int) -> int:
    """Rows per chunk of :func:`label_points` for ``k`` centroids."""
    return max(1, _LABEL_CHUNK_ENTRIES // k)


def rounding_margin(d: int, s: float) -> float:
    """tau = 8 (d + 2) (u S^2 + eta), the margin of both distance filters.

    ``s`` is S, a bound on ||x|| + ||c|| over the pairs compared in d
    dimensions.  A squared distance, or one less ||x||^2, computed through
    dot products, and the direct sum of the d squared differences both lie
    well inside ``tau`` of their exact values: :func:`label_points` gives
    the bound, and :func:`dpkmeans.canopy.run_canopy` reads it too.

    ``tau`` is infinite exactly when S^2 overflows: u (S^2) is S^2 scaled by
    a power of two, where (u S) S would stay finite.
    """
    return 8 * (d + 2) * (_UNIT_ROUNDOFF * (s * s) + _SMALLEST_SUBNORMAL)


def _label_exact(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid by each row's directly summed squared distances."""
    diff = points[:, None, :] - centroids[None, :, :]
    np.square(diff, out=diff)
    return np.argmin(diff.sum(axis=2), axis=1)


@functools.lru_cache(maxsize=64)
def _index_and_one(k: int) -> np.ndarray:
    """Read-only (2, k) rows: the centroid indices 0 .. k-1, and k ones."""
    out = np.stack([np.arange(k, dtype=np.float64), np.ones(k)])
    out.setflags(write=False)
    return out


def label_points(
    points: np.ndarray, centroids: np.ndarray, max_sq_norm: float | None = None
) -> np.ndarray:
    """Index of the nearest centroid for every row, vectorized.

    Ties break toward the lowest centroid index (argmin semantics).  This is
    the single labeling code path used everywhere so that map tasks, final
    assignments, and evaluation always agree bit-for-bit.

    ``max_sq_norm`` bounds every row's squared norm, and is the only part
    of the rows' norms that the bound ``tau`` below reads.  By default it is
    each chunk's own largest.  The engine passes d: its data lie in the unit
    cube, so no row's squared norm exceeds it.

    The labels are those of :func:`_label_exact`, which sums each row's d
    squared differences to every centroid, and they do not depend on the
    chunking.  Rows go through in chunks of :func:`label_chunk_rows`, at most
    20,480 (centroid, row) pairs each, so small k still gives numpy calls
    long enough to pay for themselves.  A matrix
    product first computes, for each centroid c and row x, the filter value
    F = ||c||^2 - 2 c.x, which is the squared distance less ||x||^2 and so
    orders the centroids of a row the same way.  A row keeps the filter's
    pick when exactly one centroid has F within ``tau`` of the row's
    smallest F; the other rows, and with them every exact tie, are
    labelled by :func:`_label_exact`.

    Why the filter cannot change a label.  Let u = 2^-53,
    g_m = m u / (1 - m u), D_j = ||x - c_j||^2, and S = the bound on ||x||
    (the square root of ``max_sq_norm``, or the chunk's largest ||x||) plus
    the largest ||c_j||, so that D_j <= S^2 and
    |F_j| <= S^2 in exact arithmetic.  A computed dot product of length d
    is within g_d |a|.|b| of the true one in any summation order, with or
    without fused multiply-adds (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., section 3.1), so:

    - the exact path's value E_j, a sum of d rounded squares of rounded
      differences, is within g_{d+2} D_j <= g_{d+2} S^2 of D_j;
    - the computed F_j, two dot products and one addition, is within
      g_{d+1} S^2 of D_j - ||x||^2.

    If F_b is the smallest F of a row and F_j - F_b = G for some j, then
    E_j - E_b >= G - 2 (g_{d+1} + g_{d+2}) S^2, which is positive once
    G > 4 g_{d+2} S^2.  A kept row has exactly one F_j <= fl(F_b + tau),
    F_b itself, so every other F_j exceeds fl(F_b + tau) and its gap is at
    least tau - u |F_b + tau|.  With ``tau`` = 8 (d + 2) (u S^2 + eta) that
    is about (8 d + 15) u S^2, above 4 g_{d+2} S^2 ~ (4 d + 8) u S^2 for
    every d >= 1: b is then the exact path's strict argmin.  The margin
    covers the rounding of S and of ``tau`` itself.  eta, the smallest
    subnormal, covers underflow: one comparison rests on at most 6d
    products or fused multiply-adds, and each that underflows loses at most
    eta / 2.  F_j, at most S^2 in size, overflows only when S^2 does, and
    then ``tau`` is infinite.  A finite smallest F then makes every
    centroid near, so no row with k >= 2 keeps its pick; a smallest F of
    -inf (-inf + inf is NaN) or of NaN (``min`` propagates NaN) makes none
    near.  Either way the row is refined because ``tau`` is infinite, not
    because of its gap.  The bound assumes nothing about where the points
    or centroids lie.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    n, d = points.shape
    labels = np.empty(n, dtype=np.int64)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    c_norm = np.sqrt(c_sq.max())
    minus_2c = -2.0 * centroids
    index_and_one = _index_and_one(centroids.shape[0])
    chunk = label_chunk_rows(centroids.shape[0])
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        x = points[start:stop]
        # (k, rows): the reductions run along axis 0, in contiguous passes
        # that stay cheap when k is small.
        f = minus_2c @ x.T
        f += c_sq[:, None]
        x_sq = np.einsum("ij,ij->i", x, x).max() if max_sq_norm is None else max_sq_norm
        s = np.sqrt(x_sq) + c_norm
        tau = rounding_margin(d, s)
        near = f <= f.min(axis=0) + tau
        # Per row, the sum of the near centroids' indices and their number.
        index_sum, n_near = index_and_one @ near.astype(np.float64)
        best = index_sum.astype(np.int64)
        refine = n_near != 1.0
        if refine.any():
            best[refine] = _label_exact(x[refine], centroids)
        labels[start:stop] = best
    return labels


def assign_labels(data: Dataset, centroid_set: CentroidSet) -> Assignment:
    """Assign every row of ``data`` to its nearest centroid."""
    if data.n_dims != centroid_set.n_dims:
        raise InvalidInputError(
            f"data has {data.n_dims} dims but centroids have {centroid_set.n_dims}"
        )
    return Assignment(labels=label_points(data.points, centroid_set.centroids))

"""Core domain types and distance primitives shared by every stage.

All clustering math in this package runs on plain ``float64`` numpy arrays;
the dataclasses here wrap those arrays with the invariants the rest of the
pipeline relies on (shape, finiteness, and -- for normalized data -- the
unit hypercube bound that makes a global sensitivity of 1 valid).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Dataset:
    """An immutable N x d matrix of points, optionally min-max normalized.

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
        noisy: True when the coordinates carry injected noise (and therefore
            must not be mistaken for exact cluster means).
    """

    centroids: np.ndarray
    noisy: bool = False

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


@dataclass
class ClusterAggregate:
    """Per-cluster sufficient statistics produced by a map task.

    ``count`` is a float so the same container can hold exact tallies and
    noisy ones (Laplace noise makes counts fractional and possibly
    negative before clamping).
    """

    cluster_index: int
    count: float
    sums: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        self.sums = np.asarray(self.sums, dtype=np.float64)
        if self.sums.ndim != 1:
            raise InvalidInputError("sums must be a 1-D vector")


#: Rows labelled per step of :func:`label_points`.  Bounds its temporaries to
#: one (rows, k) float64 array, plus one (rows, k, d) array for the rows the
#: filter cannot settle, whatever the number of rows.
_LABEL_CHUNK_ROWS = 1024

#: Unit roundoff of float64, and its smallest positive value, twice the most
#: a product that underflows can lose.
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)


def _label_exact(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid by each row's directly summed squared distances."""
    diff = points[:, None, :] - centroids[None, :, :]
    np.square(diff, out=diff)
    return np.argmin(diff.sum(axis=2), axis=1)


def label_points(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for every row, vectorized.

    Ties break toward the lowest centroid index (argmin semantics).  This is
    the single labeling code path used everywhere so that map tasks, final
    assignments, and evaluation always agree bit-for-bit.

    The labels are those of :func:`_label_exact`, which sums each row's d
    squared differences to every centroid, and they do not depend on the
    chunking.  Rows go through in chunks of ``_LABEL_CHUNK_ROWS``.  A matrix
    product first computes, for each centroid c and row x, the filter value
    F = ||c||^2 - 2 c.x, which is the squared distance less ||x||^2 and so
    orders the centroids of a row the same way.  A row keeps the filter's
    pick when exactly one centroid has F within ``tau`` of the row's
    smallest F; the other rows, and with them every exact tie, are
    labelled by :func:`_label_exact`.

    Why the filter cannot change a label.  Let u = 2^-53,
    g_m = m u / (1 - m u), D_j = ||x - c_j||^2, and S = the largest ||x|| of
    the chunk plus the largest ||c_j||, so that D_j <= S^2 and
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
    x_sq = np.einsum("ij,ij->i", points, points)
    minus_2c = -2.0 * centroids
    k = centroids.shape[0]
    index_and_one = np.stack([np.arange(k, dtype=np.float64), np.ones(k)])
    for start in range(0, n, _LABEL_CHUNK_ROWS):
        stop = min(start + _LABEL_CHUNK_ROWS, n)
        x = points[start:stop]
        # (k, rows): the reductions run along axis 0, in contiguous passes
        # that stay cheap when k is small.
        f = minus_2c @ x.T
        f += c_sq[:, None]
        s = np.sqrt(x_sq[start:stop].max()) + c_norm
        tau = 8 * (d + 2) * (_UNIT_ROUNDOFF * s * s + _SMALLEST_SUBNORMAL)
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

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

    def merge(self, other: "ClusterAggregate") -> "ClusterAggregate":
        """Combine two partial aggregates for the same cluster."""
        if other.cluster_index != self.cluster_index:
            raise InvalidInputError(
                f"cannot merge aggregates for clusters "
                f"{self.cluster_index} and {other.cluster_index}"
            )
        return ClusterAggregate(
            cluster_index=self.cluster_index,
            count=self.count + other.count,
            sums=self.sums + other.sums,
        )


def squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidInputError(
            f"expected two 1-D vectors of equal length, got {a.shape} and {b.shape}"
        )
    diff = a - b
    return float(diff @ diff)


#: Rows labelled per step of :func:`label_points`.  Bounds its temporary to
#: one (rows, k, d) float64 array whatever the number of rows.
_LABEL_CHUNK_ROWS = 1024


def label_points(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for every row, vectorized.

    Ties break toward the lowest centroid index (argmin semantics).  This is
    the single labeling code path used everywhere so that map tasks, final
    assignments, and evaluation always agree bit-for-bit.

    Rows are labelled in chunks of ``_LABEL_CHUNK_ROWS``.  Each row's
    squared distances are the same sum over its own d differences as in one
    (n, k, d) broadcast, so labels do not depend on the chunking.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    labels = np.empty(points.shape[0], dtype=np.int64)
    for start in range(0, points.shape[0], _LABEL_CHUNK_ROWS):
        stop = start + _LABEL_CHUNK_ROWS
        diff = points[start:stop, None, :] - centroids[None, :, :]
        np.square(diff, out=diff)
        np.argmin(diff.sum(axis=2), axis=1, out=labels[start:stop])
    return labels


def nearest_centroid(x: np.ndarray, centroid_set: CentroidSet) -> int:
    """Index of the centroid closest to a single point."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != centroid_set.n_dims:
        raise InvalidInputError(
            f"point of length {x.shape} does not match centroid "
            f"dimensionality {centroid_set.n_dims}"
        )
    return int(label_points(x[None, :], centroid_set.centroids)[0])


def assign_labels(data: Dataset, centroid_set: CentroidSet) -> Assignment:
    """Assign every row of ``data`` to its nearest centroid."""
    if data.n_dims != centroid_set.n_dims:
        raise InvalidInputError(
            f"data has {data.n_dims} dims but centroids have {centroid_set.n_dims}"
        )
    return Assignment(labels=label_points(data.points, centroid_set.centroids))

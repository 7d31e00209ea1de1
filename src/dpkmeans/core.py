"""Core domain types and distance primitives shared by every stage.

All clustering math in this package runs on plain ``float64`` numpy arrays;
the dataclasses here wrap those arrays with the invariants the rest of the
pipeline relies on (shape, finiteness, and -- for normalized data -- the
unit hypercube bound that makes a global sensitivity of 1 valid).
:func:`dataset_store` keeps what the runs on one dataset share.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np


class InvalidInputError(ValueError):
    """An argument violated a documented precondition."""


def as_int(value: object, name: str) -> int:
    """``value``, a Python or numpy integer, as an ``int``.

    Anything else is refused, ``bool`` included: 2.5 would run as 2 where a
    ``range`` or a seed reads it, and be reported as given.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_float_matrix(
    points: np.ndarray | list, name: str
) -> tuple[np.ndarray, float, float]:
    """``points`` as a 2-D float64 array, with its least and greatest value.

    The two values check finiteness: NaN propagates through ``min`` and
    ``max``, and an infinity is one of them.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-D array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"{name} must be non-empty, got shape {arr.shape}")
    lo, hi = float(arr.min()), float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError(f"{name} contains NaN or infinite values")
    return arr, lo, hi


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable N x d matrix of points, optionally min-max normalized.

    Compares and hashes by identity, so :func:`dataset_store` keeps what
    runs on it share.

    ``points`` is kept, not copied, when ``np.asarray`` has just made it
    from an array of another dtype, a list or a tuple, or when it is
    already a read-only, C-contiguous float64 array that owns its memory,
    as ``ingestion``'s loaders return.  Any other array is copied, so a
    writeable array, a view or a memory map that the caller holds never
    reaches a run.  Either way, set-up keeps one full-size array.

    Attributes:
        points: Read-only, row-major float64 matrix, one point per row.
        normalized: True when every coordinate is guaranteed to lie in
            [0, 1].  Noise calibration for sums assumes this.
        source_label: Free-form provenance tag (file name, generator name).
    """

    points: np.ndarray
    normalized: bool = False
    source_label: str = ""

    def __post_init__(self) -> None:
        source = self.points
        arr, lo, hi = _as_float_matrix(source, "points")
        if self.normalized and (lo < 0.0 or hi > 1.0):
            raise InvalidInputError(
                "normalized dataset has coordinates outside [0, 1]: "
                f"min={lo:.6g} max={hi:.6g}"
            )
        made = arr is not source and isinstance(source, (np.ndarray, list, tuple))
        if not (
            arr.flags.c_contiguous
            and arr.flags.owndata
            and (made or not arr.flags.writeable)
        ):
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def n_rows(self) -> int:
        return self.points.shape[0]

    @property
    def n_dims(self) -> int:
        return self.points.shape[1]


#: Most bytes one dataset's store keeps.  An entry counts its key's byte
#: strings, its value's arrays and ``_ENTRY_OVERHEAD``: a labelling pass's is
#: about 650 bytes at k=2, d=4 (a 451-run ``compare`` grid on 748 rows keeps
#: about 2,100) and 5.8 KB at k=20, d=16.
STORE_BYTES = 4 * 2**20
_ENTRY_OVERHEAD = 512


class _DatasetStore:
    """What the runs on one dataset share: read-only entries, the most
    recently used up to ``STORE_BYTES``, each keyed by its kind first.

    ``"pass"``: a labelling pass's exact counts, sums and squared-distance
    sum, by the centroids' bytes (no labels, which would cost n integers).
    ``"canopy"``: the canopy start's summary.  ``"rows"``: the random-row
    start's indices.  Exact raw-data state: it stays in the process, is
    dropped with its dataset, and no report holds it.  Two threads may
    compute one entry twice, with the same values.
    """

    def __init__(self) -> None:
        #: key -> (value, the bytes it counts)
        self.entries: OrderedDict[tuple, tuple[tuple, int]] = OrderedDict()
        self.nbytes = 0
        self._lock = threading.Lock()

    def get(self, key: tuple) -> tuple | None:
        with self._lock:
            entry = self.entries.get(key)
            if entry is None:
                return None
            self.entries.move_to_end(key)
            return entry[0]

    def put(self, key: tuple, value: tuple) -> tuple:
        """Keep ``value``, its arrays made read-only, and return it."""
        size = _ENTRY_OVERHEAD
        for part in (*key, *value):
            if isinstance(part, bytes):
                size += len(part)
            elif isinstance(part, np.ndarray):
                part.setflags(write=False)
                size += part.nbytes
        with self._lock:
            # A key's entry always has the same size: its values are equal.
            if self.entries.pop(key, None) is None:
                self.nbytes += size
            self.entries[key] = (value, size)
            while self.nbytes > STORE_BYTES:
                _, (_, old_size) = self.entries.popitem(last=False)
                self.nbytes -= old_size
        return value


#: Stores by dataset (hashed by identity).
_STORES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def dataset_store(data: Dataset) -> _DatasetStore:
    """The store of ``data``, made on first use."""
    return _STORES.get(data) or _STORES.setdefault(data, _DatasetStore())


@dataclass(frozen=True)
class CentroidSet:
    """k centroids in the same coordinate space as the data they summarize.

    Attributes:
        centroids: k x d float64 matrix.
    """

    centroids: np.ndarray

    def __post_init__(self) -> None:
        arr, _, _ = _as_float_matrix(self.centroids, "centroids")
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
    """tau = 8 (d + 2) (u S^2 + eta), the margin of the distance filters.

    ``s`` is S, a bound on ||x|| + ||c|| over the pairs compared in d
    dimensions.  A squared distance, or one less ||x||^2, computed through
    dot products, and the direct sum of the d squared differences both lie
    well inside ``tau`` of their exact values: :func:`label_points` gives
    the bound, and :func:`dpkmeans.canopy.run_canopy` reads it too.
    :func:`certificate_bounds` takes it at 2 S.

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
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    # Python floats: the same IEEE operations as numpy scalars, at half the
    # cost per call.
    c_norm = math.sqrt(c_sq.max())
    minus_2c = -2.0 * centroids
    index_and_one = _index_and_one(centroids.shape[0])
    chunk = label_chunk_rows(centroids.shape[0])
    starts = range(0, n, chunk)
    # Rows that fit one chunk get that chunk's labels, with no copy.
    labels = None if len(starts) == 1 else np.empty(n, dtype=np.int64)
    for start in starts:
        stop = min(start + chunk, n)
        x = points[start:stop]
        # (k, rows): the reductions run along axis 0, in contiguous passes
        # that stay cheap when k is small.
        f = minus_2c @ x.T
        f += c_sq[:, None]
        x_sq = np.einsum("ij,ij->i", x, x).max() if max_sq_norm is None else max_sq_norm
        s = math.sqrt(x_sq) + c_norm
        tau = rounding_margin(d, s)
        near = f <= f.min(axis=0) + tau
        # Per row, the sum of the near centroids' indices and their number.
        index_sum, n_near = index_and_one @ near.astype(np.float64)
        best = index_sum.astype(np.int64)
        refine = n_near != 1.0
        if refine.any():
            best[refine] = _label_exact(x[refine], centroids)
        if labels is None:
            return best
        labels[start:stop] = best
    return labels


def certificate_bounds(centroids: np.ndarray, max_sq_norm: float) -> np.ndarray:
    """Per centroid a, the bound below which a row's squared distance to c_a
    proves that a is the row's label.

    A row x with a candidate label a is *certified* when E'_a, its d squared
    differences to c_a summed directly in any order, is below
    ``bounds[a]``.  Then a is the label :func:`label_points` gives x, and
    every other centroid is strictly farther: Elkan's half-distance test
    ("Using the Triangle Inequality to Accelerate k-Means", ICML 2003,
    Lemma 1), with the rounding accounted for.  ``max_sq_norm`` bounds every
    row's squared norm, as in :func:`label_points`.

    ``bounds[a]`` = fl(min(Q_a, fl(S^2)) - tau), where Q_a = fl(M_a / 4),
    M_a is the smallest directly summed squared distance from c_a to another
    centroid (+inf when k = 1), S is :func:`label_points`' bound on
    ||x|| + ||c||, and tau = :func:`rounding_margin` (d, 2 S).  The pairs
    are summed in chunks of :func:`label_chunk_rows` (k) centroids, so the
    temporaries are those of :func:`label_points`: one (rows, k) and one
    (rows, k, d) array with rows * k <= 20,480.

    Why a certified row is the strict argmin of :func:`_label_exact`.  With
    u, g_m and eta as in :func:`label_points`, a directly summed squared
    distance P between two vectors is computed within g_{d+2} P + d eta of
    its exact value (each of the d squares that underflows loses at most
    eta / 2).  That covers the E_j of :func:`_label_exact`, E'_a and every
    computed M_aj, the least of which is M_a.  If tau is infinite, no row is
    certified.  Otherwise fl(4 S^2) is finite.  Let
    D_j = ||x - c_j||^2 <= S^2, so that |E_j - D_j| and |E'_a - D_a| are at
    most e_0 = g_{d+2} S^2 + d eta, and fix j != a, with
    M = ||c_a - c_j||^2 <= 4 S^2 and y = min(Q_a, fl(S^2)):

    - M / 4 >= y - e_1, with e_1 = g_{d+2} (1 + u) S^2 + d eta.  If the
      computed M_aj (at least M_a) is finite, M / 4 is at least
      M_aj / 4 - g_{d+2} S^2 - d eta / 4, and Q_a exceeds M_a / 4 by at
      most eta / 2, since the scaling is exact unless it underflows.  If
      M_aj overflowed, M (1 + g_{d+2}) + d eta exceeds the largest double,
      which is at least fl(4 S^2) = 4 fl(S^2), S^2 being far from
      underflow.
    - ``bounds[a]`` <= y - tau (1 - u) + u fl(S^2), for 0 <= y <= fl(S^2).
    - So a certified row has D_a <= E'_a + e_0 < ``bounds[a]`` + e_0, and
      M / 4 - D_a > delta = tau (1 - u) - u fl(S^2) - e_0 - e_1.

    Computed, tau is at least (1 - 4u) 8 (d + 2) (4 u S^2 + eta / 2), far
    above the other terms of delta - e_0, about (3 d + 7) u S^2 + 3 d eta,
    so delta > e_0 >= 0 for every d >= 1; the slack also covers the
    rounding of S itself, as in :func:`label_points`.  Then r = ||x - c_a|| < m / 2,
    where m = sqrt(M), and by the triangle inequality D_j >= (m - r)^2, so
    D_j - D_a >= m (m - 2r) = 2m (M / 4 - D_a) / (m / 2 + r) > 2 delta.
    Hence E_j - E_a > 2 delta - 2 e_0 > 0: E_a is the row's strictly
    smallest E_j, so a is the label of :func:`_label_exact`, and with it of
    :func:`label_points`.  No row with an exact tie is certified, and no
    row at all when c_a has a duplicate (M_a = 0 makes ``bounds[a]``
    negative).  The cap fl(S^2), which M_a / 4 <= max ||c||^2 <= S^2
    reaches only through rounding, keeps the bound sound when M_aj
    overflows.  The bound assumes nothing about where the points or
    centroids lie.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    k, d = centroids.shape
    s = math.sqrt(max_sq_norm) + math.sqrt(np.einsum("ij,ij->i", centroids, centroids).max())
    tau = rounding_margin(d, 2.0 * s)
    if tau == math.inf:
        return np.full(k, -math.inf)
    quarter = np.empty(k)
    chunk = label_chunk_rows(k)
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        diff = centroids[start:stop, None, :] - centroids[None, :, :]
        np.square(diff, out=diff)
        sq = diff.sum(axis=2)
        sq[np.arange(stop - start), np.arange(start, stop)] = math.inf
        quarter[start:stop] = sq.min(axis=1)
    quarter *= 0.25
    np.minimum(quarter, s * s, out=quarter)
    quarter -= tau
    return quarter


def assign_labels(data: Dataset, centroid_set: CentroidSet) -> Assignment:
    """Assign every row of ``data`` to its nearest centroid."""
    if data.n_dims != centroid_set.n_dims:
        raise InvalidInputError(
            f"data has {data.n_dims} dims but centroids have {centroid_set.n_dims}"
        )
    return Assignment(labels=label_points(data.points, centroid_set.centroids))

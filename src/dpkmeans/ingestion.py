"""CSV loading, min-max normalization, and synthetic data generation.

Everything downstream assumes features normalized into [0, 1], because the
noise mechanism's sensitivity constants are only valid on the unit cube.
``load_csv`` produces raw feature matrices; ``normalize`` rescales them and
remembers the per-column ranges so centroids can be mapped back.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import TextIO

import numpy as np

from dpkmeans.core import Dataset, InvalidInputError, as_int

logger = logging.getLogger(__name__)


class CsvFormatError(InvalidInputError):
    """A CSV row could not be parsed against the declared column layout."""


#: A feature value that marks a row as missing data; such rows are dropped.
_MISSING_TOKEN = "?"


@dataclass(frozen=True)
class ColumnSpec:
    """How to treat one CSV column.

    Attributes:
        index: 0-based column position in the file, an integer.
        name: Human-readable column name.
        lo, hi: Normalization range, finite.  Filled from observed data by
            :func:`normalize` when not preset.
    """

    index: int
    name: str
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", as_int(self.index, "column index"))
        if self.index < 0:
            raise InvalidInputError(f"column index must be >= 0, got {self.index}")
        if (self.lo is None) != (self.hi is None):
            raise InvalidInputError("lo and hi must be set together")
        # A NaN bound passes hi < lo, and would map the column to 0.5.
        if self.lo is not None and not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidInputError(f"range [{self.lo}, {self.hi}] must be finite")
        if self.lo is not None and self.hi < self.lo:
            raise InvalidInputError(f"empty range [{self.lo}, {self.hi}]")


@dataclass
class LoadResult:
    """Raw feature matrix plus bookkeeping from one CSV load."""

    data: Dataset
    columns: list[ColumnSpec]
    rows_read: int
    rows_dropped: int


def load_csv(
    path: str,
    columns: list[ColumnSpec],
    *,
    has_header: bool = False,
) -> LoadResult:
    """Load the given columns of a CSV file into a raw dataset.

    Each spec in ``columns`` is one feature, each at its own column index;
    columns it does not list are never parsed.  Rows holding ``?`` in any feature column are dropped
    and counted in the result.  Any other non-numeric feature value is an
    error, reported with its line number.

    One pass over the file yields the lines to keep, and one
    ``np.loadtxt`` call parses their feature columns in C, which checks the
    numbers of every kept line once.  Lines are split on the way only to
    decide whether to keep them: a line holding ``"`` with :mod:`csv`, and
    any other line holding ``?`` with ``str.split``.  A record's feature
    fields are checked in Python only when it is short, which is refused,
    or holds ``?`` in a feature field: such a line is dropped once its
    feature fields before the ``?``, in column order, are checked.  When the
    bulk parse refuses the file, a second pass splits every line with
    :mod:`csv` and raises at the first one that the same per-record check
    refuses, naming its line.  Numbers are read as by ``float``, except
    that a token with ``_`` digit groups or non-ASCII characters is
    refused, as is a quoted field that spans lines.  The file is read as
    UTF-8, and a byte sequence that is not UTF-8 is refused with its line
    number.  A UTF-8 byte-order mark at the start of the file is skipped.
    """
    if not columns:
        raise InvalidInputError("need at least one feature column")
    usecols = [c.index for c in columns]
    repeated = [index for n, index in enumerate(usecols) if index in usecols[:n]]
    if repeated:
        raise InvalidInputError(f"column index {repeated[0]} is given more than once")
    max_index = max(usecols)
    rows_dropped = 0

    def dropped(record: list[str], line_no: int) -> bool:
        """Check a record's feature fields in column order; True at a ``?``."""
        if len(record) <= max_index:
            raise CsvFormatError(
                f"{path}:{line_no}: expected at least {max_index + 1} "
                f"columns, got {len(record)}"
            )
        for col in columns:
            token = record[col.index].strip()
            if token == _MISSING_TOKEN:
                return True
            try:
                float(token)
            except ValueError as exc:
                raise CsvFormatError(
                    f"{path}:{line_no}: column {col.name!r} has "
                    f"non-numeric value {token!r}"
                ) from exc
            if not token.isascii() or "_" in token:
                raise CsvFormatError(
                    f"{path}:{line_no}: column {col.name!r} has value "
                    f"{token!r} with non-ASCII characters or '_' digit groups"
                )
        return False

    def incomplete(record: list[str]) -> bool:
        """True when a record is short or holds ``?`` in a feature field."""
        if len(record) <= max_index:
            return True
        for i in usecols:
            if record[i].strip() == _MISSING_TOKEN:
                return True
        return False

    def kept_lines(fh: TextIO, split_every_line: bool) -> Iterator[str]:
        nonlocal rows_dropped
        for line_no, line in enumerate(fh, start=1):
            if split_every_line or '"' in line:
                record = next(csv.reader([line]))
                if record and record[-1].endswith("\n"):
                    raise CsvFormatError(f"{path}:{line_no}: quoted field spans lines")
                if has_header and line_no == 1:
                    continue
                if not record or (len(record) == 1 and not record[0].strip()):
                    continue  # blank line
            elif (has_header and line_no == 1) or line.isspace():
                continue
            elif _MISSING_TOKEN in line:
                # Without quotes, csv gives the line these fields, bar the
                # "\n" that .strip() drops.
                record = line.split(",")
            else:
                yield line
                continue
            # A record with every feature field present is kept unchecked
            # (the rescan checks them all): the bulk parse reads its numbers.
            if (split_every_line or incomplete(record)) and dropped(record, line_no):
                rows_dropped += 1
                continue
            yield line

    # Universal newlines end every line in "\n", as csv ends its records.
    # A UnicodeDecodeError is a ValueError, so it can reach the rescan below,
    # which then raises it again.
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = kept_lines(fh, split_every_line=False)
            # A file with no kept line raises here, before numpy could warn
            # that its input contained no data.
            first = next(lines, None)
            if first is None:
                raise CsvFormatError(f"{path}: no usable data rows")
            try:
                points = np.loadtxt(
                    itertools.chain([first], lines),
                    dtype=np.float64,
                    delimiter=",",
                    comments=None,
                    usecols=usecols,
                    quotechar='"',
                    ndmin=2,
                )
            except ValueError as exc:
                # numpy reads lines ahead of converting them, so the error it
                # saw may not be the file's first: rescan in file order.
                fh.seek(0)
                for _ in kept_lines(fh, split_every_line=True):
                    pass
                raise CsvFormatError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}:{_undecodable_line(path)}: not UTF-8 text") from exc

    if rows_dropped:
        logger.info("%s: dropped %d row(s) with missing values", path, rows_dropped)
    points.setflags(write=False)
    data = Dataset(points=points, normalized=False, source_label=path)
    return LoadResult(
        data=data,
        columns=list(columns),
        rows_read=len(points) + rows_dropped,
        rows_dropped=rows_dropped,
    )


def _undecodable_line(path: str) -> int:
    """The 1-based line, counted as universal newlines count them, that
    holds the first byte of ``path`` that is not UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raw = raw[: exc.start]
    # The appended byte ends the prefix in an unterminated last line.
    return len((raw + b"x").splitlines())


def normalize(
    data: Dataset, columns: list[ColumnSpec] | None = None
) -> tuple[Dataset, list[ColumnSpec]]:
    """Min-max rescale every column into [0, 1].

    Ranges come from the column specs when preset and from the observed
    data otherwise; the returned specs always carry the ranges used, so
    ``x * (hi - lo) + lo`` inverts the mapping.  A constant column maps to
    0.5.
    """
    pts = data.points
    if columns is not None and len(columns) != data.n_dims:
        raise InvalidInputError(
            f"{len(columns)} column specs for {data.n_dims} feature columns"
        )
    los = np.empty(data.n_dims)
    his = np.empty(data.n_dims)
    out_cols: list[ColumnSpec] = []
    for j in range(data.n_dims):
        spec = columns[j] if columns is not None else ColumnSpec(index=j, name=f"f{j}")
        # One strided pass per column and bound.  numpy reduces
        # pts.min(axis=0) of a narrow C-order matrix row by row, which is
        # slower for the few columns a CSV preset reads.
        col_min = float(pts[:, j].min())
        col_max = float(pts[:, j].max())
        lo = spec.lo if spec.lo is not None else col_min
        hi = spec.hi if spec.hi is not None else col_max
        if not math.isfinite(hi - lo):
            raise InvalidInputError(
                f"column {spec.name!r} has range [{lo}, {hi}], wider than "
                "a float64 can hold"
            )
        if col_min < lo or col_max > hi:
            raise InvalidInputError(
                f"column {spec.name!r} has values outside its preset "
                f"range [{lo}, {hi}]"
            )
        los[j], his[j] = lo, hi
        out_cols.append(replace(spec, lo=lo, hi=hi))

    span = his - los  # never negative: every range has lo <= hi
    scaled = pts - los
    scaled /= np.where(span > 0.0, span, 1.0)
    # Degenerate (constant) columns carry no information; park them at the
    # middle of the range so sensitivity bounds stay valid.
    scaled[:, span == 0.0] = 0.5
    np.clip(scaled, 0.0, 1.0, out=scaled)  # guard the exact endpoints
    scaled.setflags(write=False)
    return (
        Dataset(points=scaled, normalized=True, source_label=data.source_label),
        out_cols,
    )


# ---------------------------------------------------------------------------
# Reference dataset presets
# ---------------------------------------------------------------------------

#: Blood transfusion donor records: 4 numeric features, label in column 4.
BLOOD_COLUMNS = [
    ColumnSpec(index=0, name="recency_months"),
    ColumnSpec(index=1, name="frequency_times"),
    ColumnSpec(index=2, name="monetary_cc"),
    ColumnSpec(index=3, name="time_months"),
]
BLOOD_DEFAULT_K = 2

#: Census income records: the 6 numeric columns of the usual 15-column layout.
ADULT_COLUMNS = [
    ColumnSpec(index=0, name="age"),
    ColumnSpec(index=2, name="fnlwgt"),
    ColumnSpec(index=4, name="education_num"),
    ColumnSpec(index=10, name="capital_gain"),
    ColumnSpec(index=11, name="capital_loss"),
    ColumnSpec(index=12, name="hours_per_week"),
]
ADULT_DEFAULT_K = 5

PRESETS: dict[str, tuple[list[ColumnSpec], int, bool]] = {
    # name -> (columns, default k, has_header)
    "blood": (BLOOD_COLUMNS, BLOOD_DEFAULT_K, True),
    "adult": (ADULT_COLUMNS, ADULT_DEFAULT_K, False),
}


#: Values per chunk of the centers ``synthetic_blobs`` gathers at once (2 MB).
_CHUNK_VALUES = 2**18


def synthetic_blobs(
    n_rows: int,
    n_dims: int,
    n_centers: int,
    seed: int,
    *,
    spread: float = 0.06,
    weights: list[float] | None = None,
) -> Dataset:
    """Gaussian blobs in the unit cube, already normalized.

    Centers are drawn uniformly from [0.15, 0.85]^d so that points, after
    adding isotropic Gaussian jitter of the given spread and clipping to
    [0, 1], rarely pile up on the cube boundary.  ``weights`` skews how
    many rows each blob receives (default: even split).
    """
    n_rows, n_dims = as_int(n_rows, "n_rows"), as_int(n_dims, "n_dims")
    n_centers, seed = as_int(n_centers, "n_centers"), as_int(seed, "seed")
    if n_rows < 1 or n_dims < 1 or n_centers < 1:
        raise InvalidInputError("n_rows, n_dims, n_centers must all be >= 1")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    # Chained comparisons are false for NaN, so these also refuse NaN and inf.
    if not 0.0 <= spread < math.inf:
        raise InvalidInputError(f"spread must be >= 0 and finite, got {spread}")
    if weights is not None and (
        len(weights) != n_centers or not all(0.0 < w < math.inf for w in weights)
    ):
        raise InvalidInputError("weights must be positive, one per center")
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = 0.15 + 0.7 * rng.random((n_centers, n_dims))
    if weights is None:
        probs = np.full(n_centers, 1.0 / n_centers)
    else:
        probs = np.asarray(weights, dtype=np.float64)
        with np.errstate(over="ignore"):
            total = probs.sum()
        if not math.isfinite(total):
            raise InvalidInputError(f"weights must have a finite sum, got {total}")
        probs = probs / total
    owner = rng.choice(n_centers, size=n_rows, p=probs)
    # The rows are built inside the draw: spread * z + center is the same
    # double as center + spread * z, and only one chunk of centers is
    # gathered at a time.
    points = rng.standard_normal((n_rows, n_dims))
    points *= spread
    step = max(1, _CHUNK_VALUES // n_dims)
    for start in range(0, n_rows, step):
        points[start : start + step] += centers[owner[start : start + step]]
    np.clip(points, 0.0, 1.0, out=points)
    points.setflags(write=False)
    return Dataset(
        points=points,
        normalized=True,
        source_label=f"blobs(n={n_rows},d={n_dims},c={n_centers},seed={seed})",
    )

import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpkmeans.core import Dataset, InvalidInputError
from dpkmeans.ingestion import (
    ADULT_COLUMNS,
    ADULT_DEFAULT_K,
    BLOOD_COLUMNS,
    BLOOD_DEFAULT_K,
    PRESETS,
    ColumnSpec,
    CsvFormatError,
    LoadResult,
    load_csv,
    normalize,
    synthetic_blobs,
)

BLOOD_SAMPLE = """\
2,50,12500,98,1
0,13,3250,28,1
1,16,4000,35,1
2,20,5000,45,1
1,24,6000,77,0
4,4,1000,4,0
"""

# Same column layout as the 15-column census extract: six numeric columns
# interleaved with categorical ones.
ADULT_SAMPLE = (
    "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical,"
    " Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K\n"
    "50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse,"
    " Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, <=50K\n"
    "38, Private, 215646, HS-grad, 9, Divorced, Handlers-cleaners,"
    " Not-in-family, White, Male, 0, 0, 40, United-States, <=50K\n"
)

ADULT_MISSING_ROW = (
    "?, Private, 101320, Assoc-acdm, 12, Married-civ-spouse, ?, Wife,"
    " White, Female, 0, 1902, 40, United-States, >50K\n"
)


def reference_load_csv(path, columns, *, has_header=False):
    """The per-field loop ``load_csv`` replaced, kept as the reference."""
    if not columns:
        raise InvalidInputError("need at least one feature column")
    seen = set()
    for col in columns:
        if col.index in seen:
            raise InvalidInputError(f"column index {col.index} is given more than once")
        seen.add(col.index)
    max_index = max(c.index for c in columns)

    rows: list[list[float]] = []
    rows_read = 0
    rows_dropped = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_no, record in enumerate(reader, start=1):
            if has_header and line_no == 1:
                continue
            if not record or (len(record) == 1 and not record[0].strip()):
                continue  # blank line
            rows_read += 1
            if len(record) <= max_index:
                raise CsvFormatError(
                    f"{path}:{line_no}: expected at least {max_index + 1} "
                    f"columns, got {len(record)}"
                )
            values = []
            missing = False
            for col in columns:
                token = record[col.index].strip()
                if token == "?":
                    missing = True
                    break
                try:
                    values.append(float(token))
                except ValueError as exc:
                    raise CsvFormatError(
                        f"{path}:{line_no}: column {col.name!r} has "
                        f"non-numeric value {token!r}"
                    ) from exc
            if missing:
                rows_dropped += 1
                continue
            rows.append(values)

    if not rows:
        raise CsvFormatError(f"{path}: no usable data rows")
    data = Dataset(
        points=np.asarray(rows, dtype=np.float64),
        normalized=False,
        source_label=path,
    )
    return LoadResult(
        data=data, columns=list(columns), rows_read=rows_read, rows_dropped=rows_dropped
    )


def _outcome(load, path, columns, has_header):
    """What a loader makes of a file: its matrix and counts, or its error."""
    try:
        result = load(path, columns, has_header=has_header)
    except InvalidInputError as exc:
        return type(exc), str(exc)
    points = result.data.points
    return points.shape, points.tobytes(), result.rows_read, result.rows_dropped


_PAD = st.sampled_from(["", " ", "\t", "  ", " \t"])
_DIGITS = st.text("0123456789", min_size=1, max_size=40)
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.builds(
        lambda sign, whole, frac, exp: f"{sign}{whole}.{frac}e{exp}",
        st.sampled_from(["", "+", "-"]),
        _DIGITS,
        _DIGITS,
        st.integers(-330, 310),
    ),
    st.sampled_from(["+1", "1.", ".5", "1E+05", "-0", "5e-324", "1e400", "inf", "nan"]),
)
_PADDED_NUMBER = st.tuples(_PAD, _NUMBER, _PAD).map("".join)
_FIELD = st.one_of(
    *[_PADDED_NUMBER] * 16,
    _NUMBER.map(lambda token: f'"{token}"'),
    st.tuples(_PAD, st.sampled_from(["?", '"?"']), _PAD).map("".join),
    st.sampled_from(["", "x", "1.2.3", "--1", "1 2", '1"2', '"1"2', '"1,5"', "? x"]),
)
_BLANK = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def _csv_files(draw):
    """A CSV text, the feature columns to read and whether it has a header."""
    n_cols = draw(st.integers(1, 5))
    full_row = st.lists(_FIELD, min_size=n_cols, max_size=n_cols)
    any_row = st.lists(_FIELD, min_size=1, max_size=n_cols)
    rows = st.one_of(*[full_row] * 12, any_row).map(",".join)
    lines = draw(st.lists(st.one_of(rows, rows, rows, _BLANK), min_size=1, max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    indices = draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=4))
    columns = [ColumnSpec(index=i, name=f"c{j}") for j, i in enumerate(indices)]
    return text, columns, draw(st.booleans())


@pytest.fixture(scope="module")
def case_csv(tmp_path_factory):
    return str(tmp_path_factory.mktemp("differential") / "case.csv")


@pytest.fixture
def blood_csv(tmp_path):
    path = tmp_path / "blood.csv"
    path.write_text(BLOOD_SAMPLE)
    return str(path)


class TestLoadCsv:
    def test_blood_layout(self, blood_csv):
        result = load_csv(blood_csv, BLOOD_COLUMNS)
        assert result.data.n_rows == 6
        assert result.data.n_dims == 4
        assert result.rows_read == 6
        assert result.rows_dropped == 0
        assert result.data.points[0].tolist() == [2.0, 50.0, 12500.0, 98.0]
        assert not result.data.normalized

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c,d,label\n" + BLOOD_SAMPLE)
        result = load_csv(str(path), BLOOD_COLUMNS, has_header=True)
        assert result.data.n_rows == 6

    def test_adult_layout_picks_numeric_columns(self, tmp_path):
        path = tmp_path / "adult.csv"
        path.write_text(ADULT_SAMPLE)
        result = load_csv(str(path), ADULT_COLUMNS)
        assert result.data.n_dims == 6
        assert result.data.points[0].tolist() == [
            39.0,
            77516.0,
            13.0,
            2174.0,
            0.0,
            40.0,
        ]

    def test_missing_token_rows_dropped_and_counted(self, tmp_path):
        path = tmp_path / "adult.csv"
        path.write_text(ADULT_SAMPLE + ADULT_MISSING_ROW)
        result = load_csv(str(path), ADULT_COLUMNS)
        assert result.data.n_rows == 3
        assert result.rows_read == 4
        assert result.rows_dropped == 1

    def test_non_numeric_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3,4,x\n1,oops,3,4,x\n")
        with pytest.raises(CsvFormatError, match=r"bad\.csv:2.*'oops'"):
            load_csv(str(path), BLOOD_COLUMNS)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("1,2\n")
        with pytest.raises(CsvFormatError, match="expected at least"):
            load_csv(str(path), BLOOD_COLUMNS)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("1,2,3,4,0\n\n5,6,7,8,1\n\n")
        result = load_csv(str(path), BLOOD_COLUMNS)
        assert result.data.n_rows == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="no usable data rows"):
            load_csv(str(path), BLOOD_COLUMNS)

    def test_ignore_columns_never_parsed(self, tmp_path):
        path = tmp_path / "mix.csv"
        path.write_text("1.5,junk,2.5\n")
        cols = [ColumnSpec(index=0, name="a"), ColumnSpec(index=2, name="b")]
        result = load_csv(str(path), cols)
        assert result.data.points[0].tolist() == [1.5, 2.5]

    def test_repeated_column_index_refused(self, tmp_path):
        # Column 2 twice used to load as two identical features.
        path = tmp_path / "twice.csv"
        path.write_text("1.5,2,2.5\n")
        cols = [ColumnSpec(2, "a"), ColumnSpec(0, "b"), ColumnSpec(2, "c")]
        with pytest.raises(InvalidInputError, match="column index 2 is given more") as info:
            load_csv(str(path), cols)
        assert not isinstance(info.value, CsvFormatError)


class TestLoadCsvAgainstReference:
    """``load_csv`` reads every file as the per-field loop did."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=_csv_files())
    def test_same_matrix_counts_or_error(self, case_csv, case):
        text, columns, has_header = case
        with open(case_csv, "w", newline="") as fh:
            fh.write(text)
        expected = _outcome(reference_load_csv, case_csv, columns, has_header)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(load_csv, case_csv, columns, has_header)
        assert got == expected

    @pytest.mark.parametrize(
        "text",
        [
            "1,2,3,4,0\n1,2,3,4,1\n",
            "1,2,3,4,0\r\n\r\n 5 ,\t6,\"7\",+8e0,?\r\n",
            "?,2,3,4,0\n1,2,3,4,?\n",
            "1,2,3,4\n",
            "1,2,3,4,0\n1,2,x,?,0\n",
            "1,x,3,?,0\n",
            "1,?,x,4,0\n1,2,3,4,0\n",
            "1,2,3,4,?\n",
            "a,b,c,d,is it?\n1,2,3,4,0\n",
        ],
    )
    def test_fixed_files(self, tmp_path, text):
        path = tmp_path / "fixed.csv"
        path.write_text(text, newline="")
        for has_header in (False, True):
            assert _outcome(load_csv, str(path), BLOOD_COLUMNS, has_header) == (
                _outcome(reference_load_csv, str(path), BLOOD_COLUMNS, has_header)
            )


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as spreadsheet exports write, is skipped."""

    BOM = b"\xef\xbb\xbf"

    def test_bom_led_adult_file_loads_as_without_it(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(ADULT_SAMPLE.encode())
        marked.write_bytes(self.BOM + ADULT_SAMPLE.encode())
        want = load_csv(str(plain), ADULT_COLUMNS)
        got = load_csv(str(marked), ADULT_COLUMNS)
        assert got.data.points.tobytes() == want.data.points.tobytes()
        assert (got.rows_read, got.rows_dropped) == (want.rows_read, want.rows_dropped)

    def test_bad_value_keeps_its_line_number(self, tmp_path):
        # The bulk parse refuses the file, so the rescan, which rereads it
        # from the start, must skip the mark too.
        path = tmp_path / "bad.csv"
        lines = ADULT_SAMPLE.splitlines(keepends=True)
        lines[2] = lines[2].replace("38,", "3x8,", 1)
        path.write_bytes(self.BOM + "".join(lines).encode())
        with pytest.raises(
            CsvFormatError, match=r"bad\.csv:3: column 'age' has non-numeric value '3x8'"
        ):
            load_csv(str(path), ADULT_COLUMNS)

    def test_bom_led_blood_file_with_header(self, tmp_path, blood_csv):
        path = tmp_path / "header.csv"
        path.write_bytes(self.BOM + b"a,b,c,d,label\n" + BLOOD_SAMPLE.encode())
        got = load_csv(str(path), BLOOD_COLUMNS, has_header=True)
        want = load_csv(blood_csv, BLOOD_COLUMNS)
        assert got.data.points.tobytes() == want.data.points.tobytes()
        assert got.rows_read == want.rows_read == 6


class TestLoadCsvRefusals:
    """Inputs ``float`` and ``csv`` accept but the bulk parser does not read."""

    @pytest.mark.parametrize("label", ["0", "?"])
    @pytest.mark.parametrize("token", ["1_000", "\u0663", "\uff11.5"])
    def test_number_syntax_outside_ascii_decimal(self, tmp_path, token, label):
        path = tmp_path / "syntax.csv"
        path.write_text(f"1,2,3,4,0\n1,{token},3,4,{label}\n", encoding="utf-8")
        assert float(token) > 0  # the old loop read it
        with pytest.raises(
            CsvFormatError,
            match=rf"syntax\.csv:2: column 'frequency_times' has value '{token}' "
            r"with non-ASCII characters or '_' digit groups",
        ):
            load_csv(str(path), BLOOD_COLUMNS)

    def test_quoted_field_spanning_lines(self, tmp_path):
        path = tmp_path / "span.csv"
        path.write_text('1,2,3,4,0\n1,2,3,4,"yes\nno"\n5,6,7,8,1\n')
        with pytest.raises(CsvFormatError, match=r"span\.csv:2: quoted field spans lines"):
            load_csv(str(path), BLOOD_COLUMNS)

    def test_quoted_header_spanning_lines(self, tmp_path):
        path = tmp_path / "span.csv"
        path.write_text('a,b,c,d,"label\nname"\n1,2,3,4,0\n')
        with pytest.raises(CsvFormatError, match=r"span\.csv:1: quoted field spans lines"):
            load_csv(str(path), BLOOD_COLUMNS, has_header=True)

    @pytest.mark.parametrize("rows_before", [1, 3000])
    def test_bytes_that_are_not_utf8(self, tmp_path, rows_before):
        # 3000 rows put the bad byte past the first read, so the bulk parse
        # meets it and the rescan raises.
        path = tmp_path / "latin.csv"
        lines = [b"a,b,c,d,e"] + [b"1,2,3,4,0"] * rows_before + [b"5,6,7,8,\xff", b"1,2,3,4,1"]
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        with pytest.raises(CsvFormatError, match=rf"latin\.csv:{rows_before + 2}: not UTF-8"):
            load_csv(str(path), BLOOD_COLUMNS, has_header=True)

    @pytest.mark.parametrize(
        "text", ["", "\n \n", "a,b,c,d,e\n", "?,2,3,4,0\n1,2,?,4,1\n"]
    )
    def test_no_kept_row_raises_without_warning(self, tmp_path, text):
        path = tmp_path / "none.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match="no usable data rows"):
                load_csv(str(path), BLOOD_COLUMNS, has_header=text.startswith("a"))


class TestQuotedLines:
    """A quoted line's feature fields are checked in Python only when it is
    short or holds ``?`` in one, as an unquoted line's are: the bulk parse
    reads them, and its rescan names a refused line."""

    TEXT = ADULT_SAMPLE + ADULT_MISSING_ROW + ADULT_SAMPLE

    @staticmethod
    def _quote_every_field(text):
        return "".join(
            ",".join(f'"{field}"' for field in line.split(",")) + "\n"
            for line in text.splitlines()
        )

    @staticmethod
    def _quote_label(text):
        return "".join(
            '{},"{}, census"\n'.format(*line.rsplit(",", 1)) for line in text.splitlines()
        )

    def _outcomes(self, tmp_path, text):
        """What ``load_csv`` makes of ``text`` unquoted and in both quotings."""
        got = []
        for name, quote in [
            ("plain", str),
            ("every", self._quote_every_field),
            ("label", self._quote_label),
        ]:
            path = tmp_path / f"{name}.csv"
            path.write_text(quote(text))
            outcome = _outcome(load_csv, str(path), ADULT_COLUMNS, False)
            got.append(tuple(
                part.replace(str(path), "F") if isinstance(part, str) else part
                for part in outcome
            ))
        return got

    def test_same_matrix_and_counts_as_unquoted(self, tmp_path):
        plain, every, label = self._outcomes(tmp_path, self.TEXT)
        assert plain[0] == (6, 6) and plain[3] == 1
        assert every == plain and label == plain

    @pytest.mark.parametrize(
        "line_no,old,new,message",
        [
            (3, " 215646,", " 21x646,", "F:3: column 'fnlwgt' has non-numeric value '21x646'"),
            (6, "50,", "5_0,", "F:6: column 'age' has value '5_0' with non-ASCII"),
            (7, ", 0, 0, 40,", ",", "F:7: expected at least 13 columns, got 12"),
            (5, " 13,", " ,", "F:5: column 'education_num' has non-numeric value ''"),
        ],
        ids=["non-numeric", "digit-group", "short", "empty"],
    )
    def test_same_error_line_as_unquoted(self, tmp_path, line_no, old, new, message):
        lines = self.TEXT.splitlines(keepends=True)
        assert old in lines[line_no - 1]
        lines[line_no - 1] = lines[line_no - 1].replace(old, new, 1)
        plain, every, label = self._outcomes(tmp_path, "".join(lines))
        assert plain[0] is CsvFormatError and plain[1].startswith(message)
        assert every == plain and label == plain


class TestNormalize:
    def test_simple_column(self):
        data = Dataset(points=np.array([[2.0], [4.0], [6.0]]))
        out, cols = normalize(data)
        assert out.points[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert out.normalized
        assert cols[0].lo == 2.0 and cols[0].hi == 6.0

    def test_constant_column_parks_at_half(self):
        data = Dataset(points=np.array([[3.0, 1.0], [3.0, 2.0]]))
        out, _ = normalize(data)
        assert out.points[:, 0].tolist() == [0.5, 0.5]
        assert out.points[:, 1].tolist() == [0.0, 1.0]

    def test_preset_ranges_honored(self):
        data = Dataset(points=np.array([[5.0], [10.0]]))
        cols = [ColumnSpec(index=0, name="x", lo=0.0, hi=20.0)]
        out, out_cols = normalize(data, cols)
        assert out.points[:, 0].tolist() == [0.25, 0.5]
        assert out_cols[0].lo == 0.0 and out_cols[0].hi == 20.0

    def test_preset_range_violation_rejected(self):
        data = Dataset(points=np.array([[5.0], [25.0]]))
        cols = [ColumnSpec(index=0, name="x", lo=0.0, hi=20.0)]
        with pytest.raises(InvalidInputError, match="outside its preset"):
            normalize(data, cols)

    def test_idempotent_on_normalized_range(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.25, 0.75]])
        out, _ = normalize(Dataset(points=pts))
        assert np.array_equal(out.points, pts)

    @pytest.mark.parametrize(
        "lo,hi",
        [(float("nan"), float("nan")), (0.0, float("nan")), (0.0, float("inf"))],
        ids=["nan-nan", "zero-nan", "zero-inf"],
    )
    def test_non_finite_preset_range_refused(self, lo, hi):
        # Each passed hi < lo and mapped the column to all 0.5 or all 0.0.
        with pytest.raises(InvalidInputError, match="must be finite"):
            ColumnSpec(index=0, name="x", lo=lo, hi=hi)

    @pytest.mark.parametrize("index", [1.5, True], ids=["float", "bool"])
    def test_non_integer_column_index_refused(self, index):
        # 1.5 raised numpy's TypeError from loadtxt; True read column 1.
        with pytest.raises(InvalidInputError, match="column index must be an integer"):
            ColumnSpec(index=index, name="x")

    def test_numpy_integer_column_index_is_stored_as_int(self):
        spec = ColumnSpec(index=np.int64(2), name="x")
        assert spec.index == 2 and type(spec.index) is int

    @pytest.mark.parametrize("preset", [False, True], ids=["observed", "preset"])
    def test_range_wider_than_float64_refused(self, preset):
        # Its span overflowed to inf, which warned three times and then
        # failed as "points contains NaN or infinite values".
        points = [[1.0, 0.0], [2.0, 5.0]] if preset else [[1.0, -1e308], [2.0, 1e308]]
        wide = ColumnSpec(index=1, name="b", lo=-1e308, hi=1e308) if preset else (
            ColumnSpec(index=1, name="b")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                InvalidInputError, match=r"column 'b' has range \[-1e\+308, 1e\+308\]"
            ):
                normalize(Dataset(points=np.array(points)), [ColumnSpec(0, "a"), wide])

    def test_spec_count_mismatch_rejected(self):
        data = Dataset(points=np.array([[1.0, 2.0]]))
        with pytest.raises(InvalidInputError):
            normalize(data, [ColumnSpec(index=0, name="only")])

    def test_full_pipeline_from_csv(self, blood_csv):
        result = load_csv(blood_csv, BLOOD_COLUMNS)
        data, cols = normalize(result.data, result.columns)
        assert np.all(data.points >= 0.0) and np.all(data.points <= 1.0)
        assert data.points[:, 0].min() == 0.0 and data.points[:, 0].max() == 1.0
        los = np.array([c.lo for c in cols])
        his = np.array([c.hi for c in cols])
        raw_again = data.points * (his - los) + los
        assert raw_again == pytest.approx(result.data.points, abs=1e-9)


class TestPresets:
    def test_blood_preset(self):
        cols, k, has_header = PRESETS["blood"]
        assert cols is BLOOD_COLUMNS
        assert k == BLOOD_DEFAULT_K == 2
        assert len(cols) == 4

    def test_adult_preset(self):
        cols, k, _ = PRESETS["adult"]
        assert cols is ADULT_COLUMNS
        assert k == ADULT_DEFAULT_K == 5
        assert [c.index for c in cols] == [0, 2, 4, 10, 11, 12]


class TestSyntheticBlobs:
    @pytest.mark.parametrize("field", ["n_rows", "n_dims", "n_centers", "seed"])
    def test_counts_must_be_integers(self, field):
        # n_rows=300.0, seed=1.5 and n_dims=True used to raise TypeError.
        kwargs = dict(n_rows=300, n_dims=2, n_centers=2, seed=1)
        for value in [2.5, 2.0, True, False, "2"]:
            with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
                synthetic_blobs(**{**kwargs, field: value})
        got = synthetic_blobs(**{**kwargs, field: np.int64(kwargs[field])})
        want = synthetic_blobs(**kwargs)
        assert np.array_equal(got.points, want.points)
        assert got.source_label == want.source_label

    def test_shape_and_bounds(self):
        data = synthetic_blobs(500, 4, 3, seed=0)
        assert data.n_rows == 500
        assert data.n_dims == 4
        assert data.normalized
        assert np.all(data.points >= 0.0) and np.all(data.points <= 1.0)

    def test_deterministic_per_seed(self):
        a = synthetic_blobs(200, 3, 2, seed=7)
        b = synthetic_blobs(200, 3, 2, seed=7)
        c = synthetic_blobs(200, 3, 2, seed=8)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_weights_shape_cluster_sizes(self):
        from dpkmeans.engine import EngineConfig, Variant, run_baseline

        data = synthetic_blobs(2000, 2, 2, seed=1, weights=[0.9, 0.1])
        cfg = EngineConfig(variant=Variant.NONPRIVATE)
        _, labels, _ = run_baseline(data, 2, None, cfg)
        counts = np.bincount(labels.labels, minlength=2)
        assert counts.max() / 2000 == pytest.approx(0.9, abs=0.05)

    def test_source_label_mentions_parameters(self):
        data = synthetic_blobs(100, 2, 2, seed=3)
        assert "n=100" in data.source_label
        assert "seed=3" in data.source_label

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            synthetic_blobs(0, 2, 2, seed=0)
        with pytest.raises(InvalidInputError):
            synthetic_blobs(10, 0, 2, seed=0)
        with pytest.raises(InvalidInputError):
            synthetic_blobs(10, 2, 0, seed=0)
        with pytest.raises(InvalidInputError):
            synthetic_blobs(10, 2, 2, seed=0, weights=[1.0])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_weight_refused(self, weight):
        # Each raised numpy's "Probabilities contain NaN" from choice.
        with pytest.raises(InvalidInputError, match="weights must be positive, one per center"):
            synthetic_blobs(10, 2, 2, seed=0, weights=[weight, 1.0])

    def test_weights_whose_sum_overflows_refused(self):
        # Each weight is finite; their sum raised numpy's "Probabilities do
        # not sum to 1" from choice.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="weights must have a finite sum"):
                synthetic_blobs(10, 2, 2, seed=0, weights=[1e308, 1e308])

    @pytest.mark.parametrize(
        "shape,kwargs",
        [
            ((748, 4, 2, 11), dict(weights=[0.6122, 0.3878])),
            ((400, 3, 3, 5), {}),
            ((500, 5, 4, 3), dict(spread=0.0)),
            ((40_000, 16, 20, 9), {}),  # three chunks, the last one short
        ],
    )
    def test_rows_equal_the_one_shot_formula(self, shape, kwargs):
        n_rows, n_dims, n_centers, seed = shape
        rng = np.random.Generator(np.random.PCG64(seed))
        centers = 0.15 + 0.7 * rng.random((n_centers, n_dims))
        weights = np.asarray(kwargs.get("weights", np.ones(n_centers)), dtype=np.float64)
        owner = rng.choice(n_centers, size=n_rows, p=weights / weights.sum())
        noise = rng.standard_normal((n_rows, n_dims))
        want = np.clip(centers[owner] + kwargs.get("spread", 0.06) * noise, 0.0, 1.0)
        got = synthetic_blobs(*shape, **kwargs).points
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spread", [float("inf"), float("nan"), -0.1])
    def test_spread_must_be_finite_and_non_negative(self, spread):
        # An infinite spread returned the cube's corners, clipped.
        with pytest.raises(InvalidInputError, match="spread must be >= 0 and finite"):
            synthetic_blobs(10, 2, 2, seed=0, spread=spread)

    def test_zero_spread_puts_every_row_on_its_center(self):
        data = synthetic_blobs(50, 2, 2, seed=0, spread=0.0)
        assert len(np.unique(data.points, axis=0)) <= 2


def _traced_peak(make):
    """``make()`` and the most bytes that tracemalloc saw alive during it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        made = make()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return made, peak


@pytest.fixture(scope="module")
def adult_layout_csv(tmp_path_factory):
    """A 48,842-row file in the Adult layout, as large as the real one."""
    numeric = np.random.Generator(np.random.PCG64(0)).integers(0, 100_000, (48_842, 6))
    row = (
        "{}, Private, {}, Bachelors, {}, Never-married, Adm-clerical,"
        " Not-in-family, White, Male, {}, {}, {}, United-States, <=50K\n"
    )
    path = tmp_path_factory.mktemp("adult") / "adult.csv"
    path.write_text("".join(row.format(*values) for values in numeric.tolist()))
    return str(path)


class TestSetUpMemory:
    """Set-up keeps one full-size array: the traced peak of each loader, over
    the size of the matrix it returns, stays near 1."""

    def test_synthetic_blobs(self):
        # Three full-size arrays (2.06x) when the rows were built apart
        # from the draw and copied into the dataset.
        data, peak = _traced_peak(lambda: synthetic_blobs(200_000, 16, 20, seed=0))
        assert peak <= 1.25 * data.points.nbytes

    def test_load_csv(self, adult_layout_csv):
        # 2.01x when the dataset copied the parsed matrix.
        loaded, peak = _traced_peak(lambda: load_csv(adult_layout_csv, ADULT_COLUMNS))
        assert peak <= 1.5 * loaded.data.points.nbytes

    def test_load_csv_then_normalize(self, adult_layout_csv):
        # 3.01x when both datasets copied their matrix.
        (data, _), peak = _traced_peak(
            lambda: normalize(load_csv(adult_layout_csv, ADULT_COLUMNS).data, ADULT_COLUMNS)
        )
        assert peak <= 2.25 * data.points.nbytes

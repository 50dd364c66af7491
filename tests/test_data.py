import csv
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scorekit import data as data_module
from scorekit.data import (
    CATEGORICAL,
    NUMERIC,
    Dataset,
    DummyEncoder,
    Feature,
    MeanImputer,
    _parse_float,
    load_csv,
    load_splits,
    save_splits,
    temporal_split,
    write_csv,
)
from scorekit.synth import make_credit_data, schema_for
from scorekit.errors import (
    BadTarget,
    EmptyFile,
    EmptyPartition,
    MalformedCsv,
    MissingColumn,
    UnknownColumn,
)

from conftest import numeric_dataset


@pytest.fixture
def csv_file(tmp_path):
    def make(text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path
    return make


class TestLoadCsv:
    def test_three_row_parse(self, csv_file):
        path = csv_file("a,def\n1.5,0\n2.5,1\n3.5,0\n")
        d = load_csv(path, {"a": NUMERIC}, target="def")
        assert d.n_rows == 3
        assert d.target.tolist() == [0, 1, 0]
        assert d.feature("a").values.tolist() == [1.5, 2.5, 3.5]

    def test_bad_target_value(self, csv_file):
        path = csv_file("a,def\n1,0\n2,2\n")
        with pytest.raises(BadTarget):
            load_csv(path, {"a": NUMERIC}, target="def")

    def test_missing_token_becomes_missing(self, csv_file):
        path = csv_file("a,def\n1,0\nNA,1\n3,0\n")
        d = load_csv(path, {"a": NUMERIC}, target="def", missing_token="NA")
        assert np.isnan(d.feature("a").values[1])

    def test_unparseable_numeric_becomes_missing(self, csv_file):
        path = csv_file("a,def\n1,0\noops,1\n")
        d = load_csv(path, {"a": NUMERIC}, target="def")
        assert np.isnan(d.feature("a").values[1])

    def test_missing_column(self, csv_file):
        path = csv_file("a,def\n1,0\n")
        with pytest.raises(MissingColumn):
            load_csv(path, {"b": NUMERIC}, target="def")

    def test_empty_file(self, csv_file):
        with pytest.raises(EmptyFile):
            load_csv(csv_file(""), {"a": NUMERIC}, target="def")
        with pytest.raises(EmptyFile):
            load_csv(csv_file("a,def\n"), {"a": NUMERIC}, target="def")

    def test_categorical_and_date(self, csv_file):
        path = csv_file("a,c,def,when\n1,x,0,2018-01-02\n2,,1,2018-05-09\n")
        d = load_csv(path, {"a": NUMERIC, "c": CATEGORICAL}, target="def", date_col="when")
        assert d.feature("c").values[1] is None
        assert d.obs_date[0] == np.datetime64("2018-01-02")

    def test_target_optional(self, csv_file):
        path = csv_file("a\n1\n2\n")
        d = load_csv(path, {"a": NUMERIC}, target="def", target_optional=True)
        assert d.target.tolist() == [0, 0]

    def test_error_precedence(self, csv_file):
        # no data rows outranks a missing column; BadTarget names the 0-based row
        with pytest.raises(EmptyFile):
            load_csv(csv_file("b,def\n"), {"a": NUMERIC}, target="def")
        with pytest.raises(BadTarget, match=r"^row 1: target '2 '"):
            load_csv(csv_file("a,def\n1,0\n2,2 \n"), {"a": NUMERIC}, target="def")

    @pytest.mark.parametrize("text, line", [
        ("a,def\n1,0\n2\n", 3),            # short row
        ("a,def\n1,0\n2,1,9\n", 3),        # long row
        ("a,def\n1,0\n\n2,1\n", 3),        # blank line
        ('a,def\n"1\n",0\n2\n', 4),         # quoted newline: line, not row
    ], ids=["short", "long", "blank", "quoted_newline"])
    def test_wrong_cell_count_is_malformed(self, csv_file, text, line):
        with pytest.raises(MalformedCsv, match=r"data\.csv line %d: " % line):
            load_csv(csv_file(text), {"a": NUMERIC}, target="def")

    @pytest.mark.parametrize("text", [
        "a,def,when\n1,0,2018-01-02\n2,1,2018-13-45\n",
        'a,def,when\n"1\n",0,2018-01-02\n2,1,soon\n',  # 0-based row, not line
        "a,def,when\n1,0,2018-01-02\n2,1,\n",
        "a,def,when\n1,0,2018-01-02\n2,1,NaT\n",
        "a,def,when\n1,0,2018-01-02\n2,1,today\n",  # the day of the run
        "a,def,when\n1,0,2018-01-02\n2,1,NOW\n",
    ], ids=["invalid_day", "quoted_newline", "blank", "nat", "today", "now"])
    def test_bad_date_is_malformed(self, csv_file, text):
        with pytest.raises(MalformedCsv, match=r"data\.csv row 1: date "):
            load_csv(csv_file(text), {"a": NUMERIC}, target="def", date_col="when")

    def test_byte_not_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,def\n1,0\n2,1\ncaf\xe9,0\n3,1\n")  # a Latin-1 e-acute
        with pytest.raises(MalformedCsv, match=r"data\.csv line 4: byte 0xe9 is not UTF-8"):
            load_csv(path, {"a": NUMERIC}, target="def")

    @pytest.mark.parametrize("column", ["a", "unused"])
    def test_cell_over_field_limit_is_malformed(self, csv_file, column):
        limit = csv.field_size_limit()
        cells = {"a": "2", "unused": "y"}
        cells[column] = "1" + "0" * limit  # a number, one character over the limit
        path = csv_file("a,unused,def\n1,x,0\n%(a)s,%(unused)s,1\n" % cells)
        with pytest.raises(MalformedCsv, match=r"data\.csv line 3: field larger than field "
                                               r"limit \(%d\)" % limit):
            load_csv(path, {"a": NUMERIC}, target="def")
        at_limit = csv_file("a,def\n%s,1\n" % ("0" * (limit - 1) + "1"), "at_limit.csv")
        assert load_csv(at_limit, {"a": NUMERIC}, target="def").feature("a").values[0] == 1.0

    def test_columns_parses_only_named_schema_columns(self, csv_file):
        path = csv_file("a,b,c,def\n1,x,oops,0\n2,y,,1\n")
        schema = {"a": NUMERIC, "b": CATEGORICAL, "c": NUMERIC}
        d = load_csv(path, schema, target="def", columns=["c", "a", "not_in_schema"])
        assert d.feature_names == ["a", "c"]  # schema order
        assert d.feature("a").values.tolist() == [1.0, 2.0]
        assert np.isnan(d.feature("c").values).all()
        # every declared schema column must still be in the header
        with pytest.raises(MissingColumn):
            load_csv(path, {"a": NUMERIC, "q": NUMERIC}, target="def", columns=["a"])


def reference_load(path, schema, target, missing_token, date_col=None):
    """The per-cell parse that load_csv must reproduce bit for bit: the
    columns, the targets (0 when target is None) and, with date_col, the
    dates."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    index = {name: i for i, name in enumerate(header)}
    columns = {}
    for name, kind in schema.items():
        cells = [r[index[name]] for r in rows]
        if kind == NUMERIC:
            columns[name] = np.array([_parse_float(c, missing_token) for c in cells], dtype=float)
        else:
            columns[name] = [None if c == missing_token or c == "" else c for c in cells]
    targets = [0 if target is None else int(r[index[target]].strip()) for r in rows]
    if date_col is None:
        return columns, targets
    return columns, targets, np.array([r[index[date_col]] for r in rows], dtype="datetime64[D]")


GARBAGE = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
                  max_size=6)
ODD_NUMBERS = st.sampled_from([
    " 1.5", "2.5 ", "\t-3e2\n", "+4", "inf", "-inf", "Infinity", "nan", "-nan",
    "NaN", "1_0", "1e400", ".5", "5.", "0x10", "-0.0",
])
MISSING_TOKENS = st.sampled_from(["", "NA", "-999", "0", "nan", " 1.5"])


@st.composite
def csv_tables(draw):
    token = draw(MISSING_TOKENS)
    cell = st.one_of(st.floats().map(repr), st.just(""), st.just(token),
                     ODD_NUMBERS, GARBAGE)
    n = draw(st.integers(1, 12))
    header = ["x0", "x1", "x2", "cat", "unused", "def"]
    rows = [[draw(cell) for _ in range(3)]
            + [draw(st.one_of(GARBAGE, st.just(token))), draw(GARBAGE),
               draw(st.sampled_from(["0", "1", " 0", "1 "]))]
            for _ in range(n)]
    columns = draw(st.one_of(st.none(), st.lists(st.sampled_from(header), max_size=4)))
    return token, header, rows, columns


SCHEMA = {"x0": NUMERIC, "x1": NUMERIC, "x2": NUMERIC, "cat": CATEGORICAL}


@settings(deadline=None)
@given(table=csv_tables())
def test_load_csv_matches_per_cell_parse(tmp_path_factory, table):
    token, header, rows, columns = table
    path = tmp_path_factory.getbasetemp() / "property.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)
    expected, target = reference_load(path, SCHEMA, "def", token)
    d = load_csv(path, SCHEMA, target="def", missing_token=token, columns=columns)
    assert d.feature_names == [n for n in SCHEMA if columns is None or n in columns]
    assert d.target.tolist() == target
    for f in d.features:
        if f.kind == NUMERIC:
            assert f.values.dtype == np.float64
            assert f.values.tobytes() == expected[f.name].tobytes()
        else:
            assert f.values.tolist() == expected[f.name]


NUMBERS_TEXT = st.one_of(st.floats().map(repr), st.integers(-999, 999).map(str))
DAYS = st.integers(-30000, 30000).map(lambda day: str(np.datetime64(day, "D")))
# what can go wrong in a numeric file, one kind per draw
DAMAGES = {
    "odd_number": ODD_NUMBERS,
    "garbage": GARBAGE,
    "blank": st.just(""),
    "token": None,  # the file's missing_token
    "target": st.sampled_from([" 0", "1 ", "1.0", "2", "0\x00", ""]),
    "date": st.sampled_from(["", "NaT", "today", "Now", "TODAY", " 2018-01-02",
                             "2018-01-02 ", "2018-01-02T23:30", "2018", "2018-13-01"]),
    "quote": None,  # a quoted cell
    "quote_merge": None,  # quotes that join the unused and the target cell
    "short_row": None,
    "long_row": None,
    "blank_line": None,  # in the middle or at the end
    "lone_cr": None,
}


@st.composite
def numeric_csv_files(draw):
    """A numeric CSV with target and date columns, as text, with the
    missing_token, `columns` and target_optional to load it with."""
    token = draw(st.sampled_from(["", "NA", "-999", "nan"]))
    n_features = draw(st.integers(1, 3))
    header = ["x%d" % j for j in range(n_features)] + ["unused", "def", "when"]
    n = draw(st.integers(1, 6))
    rows = [[draw(NUMBERS_TEXT) for _ in range(n_features)]
            + [draw(st.sampled_from(["", "u", "1"])), draw(st.sampled_from(["0", "1"])),
               draw(DAYS)]
            for _ in range(n)]
    ends = ["\n"] * n
    end = draw(st.sampled_from(["\n", "\r\n"]))
    blank_lines = []
    for damage in draw(st.lists(st.sampled_from(sorted(DAMAGES)), max_size=2)):
        r = draw(st.integers(0, n - 1))
        column = {"target": -2, "date": -1}.get(damage, draw(st.integers(0, n_features - 1)))
        if damage == "token":
            rows[r][column] = token
        elif damage == "quote":
            quoted = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][quoted] = '"%s"' % rows[r][quoted]
        elif damage == "quote_merge":
            rows[r][-3:-1] = ['"' + rows[r][-3], rows[r][-2] + '"']
        elif damage == "short_row":
            rows[r].pop()
        elif damage == "long_row":
            rows[r].append("9")
        elif damage == "blank_line":
            blank_lines.append(draw(st.integers(0, n)))
        elif damage == "lone_cr":
            ends[r] = "\r"
        else:
            rows[r][column] = draw(DAMAGES[damage])
    lines = [",".join(row) + (e if e == "\r" else end) for row, e in zip(rows, ends)]
    for at in sorted(blank_lines, reverse=True):
        lines.insert(at, end)
    text = ",".join(header) + end + "".join(lines)
    if draw(st.booleans()):  # no final newline
        text = text[:-len(end)] if text.endswith(end) else text
    columns = draw(st.one_of(st.none(), st.lists(st.sampled_from(header[:n_features]))))
    return text, token, columns, draw(st.booleans())


def load_outcome(load):
    """load()'s Dataset, or the type and text of what it raised."""
    try:
        return load()
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_dataset(d, expected):
    assert d.feature_names == expected.feature_names
    for f, e in zip(d.features, expected.features):
        assert (f.kind, f.values.dtype) == (e.kind, e.values.dtype)
        assert f.values.flags.c_contiguous
        assert f.values.tobytes() == e.values.tobytes()
    assert d.target.dtype == expected.target.dtype
    assert d.target.tobytes() == expected.target.tobytes()
    assert d.obs_date.dtype == expected.obs_date.dtype
    assert d.obs_date.tobytes() == expected.obs_date.tobytes()


HEADER = "x0,unused,def,when"


@settings(deadline=None, max_examples=300)
@given(case=numeric_csv_files())
@example(case=(HEADER + "\r\n1.5,u,0,2018-01-02\r\n2,,1,2018-01-03\r\n", "", None, False))
@example(case=(HEADER + "\r1.5,u,0,2018-01-02\n2,,1,2018-01-03\n", "", None, False))  # lone CR
@example(case=(HEADER + "\n1.5,u,0,2018-01-02\r2,,1,2018-01-03", "", None, False))
@example(case=(HEADER + "\n1.5,u,0,2018-01-02\n\n2,,1,2018-01-03\n", "", None, False))
@example(case=(HEADER + "\r\n1.5,u,0,2018-01-02\r\n\r\n", "", None, False))
@example(case=(HEADER + '\n"1.5",u,0,2018-01-02\n', "", None, False))
@example(case=(HEADER + '\n1.5,"u,0",2018-01-02\n', "", None, True))  # 3 cells, not 4
@example(case=(HEADER + "\n1.5,u,0\n", "", None, False))
@example(case=(HEADER + "\n1.5,u,0,2018-01-02,9\n", "", None, False))
@example(case=(HEADER + "\n-999,u,0,2018-01-02\n", "-999", None, False))
@example(case=(HEADER + "\n1.5,u, 0,2018-01-02\n2,,1 ,2018-01-02\n", "", None, False))
@example(case=(HEADER + "\n1.5,u,1.0,2018-01-02\n", "", None, False))
@example(case=(HEADER + "\n1.5,u,0\x00,2018-01-02\n", "", None, False))
@example(case=(HEADER + "\n1.5,u,0,2018-01-02\n2,u,1,\n", "", None, False))
@example(case=(HEADER + "\n1.5,u,0,NaT\n", "", None, False))
@example(case=(HEADER + "\n1.5,u,0,today\n", "", None, False))
def test_numpy_reader_matches_csv_reader(tmp_path_factory, case):
    text, token, columns, target_optional = case
    path = tmp_path_factory.getbasetemp() / "numeric.csv"
    path.write_bytes(text.encode("utf-8"))
    header = text.replace("\r", "\n").split("\n", 1)[0].split(",")
    schema = {name: NUMERIC for name in header if name.startswith("x")}
    kwargs = dict(target="def", date_col="when", missing_token=token, columns=columns,
                  target_optional=target_optional)
    got = load_outcome(lambda: load_csv(path, schema, **kwargs))
    with mock.patch.object(data_module, "_load_numeric", return_value=None):
        expected = load_outcome(lambda: load_csv(path, schema, **kwargs))
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert_same_dataset(got, expected)
    values, targets, dates = reference_load(path, schema, None if target_optional else "def",
                                            token, "when")
    for f in got.features:
        assert f.values.tobytes() == values[f.name].tobytes()
    assert got.target.tolist() == targets
    assert got.obs_date.tobytes() == dates.tobytes()


def test_bench_shaped_file_takes_the_numpy_path(tmp_path):
    d, _ = make_credit_data(n_rows=300, seed=1)
    path = tmp_path / "bench.csv"
    write_csv(d, path)  # CRLF line ends, as every file scorekit writes
    schema = schema_for(d)
    # a fallback to csv.reader would parse every number with _parse_float
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(data_module, "_parse_float", side_effect=AssertionError):
        full = load_csv(path, schema, target="target", date_col="obs_date")
        scoring = load_csv(path, schema, target="target", target_optional=True,
                           columns=d.feature_names[3:7])
    assert loadtxt.call_count == 2
    assert_same_dataset(full, d)
    assert scoring.feature_names == d.feature_names[3:7]
    for f in scoring.features:
        assert f.values.tobytes() == d.feature(f.name).values.tobytes()
    assert not scoring.target.any()


class TestDatasetInvariants:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Dataset([Feature("a", NUMERIC, np.zeros(2)), Feature("a", NUMERIC, np.zeros(2))],
                    [0, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset([Feature("a", NUMERIC, np.zeros(3))], [0, 1])

    def test_target_outside_01_rejected(self):
        with pytest.raises(BadTarget):
            numeric_dataset({"a": [1, 2]}, [0, 2])

    def test_matrix_ignores_extra_columns(self):
        d = numeric_dataset({"a": [1, 2], "b": [3, 4]}, [0, 1])
        assert d.matrix(["b"]).ravel().tolist() == [3, 4]

    def test_unknown_column(self):
        d = numeric_dataset({"a": [1, 2]}, [0, 1])
        with pytest.raises(UnknownColumn):
            d.feature("zz")

    def test_n_unique(self):
        f = Feature("a", NUMERIC, np.array([1.0, 1.0, 2.0, np.nan]))
        assert f.n_unique == 2


class TestImputeMean:
    def test_fills_with_mean(self):
        d = numeric_dataset({"a": [1.0, np.nan, 3.0]}, [0, 1, 0])
        out = MeanImputer().fit(d).transform(d)
        assert out.feature("a").values.tolist() == [1.0, 2.0, 3.0]

    def test_no_missing_unchanged(self):
        d = numeric_dataset({"a": [1.0, 2.0]}, [0, 1])
        out = MeanImputer().fit(d).transform(d)
        assert out.feature("a").values.tolist() == [1.0, 2.0]

    def test_all_missing_column_dropped_with_warning(self, caplog):
        d = numeric_dataset({"a": [np.nan, np.nan], "b": [1.0, 2.0]}, [0, 1])
        with caplog.at_level(logging.WARNING):
            out = MeanImputer().fit(d).transform(d)
        assert out.feature_names == ["b"]
        assert any("no observed values" in rec.message for rec in caplog.records)

    def test_idempotent(self):
        d = numeric_dataset({"a": [1.0, np.nan, 3.0, np.nan]}, [0, 1, 0, 1])
        once = MeanImputer().fit(d).transform(d)
        twice = MeanImputer().fit(once).transform(once)
        assert once.feature("a").values.tolist() == twice.feature("a").values.tolist()

    def test_train_means_applied_to_heldout(self):
        train = numeric_dataset({"a": [2.0, np.nan, 4.0]}, [0, 1, 0])
        heldout = numeric_dataset({"a": [np.nan, 100.0]}, [0, 1])
        imputer = MeanImputer().fit(train)
        assert imputer.means_ == {"a": 3.0}  # leakage guard: train statistic
        out = imputer.transform(heldout)
        assert out.feature("a").values[0] == 3.0

    def test_categorical_missing_level(self):
        d = Dataset([Feature("c", CATEGORICAL, np.array(["x", None, "y"], dtype=object))],
                    [0, 1, 0])
        out = MeanImputer().fit(d).transform(d)
        assert out.feature("c").values[1] == "MISSING"


class TestDummyEncode:
    def make(self, values, target=None):
        values = np.array(values, dtype=object)
        return Dataset([Feature("c", CATEGORICAL, values)],
                       target if target is not None else [i % 2 for i in range(len(values))])

    def test_most_frequent_is_reference(self):
        d = self.make(["A", "A", "B", "C", "A", "B"])
        out = DummyEncoder(["c"]).fit(d).transform(d)
        assert out.feature_names == ["c=B", "c=C"]
        assert out.feature("c=B").values.tolist() == [0, 0, 1, 0, 0, 1]

    def test_single_level_dropped(self):
        d = self.make(["A", "A", "A", "A"])
        out = DummyEncoder(["c"]).fit(d).transform(d)
        assert out.feature_names == []

    def test_unseen_level_all_zeros(self):
        train = self.make(["A", "A", "B", "B"])
        enc = DummyEncoder(["c"]).fit(train)
        apply = self.make(["D", "B"])
        out = enc.transform(apply)
        # reference tie between A and B breaks by name: A is reference
        assert out.feature("c=B").values.tolist() == [0.0, 1.0]

    def test_round_trip_on_fit_data(self):
        d = self.make(["A", "B", "C", "A", "B", "A"])
        enc = DummyEncoder(["c"]).fit(d)
        first = enc.transform(d).matrix()
        again = enc.transform(d).matrix()
        assert np.array_equal(first, again)

    def test_non_categorical_rejected(self):
        d = numeric_dataset({"a": [1, 2]}, [0, 1])
        with pytest.raises(UnknownColumn):
            DummyEncoder(["a"]).fit(d)


def dated_dataset(n=400, seed=0):
    rng = np.random.default_rng(seed)
    day0 = np.datetime64("2017-10-01")
    dates = day0 + rng.integers(0, 425, size=n).astype("timedelta64[D]")
    return Dataset([Feature("x", NUMERIC, rng.normal(size=n))],
                   rng.integers(0, 2, size=n), dates)


class TestTemporalSplit:
    def test_row_inside_window_goes_oot(self):
        d = Dataset([Feature("x", NUMERIC, np.arange(8.0))],
                    [0, 1, 0, 1, 0, 1, 0, 1],
                    np.array(["2018-01-01", "2018-02-01", "2018-03-01", "2018-04-01",
                              "2018-05-01", "2018-06-01", "2018-09-15", "2018-10-01"],
                             dtype="datetime64[D]"))
        splits = temporal_split(d, test_fraction=0.5, oot_start="2018-08-31",
                                oot_end="2018-11-30", seed=0, oos_fraction=0.34)
        oot_x = splits.out_of_time.feature("x").values.tolist()
        assert oot_x == [6.0, 7.0]  # the 2018-09-15 and 2018-10-01 rows

    def test_all_rows_in_window_empty_train(self):
        d = Dataset([Feature("x", NUMERIC, np.arange(4.0))], [0, 1, 0, 1],
                    np.array(["2018-09-01"] * 4, dtype="datetime64[D]"))
        with pytest.raises(EmptyPartition):
            temporal_split(d, 0.3, "2018-08-31", "2018-11-30", seed=1)

    def test_same_seed_same_split(self):
        d = dated_dataset()
        a = temporal_split(d, 0.3, "2018-08-31", "2018-11-30", seed=7)
        b = temporal_split(d, 0.3, "2018-08-31", "2018-11-30", seed=7)
        for name in ("train", "test", "out_of_sample", "out_of_time"):
            assert np.array_equal(getattr(a, name).feature("x").values,
                                  getattr(b, name).feature("x").values)

    def test_partition_property(self):
        d = dated_dataset(n=500, seed=3)
        splits = temporal_split(d, 0.3, "2018-08-31", "2018-11-30", seed=11)
        parts = splits.parts().values()
        assert sum(p.n_rows for p in parts) == d.n_rows
        seen = np.concatenate([p.feature("x").values for p in parts])
        assert len(np.unique(seen)) == d.n_rows  # values unique, so no overlap

    def test_oot_strictly_after_modeling_rows(self):
        d = dated_dataset(n=500, seed=4)
        splits = temporal_split(d, 0.3, "2018-08-31", "2018-11-30", seed=2)
        non_oot_max = max(getattr(splits, n).obs_date.max()
                          for n in ("train", "test", "out_of_sample"))
        assert splits.out_of_time.obs_date.min() > non_oot_max

    def test_requires_dates(self):
        d = numeric_dataset({"x": [1, 2]}, [0, 1])
        with pytest.raises(ValueError):
            temporal_split(d, 0.3, "2018-08-31", "2018-11-30", seed=0)


class TestPersistence:
    def test_csv_round_trip_exact(self, tmp_path):
        d = dated_dataset(n=60, seed=5)
        path = tmp_path / "out.csv"
        write_csv(d, path)
        back = load_csv(path, {"x": NUMERIC}, target="target", date_col="obs_date")
        assert np.array_equal(back.feature("x").values, d.feature("x").values)
        assert np.array_equal(back.obs_date, d.obs_date)

    def test_splits_round_trip(self, tmp_path):
        d = dated_dataset(n=300, seed=6)
        splits = temporal_split(d, 0.3, "2018-08-31", "2018-11-30", seed=1)
        save_splits(splits, tmp_path / "splits", schema={"x": NUMERIC},
                    params={"seed": 1})
        back, manifest = load_splits(tmp_path / "splits")
        assert manifest["params"]["seed"] == 1
        for name, part in splits.parts().items():
            assert np.array_equal(getattr(back, name).feature("x").values,
                                  part.feature("x").values)


def reference_write(d, path, target="target", date_col="obs_date"):
    """The cell-by-cell writer that write_csv must reproduce byte for byte."""
    header = d.feature_names + [target] + ([date_col] if d.obs_date is not None else [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(d.n_rows):
            row = []
            for f in d.features:
                v = f.values[i]
                if f.kind == NUMERIC:
                    row.append("" if np.isnan(v) else repr(float(v)))
                else:
                    row.append("" if v is None else str(v))
            row.append(str(int(d.target[i])))
            if d.obs_date is not None:
                row.append(str(d.obs_date[i]))
            writer.writerow(row)


NUMBERS = st.one_of(st.floats(), st.sampled_from(
    [np.nan, -0.0, 0.0, np.inf, -np.inf, 1e300, -1e300, 1e-300, 5e-324, 0.1, 2.0**60]))
LEVELS = st.one_of(st.none(), st.text(st.sampled_from('a,"\' \n;x'), max_size=5))


@st.composite
def writable_datasets(draw):
    n = draw(st.integers(0, 30))
    features = []
    for j, kind in enumerate(draw(st.lists(st.sampled_from([NUMERIC, CATEGORICAL]), max_size=3))):
        if kind == NUMERIC:
            values = np.array(draw(st.lists(NUMBERS, min_size=n, max_size=n)), dtype=float)
        else:
            values = np.array(draw(st.lists(LEVELS, min_size=n, max_size=n)), dtype=object)
        features.append(Feature("c%d" % j, kind, values))
    target = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    dates = None
    if draw(st.booleans()):
        days = draw(st.lists(st.integers(-30000, 30000), min_size=n, max_size=n))
        dates = np.array(days, dtype="datetime64[D]")
    return Dataset(features, target, dates), draw(st.sampled_from([1, 3, 7, 1024]))


@settings(deadline=None, max_examples=150)
@given(case=writable_datasets())
def test_write_csv_matches_per_cell_writer(tmp_path_factory, case):
    d, block = case
    base = tmp_path_factory.getbasetemp()
    reference_write(d, base / "expected.csv")
    # small blocks put block boundaries inside the data
    with mock.patch.object(data_module, "WRITE_ROWS", block):
        write_csv(d, base / "written.csv")
    assert (base / "written.csv").read_bytes() == (base / "expected.csv").read_bytes()

import builtins
import os
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gobe import dataset

from gobe import (
    CsvSchema,
    ExperimentData,
    ParseError,
    SchemaError,
    SyntheticConfig,
    ValidationError,
    generate,
    load_csv,
    restrict_to_arm,
    write_csv,
)
from gobe.dataset import filter_by_day

from oracles import dim_ate


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def small_csv(tmp_path):
    return write_lines(tmp_path / "exp.csv", [
        "arm,kpi,pre,extra",
        "0,1.5,0.2,1.0",
        "0,2.5,0.1,2.0",
        "1,3.5,0.3,0.5",
        "1,4.5,0.4,1.5",
    ])


SCHEMA = CsvSchema(assignment="arm", outcome="kpi",
                   covariates=("pre", "extra"), pre_period="pre")


def test_load_minimal_file(small_csv):
    data = load_csv(small_csv, SCHEMA)
    assert data.n_units == 4
    assert data.k_covariates == 2
    assert data.arm_sizes() == (2, 2)
    assert data.pre_period_col == 0
    np.testing.assert_array_equal(data.assignment, [0, 0, 1, 1])


def test_assignment_value_two_names_row(tmp_path):
    path = write_lines(tmp_path / "bad.csv", [
        "arm,kpi,pre,extra", "0,1,0,0", "2,1,0,0", "1,1,0,0",
    ])
    with pytest.raises(ValidationError, match="row 2"):
        load_csv(path, SCHEMA)


def test_single_arm_rejected(tmp_path):
    path = write_lines(tmp_path / "one_arm.csv", [
        "arm,kpi,pre,extra", "0,1,0,0", "0,2,0,0",
    ])
    with pytest.raises(ValidationError, match="non-empty"):
        load_csv(path, SCHEMA)


def test_unparseable_cell_names_row(tmp_path):
    path = write_lines(tmp_path / "junk.csv", [
        "arm,kpi,pre,extra", "0,1,0,0", "1,oops,0,0",
    ])
    with pytest.raises(ParseError, match="row 2.*kpi"):
        load_csv(path, SCHEMA)


def test_non_finite_cell_rejected(tmp_path):
    path = write_lines(tmp_path / "nan.csv", [
        "arm,kpi,pre,extra", "0,1,0,0", "1,nan,0,0",
    ])
    with pytest.raises(ValidationError, match="row 2.*non-finite"):
        load_csv(path, SCHEMA)


def test_missing_column_is_schema_error(tmp_path):
    path = write_lines(tmp_path / "cols.csv", ["arm,kpi,pre", "0,1,0", "1,1,0"])
    with pytest.raises(SchemaError, match="extra"):
        load_csv(path, SCHEMA)


def test_pre_period_must_be_covariate():
    with pytest.raises(SchemaError):
        CsvSchema(assignment="a", outcome="y", covariates=("z",), pre_period="w")


@pytest.mark.parametrize("roles", [{"day": "y"}, {"unit_id": "a"}, {"day": "z"},
                                   {"day": "id", "unit_id": "id"}])
def test_day_and_unit_id_take_columns_of_their_own(roles):
    with pytest.raises(SchemaError, match="more than one role"):
        CsvSchema(assignment="a", outcome="y", covariates=("z",), pre_period="z", **roles)


def test_round_trip_is_identity(tmp_path):
    data = generate(SyntheticConfig(n_units=60, k_covariates=3, outcome_cor=0.4,
                                    daily_arrivals=10.0, seed=5))
    schema = write_csv(data, tmp_path / "roundtrip.csv")
    back = load_csv(tmp_path / "roundtrip.csv", schema)
    np.testing.assert_array_equal(back.assignment, data.assignment)
    np.testing.assert_array_equal(back.outcome, data.outcome)
    np.testing.assert_array_equal(back.covariates, data.covariates)
    np.testing.assert_array_equal(back.day_index, data.day_index)
    assert back.pre_period_col == data.pre_period_col


_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0)
_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def csv_datasets(draw):
    n, k = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    assignment = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    rows = st.lists(_FLOATS, min_size=n, max_size=n)
    days = draw(st.one_of(st.none(), st.lists(st.integers(1, 10**6), min_size=n, max_size=n)))
    return ExperimentData(
        unit_ids=np.array(draw(st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n))),
        assignment=np.array(assignment),
        outcome=np.array(draw(rows)),
        covariates=np.column_stack([draw(rows) for _ in range(k)]),
        pre_period_col=draw(st.integers(0, k - 1)),
        day_index=None if days is None else np.array(days),
    )


@given(data=csv_datasets())
def test_csv_round_trip_is_bit_exact(tmp_path_factory, data):
    check_round_trip_is_bit_exact(tmp_path_factory, data)


# Chunk sizes that put CRLF pairs, multi-byte characters, rows and the header
# across the edges of the ingest scan's chunks.
SMALL_CHUNKS = (1, 2, 3, 7)


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@given(data=csv_datasets())
def test_csv_round_trip_is_bit_exact_in_small_chunks(tmp_path_factory, chunk, data):
    with mock.patch.object(dataset, "_CHUNK_BYTES", chunk):
        check_round_trip_is_bit_exact(tmp_path_factory, data)


def check_round_trip_is_bit_exact(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    schema = write_csv(data, path)
    assert dataset._read_columns_fast(path, schema) is not None
    back = load_csv(path, schema)
    np.testing.assert_array_equal(back.assignment, data.assignment)
    np.testing.assert_array_equal(back.outcome.view(np.uint64), data.outcome.view(np.uint64))
    np.testing.assert_array_equal(back.covariates.view(np.uint64),
                                  data.covariates.view(np.uint64))
    if data.day_index is None:
        assert back.day_index is None
    else:
        np.testing.assert_array_equal(back.day_index, data.day_index)
    assert back.unit_ids.tolist() == [str(u) for u in data.unit_ids.tolist()]
    assert back.pre_period_col == data.pre_period_col


# --- numpy's reader against the row parser ----------------------------------

def load_by_row_parser(path, schema):
    """load_csv with the numpy fast path switched off: the reference."""
    with mock.patch.object(dataset, "_read_columns_fast", return_value=None):
        return load_csv(path, schema)


def assert_same_data(got, want):
    for name in ("unit_ids", "assignment", "outcome", "covariates", "day_index"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        if b.dtype == np.float64:
            a, b = a.view(np.uint64), b.view(np.uint64)
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.pre_period_col == want.pre_period_col


_NUMBER_FORMATS = (repr, "{:.17g}".format, "{:.16e}".format, " {!r} ".format)
# Any text the fast path must keep as-is: spaces, NUL, non-ASCII, other
# Unicode line separators; never a comma, quote, CR/LF or U+001C-U+001F.
_ID_TEXT = st.sampled_from([" b ", " ", "a b"]) | st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\x1c\x1d\x1e\x1f'),
    max_size=6)


@st.composite
def valid_csv_files(draw):
    """(file bytes, schema): a valid table with columns in any order, optional
    unit-id and day columns, unmapped numeric and text columns, either line
    ending, and a final newline or none."""
    n, k = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    fmt = draw(st.sampled_from(_NUMBER_FORMATS))
    numbers = st.lists(_FLOATS.map(fmt), min_size=n, max_size=n)
    columns = {
        "arm": ["0", "1"] + draw(st.lists(st.sampled_from(["0", "1", "0.0", "1.0", "-0"]),
                                          min_size=n - 2, max_size=n - 2)),
        "kpi": draw(numbers),
    }
    covariates = tuple(f"z{i}" for i in range(k))
    for name in covariates:
        columns[name] = draw(numbers)
    for i in range(draw(st.integers(0, 2))):
        columns[f"spare{i}"] = draw(numbers)
    if draw(st.booleans()):
        columns["note"] = draw(st.lists(_ID_TEXT, min_size=n, max_size=n))
    day = unit_id = None
    if draw(st.booleans()):
        day = "day"
        columns[day] = [str(d) for d in draw(st.lists(st.integers(1, 10**6), min_size=n,
                                                         max_size=n))]
    if draw(st.booleans()):
        unit_id = "id"
        columns[unit_id] = draw(st.lists(_ID_TEXT, min_size=n, max_size=n))
    names = draw(st.permutations(list(columns)))
    lines = [",".join(names)] + [",".join(columns[c][i] for c in names) for i in range(n)]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    schema = CsvSchema(assignment="arm", outcome="kpi", covariates=covariates,
                       pre_period=draw(st.sampled_from(covariates)), day=day, unit_id=unit_id)
    return text.encode("utf-8"), schema


@given(case=valid_csv_files())
def test_fast_path_loads_valid_files_as_the_row_parser_does(tmp_path_factory, case):
    check_fast_path_loads_as_the_row_parser_does(tmp_path_factory, case)


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@given(case=valid_csv_files())
def test_fast_path_loads_valid_files_in_small_chunks(tmp_path_factory, chunk, case):
    with mock.patch.object(dataset, "_CHUNK_BYTES", chunk):
        check_fast_path_loads_as_the_row_parser_does(tmp_path_factory, case)


def check_fast_path_loads_as_the_row_parser_does(tmp_path_factory, case):
    raw, schema = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(raw)
    assert dataset._read_columns_fast(path, schema) is not None
    assert_same_data(load_csv(path, schema), load_by_row_parser(path, schema))


SCHEMA_DAY = CsvSchema(assignment="arm", outcome="kpi", covariates=("pre", "extra"),
                       pre_period="pre", day="day")
_HEAD = "arm,kpi,pre,extra\n"
_DAY_HEAD = "arm,kpi,pre,extra,day\n"
_ROWS = "0,1.5,0.2,1.0\n1,2.5,0.1,2.0\n1,3.5,0.3,0.5\n"
_DAY_ROWS = "0,1.5,0.2,1.0,1\n1,2.5,0.1,2.0,2\n1,3.5,0.3,0.5,2\n"
_BAD_UTF8_LATE = (_HEAD + "0,1.5,0.2,1.0\n" * 2000 + "1,2.5,0.1,2.0\n").encode() + b"\xff\n"

# name: (file contents, schema, what the row parser does: an error type or
# None for a successful load)
MALFORMED_CORPUS = {
    "blank_line_middle": (_HEAD + "0,1.5,0.2,1.0\n\n1,2.5,0.1,2.0\n", SCHEMA, ParseError),
    "blank_line_end": (_HEAD + _ROWS + "\n", SCHEMA, ParseError),
    "comment_line": (_HEAD + "0,1.5,0.2,1.0\n# note\n1,2.5,0.1,2.0\n", SCHEMA, ParseError),
    "short_row": (_HEAD + _ROWS + "1,2.5,0.1\n", SCHEMA, ParseError),
    "long_row": (_HEAD + _ROWS + "1,2.5,0.1,2.0,9\n", SCHEMA, ParseError),
    "trailing_comma": (_HEAD + _ROWS + "1,2.5,0.1,2.0,\n", SCHEMA, ParseError),
    "quoted_comma_unmapped": ("arm,kpi,pre,extra,name\n0,1.5,0.2,1.0,\"Smith, J\"\n"
                              "1,2.5,0.1,2.0,Doe\n", SCHEMA, None),
    "quoted_number": (_HEAD + "0,\"1.5\",0.2,1.0\n1,2.5,0.1,2.0\n", SCHEMA, None),
    "nan": (_HEAD + _ROWS + "1,nan,0.1,2.0\n", SCHEMA, ValidationError),
    "inf": (_HEAD + _ROWS + "1,2.5,-inf,2.0\n", SCHEMA, ValidationError),
    "overflow_1e500": (_HEAD + _ROWS + "1,2.5,0.1,1e500\n", SCHEMA, ValidationError),
    "underscore_digits": (_HEAD + _ROWS + "1,1_000,0.1,2.0\n", SCHEMA, None),
    "non_ascii_digits": (_HEAD + _ROWS + "1,\u0661\u0662,0.1,2.0\n", SCHEMA, None),
    "info_separator_around_number": (_HEAD + _ROWS + "1,2.5\x1c,0.1,2.0\n", SCHEMA,
                                     ParseError),
    "unparseable": (_HEAD + _ROWS + "1,oops,0.1,2.0\n", SCHEMA, ParseError),
    "assignment_2": (_HEAD + "0,1.5,0.2,1.0\n2,2.5,0.1,2.0\n", SCHEMA, ValidationError),
    "assignment_half": (_HEAD + "0,1.5,0.2,1.0\n0.5,2.5,0.1,2.0\n", SCHEMA, ValidationError),
    "day_fraction": (_DAY_HEAD + _DAY_ROWS + "1,2.5,0.1,2.0,1.5\n", SCHEMA_DAY,
                     ValidationError),
    "day_zero": (_DAY_HEAD + _DAY_ROWS + "1,2.5,0.1,2.0,0\n", SCHEMA_DAY, ValidationError),
    "day_beyond_int64": (_DAY_HEAD + _DAY_ROWS + "1,2.5,0.1,2.0,1e19\n", SCHEMA_DAY,
                         ValidationError),
    "empty_file": ("", SCHEMA, SchemaError),
    "header_only": (_HEAD, SCHEMA, ValidationError),
    "one_data_row": (_HEAD + "0,1.5,0.2,1.0\n", SCHEMA, ValidationError),
    "one_data_row_day_beyond_int64": (_DAY_HEAD + "0,1.5,0.2,1.0,1e19\n", SCHEMA_DAY,
                                      ValidationError),
    "single_arm": (_HEAD + "0,1.5,0.2,1.0\n0,2.5,0.1,2.0\n", SCHEMA, ValidationError),
    "missing_column": ("arm,kpi,pre\n0,1.5,0.2\n1,2.5,0.1\n", SCHEMA, SchemaError),
    "duplicate_column": ("arm,kpi,pre,extra,kpi\n0,1.5,0.2,1.0,1\n1,2.5,0.1,2.0,2\n",
                         SCHEMA, SchemaError),
    "empty_header_line": ("\n" + _ROWS, SCHEMA, SchemaError),
    "empty_header_line_unnamed_column": ("\n0\n1\n", CsvSchema(
        assignment="", outcome="kpi", covariates=("pre",), pre_period="pre"), SchemaError),
    "crlf": ((_HEAD + _ROWS).replace("\n", "\r\n"), SCHEMA, None),
    "cr_only": ((_HEAD + _ROWS).replace("\n", "\r"), SCHEMA, None),
    "bom": ("\ufeff" + _HEAD + _ROWS, SCHEMA, SchemaError),
    "bom_on_unmapped_column": ("\ufeffname," + _HEAD + "a,0,1.5,0.2,1.0\nb,1,2.5,0.1,2.0\n",
                               SCHEMA, None),
    "invalid_utf8_after_first_block": (_BAD_UTF8_LATE, SCHEMA, UnicodeDecodeError),
    "cr_as_last_byte": (_HEAD + _ROWS + "1,2.5,0.1,2.0\r", SCHEMA, None),
    "cr_cr_lf": (_HEAD + "0,1.5,0.2,1.0\r\r\n1,2.5,0.1,2.0\r\n", SCHEMA, ParseError),
    "long_header": ("arm,kpi,pre,extra," + "n" * 100 + "\n0,1.5,0.2,1.0,a\n1,2.5,0.1,2.0,b\n",
                    SCHEMA, None),
    "three_byte_char_unmapped": ("arm,kpi,pre,extra,note\n0,1.5,0.2,1.0,\u20ac\n"
                                 "1,2.5,0.1,2.0,a\u20acb\n", SCHEMA, None),
    "short_last_row_no_final_newline": (_HEAD + _ROWS + "1,2.5,0.1", SCHEMA, ParseError),
    "utf8_cut_at_end_of_file": ((_HEAD + _ROWS + "1,2.5,0.1,").encode() + b"\xe2\x82", SCHEMA,
                                UnicodeDecodeError),
    "quoted_field_over_csv_limit": ("arm,kpi,pre,extra,note\n0,1.5,0.2,1.0,a\n"
                                    f"1,2.5,0.1,2.0,\"{'x' * 140_000}\"\n", SCHEMA, ParseError),
    "quoted_header_over_csv_limit": (f"arm,kpi,pre,extra,\"{'n' * 140_000}\"\n"
                                     "0,1.5,0.2,1.0,a\n1,2.5,0.1,2.0,b\n", SCHEMA, ParseError),
    "missing_column_and_invalid_utf8": (b"arm,kpi,pre\n0,1.5,0.2\n\xff\n", SCHEMA,
                                        UnicodeDecodeError),
}


def _load_or_error(load, path, schema):
    try:
        return load(path, schema)
    except Exception as exc:  # compared below with the reference outcome
        return exc


def write_corpus_file(tmp_path, name):
    """(path, schema, what the row parser does) of a MALFORMED_CORPUS entry."""
    contents, schema, row_parser_error = MALFORMED_CORPUS[name]
    path = tmp_path / "in.csv"
    path.write_bytes(contents if isinstance(contents, bytes) else contents.encode("utf-8"))
    return path, schema, row_parser_error


@pytest.mark.parametrize("name", list(MALFORMED_CORPUS))
def test_malformed_file_fails_as_the_row_parser_does(tmp_path, name):
    check_fails_as_the_row_parser_does(*write_corpus_file(tmp_path, name))


def _fast_path_outcome(path, schema):
    got = _load_or_error(dataset._read_columns_fast, path, schema)
    return type(got) if isinstance(got, Exception) else got is not None


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize("name", list(MALFORMED_CORPUS))
def test_malformed_file_in_small_chunks(tmp_path, name, chunk):
    path, schema, row_parser_error = write_corpus_file(tmp_path, name)
    whole = _fast_path_outcome(path, schema)
    with mock.patch.object(dataset, "_CHUNK_BYTES", chunk):
        assert _fast_path_outcome(path, schema) == whole
        check_fails_as_the_row_parser_does(path, schema, row_parser_error)


def check_fails_as_the_row_parser_does(path, schema, row_parser_error):
    want = _load_or_error(load_by_row_parser, path, schema)
    got = _load_or_error(load_csv, path, schema)
    if row_parser_error is None:
        assert isinstance(want, ExperimentData), want
        assert_same_data(got, want)
    else:
        assert type(want) is row_parser_error
        assert (type(got), str(got)) == (type(want), str(want))


def test_ingest_memory_is_bounded_by_the_parsed_table(tmp_path):
    data = generate(SyntheticConfig(n_units=8000, k_covariates=3, daily_arrivals=50.0, seed=3))
    path = tmp_path / "big.csv"
    written = write_csv(data, path)
    chunk = 1 << 16
    assert path.stat().st_size >= 8 * chunk
    # the tracemalloc peak over the bytes returned: the columns, one block's
    # parse and, with mapped ids, one block's ids as Python strings and the
    # ids' block arrays, joined once the scan ends
    for unit_id in ("unit_id", None):
        schema = replace(written, unit_id=unit_id)
        with mock.patch.object(dataset, "_CHUNK_BYTES", chunk):
            tracemalloc.start()
            try:
                back = load_csv(path, schema)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert_same_data(back, load_by_row_parser(path, schema))
        returned = sum(a.nbytes for a in (back.unit_ids, back.assignment, back.outcome,
                                          back.covariates, back.day_index))
        assert peak <= 1.5 * returned, (unit_id, peak / returned)


@pytest.mark.parametrize("unit_id", ["unit_id", None])
def test_fast_path_opens_the_input_once(tmp_path, monkeypatch, unit_id):
    data = generate(SyntheticConfig(n_units=50, daily_arrivals=5.0, seed=4))
    path = tmp_path / "in.csv"
    schema = replace(write_csv(data, path), unit_id=unit_id)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == os.fspath(path):
            opened.append(args)
        return real_open(file, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", counting_open)
        back = load_csv(path, schema)
    assert len(opened) == 1
    assert_same_data(back, load_by_row_parser(path, schema))


@pytest.mark.parametrize("unit_id", ["unit_id", None])
def test_the_same_bytes_and_schema_are_parsed_once(tmp_path, unit_id):
    data = generate(SyntheticConfig(n_units=50, k_covariates=2, daily_arrivals=5.0, seed=4))
    path = tmp_path / "in.csv"
    schema = replace(write_csv(data, path), unit_id=unit_id)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        first = load_csv(path, schema)
        second = load_csv(path, schema)
        held = dataset._read_columns_fast(path, schema)
    assert loadtxt.call_count == 1
    assert_same_data(first, load_by_row_parser(path, schema))
    assert_same_data(second, first)
    assert all(not arr.flags.writeable for arr in held if arr is not None)


def test_a_repeat_of_the_same_bytes_is_one_hash_pass(tmp_path):
    data = generate(SyntheticConfig(n_units=50, k_covariates=2, daily_arrivals=5.0, seed=4))
    path = tmp_path / "in.csv"
    schema = write_csv(data, path)
    first = load_csv(path, schema)
    with mock.patch.object(dataset, "_plain_lines", wraps=dataset._plain_lines) as checks, \
            mock.patch.object(dataset, "_line_blocks", wraps=dataset._line_blocks) as passes:
        second = load_csv(path, schema)
        assert (checks.call_count, passes.call_count) == (0, 1)
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))  # other bytes, same data
        third = load_csv(path, schema)
        assert checks.call_count > 0
        assert passes.call_count == 2  # another size: no hash pass, and a scan
    assert_same_data(second, first)
    assert_same_data(third, first)


def _rewritten_after_the_scan(path, rows):
    """A ``_line_blocks`` that writes ``rows`` over ``path`` once the scan has
    read every block, so the parse meets other lines than the scan counted."""
    real = dataset._line_blocks

    def line_blocks(fh):
        yield from real(fh)
        path.write_bytes((_HEAD + rows).encode())

    return line_blocks


@pytest.mark.parametrize("chunk", (dataset._CHUNK_BYTES,) + SMALL_CHUNKS)
@pytest.mark.parametrize("rows", ["0,1.5,0.2,1.0\n1,2.5,0.1,2.0\n", _ROWS + "0,4.5,0.4,1.5\n",
                                  _ROWS.replace("2.5", "7.5")])
def test_lines_that_change_after_the_scan_are_left_to_the_row_parser(tmp_path, rows, chunk):
    # fewer rows than a block counted, rows beyond the last block, and the
    # same number of rows again: the first two decline, the last one parses;
    # in small chunks, a block can lose all its lines, and no warning shows
    path = write_lines(tmp_path / "in.csv", [_HEAD.rstrip()] + _ROWS.splitlines())
    with mock.patch.object(dataset, "_line_blocks", _rewritten_after_the_scan(path, rows)), \
            mock.patch.object(dataset, "_read_rows", wraps=dataset._read_rows) as read_rows, \
            mock.patch.object(dataset, "_CHUNK_BYTES", chunk), warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_csv(path, SCHEMA)
    declined = rows.count("\n") != _ROWS.count("\n")
    assert read_rows.call_count == declined
    assert_same_data(back, load_by_row_parser(path, SCHEMA))


# a bad value the fast path must leave to the row parser, in a day-mapped row
_BAD_VALUES = {"kpi": ["nan", "1e500", "oops"], "arm": ["2", "0.5"], "day": ["0", "1.5", "1e19"]}


@pytest.mark.parametrize("chunk", SMALL_CHUNKS + (64,))
@pytest.mark.parametrize("at", ["first", "last"])
@pytest.mark.parametrize("column, value", [(c, v) for c, vs in _BAD_VALUES.items() for v in vs])
def test_a_bad_value_at_the_edge_of_a_parse_block_fails_as_the_row_parser_does(
        tmp_path, chunk, at, column, value):
    rows = [["0" if i % 2 else "1", f"{i}.5", "0.2", "1.0", str(i // 3 + 1)] for i in range(12)]
    path = tmp_path / "in.csv"

    def block_counts():
        write_lines(path, [_DAY_HEAD.rstrip()] + [",".join(r) for r in rows])
        with open(path, "rb") as fh:
            fh.readline()
            return [block.count(b"\n") for block in dataset._line_blocks(fh)]

    with mock.patch.object(dataset, "_CHUNK_BYTES", chunk):
        counts = block_counts()
        middle = len(counts) // 2  # the block to spoil, with a block after it
        row = sum(counts[:middle]) + (0 if at == "first" else counts[middle] - 1)
        rows[row][["arm", "kpi", "pre", "extra", "day"].index(column)] = value
        assert block_counts()[:middle + 1] == counts[:middle + 1]  # still at that edge
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            assert dataset._read_columns_fast(path, SCHEMA_DAY) is None
        assert loadtxt.call_count == middle + 1  # the parse stops at the spoilt block
        check_fails_as_the_row_parser_does(path, SCHEMA_DAY, ParseError if value == "oops"
                                           else ValidationError)


def test_unit_ids_are_split_only_for_a_parse(tmp_path):
    # one pass over the lines scans a file and takes its mapped ids; a repeat
    # of its bytes is one hash pass
    data = generate(SyntheticConfig(n_units=50, k_covariates=2, seed=6))
    path = tmp_path / "in.csv"
    schema = write_csv(data, path)
    with mock.patch.object(dataset, "_line_blocks", wraps=dataset._line_blocks) as passes:
        first = load_csv(path, schema)
        assert passes.call_count == 1
        second = load_csv(path, schema)
        assert passes.call_count == 2
    assert first.unit_ids.tolist() == [str(i) for i in data.unit_ids]
    assert_same_data(second, first)


def test_a_same_size_rewrite_keeping_the_mtime_is_parsed_again(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(_HEAD + _ROWS, encoding="utf-8")
    before = path.stat()
    assert load_csv(path, SCHEMA).outcome.tolist() == [1.5, 2.5, 3.5]
    path.write_text(_HEAD + _ROWS.replace("2.5", "7.5"), encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    back = load_csv(path, SCHEMA)
    assert back.outcome.tolist() == [1.5, 7.5, 3.5]
    assert_same_data(back, load_by_row_parser(path, SCHEMA))


def test_a_parse_is_reused_for_the_same_bytes_only_under_the_same_schema(tmp_path):
    data = generate(SyntheticConfig(n_units=60, k_covariates=3, seed=5))
    path, copy = tmp_path / "in.csv", tmp_path / "copy.csv"
    schema = write_csv(data, path)
    copy.write_bytes(path.read_bytes())
    reordered = replace(schema, covariates=tuple(reversed(schema.covariates)))
    without_ids = replace(schema, unit_id=None)
    loads = [(path, schema, 1), (copy, schema, 1), (copy, reordered, 2),
             (copy, without_ids, 3), (path, schema, 4)]
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        for file, file_schema, parses in loads:
            back = load_csv(file, file_schema)
            assert loadtxt.call_count == parses
            assert_same_data(back, load_by_row_parser(file, file_schema))


@pytest.mark.parametrize("name", list(MALFORMED_CORPUS))
def test_malformed_file_loaded_twice_ends_the_same_way_both_times(tmp_path, name):
    path, schema, _ = write_corpus_file(tmp_path, name)
    with mock.patch.object(dataset, "_read_rows", wraps=dataset._read_rows) as read_rows:
        first = _load_or_error(load_csv, path, schema)
        second = _load_or_error(load_csv, path, schema)
    if isinstance(first, Exception):
        assert (type(second), str(second)) == (type(first), str(first))
    else:
        assert_same_data(second, first)
    declined = _fast_path_outcome(path, schema) is False
    assert read_rows.call_count == (2 if declined else 0)


def test_a_reused_parse_opens_the_input_once(tmp_path, monkeypatch):
    data = generate(SyntheticConfig(n_units=50, daily_arrivals=5.0, seed=4))
    path = tmp_path / "in.csv"
    schema = write_csv(data, path)
    first = load_csv(path, schema)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == os.fspath(path):
            opened.append(args)
        return real_open(file, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", counting_open)
        patch.setattr(np, "loadtxt", None)  # a reused parse never calls numpy's reader
        back = load_csv(path, schema)
    assert len(opened) == 1
    assert_same_data(back, first)


def test_generate_independent_case():
    data = generate(SyntheticConfig(n_units=1000, outcome_cor=0.0, seed=7))
    corr = np.corrcoef(data.pre_period, data.outcome)[0, 1]
    assert abs(corr) < 0.1


def test_generate_targets_correlation():
    data = generate(SyntheticConfig(n_units=50_000, outcome_cor=0.8, seed=3))
    corr = np.corrcoef(data.pre_period, data.outcome)[0, 1]
    assert abs(corr - 0.8) < 0.02


def test_generate_dim_recovers_effect_within_3se():
    # CLT bound: the arm-mean difference should land within 3 standard
    # errors of the injected effect, with the SE taken from the sample.
    data = generate(SyntheticConfig(n_units=10**5, outcome_cor=0.8,
                                    true_ate=0.5, seed=21))
    y, j = data.outcome, data.assignment
    se = np.sqrt(y[j == 1].var(ddof=1) / (j == 1).sum()
                 + y[j == 0].var(ddof=1) / (j == 0).sum())
    assert abs(dim_ate(y, j) - 0.5) < 3 * se


def test_generate_is_deterministic():
    a = generate(SyntheticConfig(n_units=500, k_covariates=4, outcome_cor=0.3,
                                 daily_arrivals=25.0, seed=99))
    b = generate(SyntheticConfig(n_units=500, k_covariates=4, outcome_cor=0.3,
                                 daily_arrivals=25.0, seed=99))
    np.testing.assert_array_equal(a.outcome, b.outcome)
    np.testing.assert_array_equal(a.covariates, b.covariates)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.day_index, b.day_index)
    c = generate(SyntheticConfig(n_units=500, k_covariates=4, outcome_cor=0.3,
                                 daily_arrivals=25.0, seed=100))
    assert not np.array_equal(a.outcome, c.outcome)


@pytest.mark.parametrize("bad", [
    dict(n_units=1),
    dict(assignment_prob=0.0),
    dict(assignment_prob=1.0),
    dict(outcome_cor=1.5),
    dict(noise_sd=0.0),
    dict(k_covariates=0),
])
def test_config_validation(bad):
    with pytest.raises(ValidationError):
        SyntheticConfig(**{"n_units": 100, **bad})


def test_restrict_to_arm():
    data = ExperimentData(
        unit_ids=np.arange(3), assignment=np.array([0, 0, 1]),
        outcome=np.array([1.0, 2.0, 3.0]), covariates=np.zeros((3, 1)),
        pre_period_col=0,
    )
    assert restrict_to_arm(data, 0).n_units == 2
    assert restrict_to_arm(data, 1).n_units == 1
    with pytest.raises(ValidationError, match="unknown arm"):
        restrict_to_arm(data, 2)


def test_restriction_partitions_rows():
    data = generate(SyntheticConfig(n_units=301, seed=2))
    part0 = restrict_to_arm(data, 0)
    part1 = restrict_to_arm(data, 1)
    assert part0.n_units + part1.n_units == data.n_units
    merged = np.sort(np.concatenate([part0.unit_ids, part1.unit_ids]))
    np.testing.assert_array_equal(merged, np.sort(data.unit_ids))


def test_day_filter():
    data = generate(SyntheticConfig(n_units=400, daily_arrivals=40.0, seed=8))
    early = filter_by_day(data, 5)
    assert early.n_units == int((data.day_index <= 5).sum())
    assert early.day_index.max() <= 5
    no_days = generate(SyntheticConfig(n_units=50, seed=8))
    with pytest.raises(ValidationError, match="day column"):
        filter_by_day(no_days, 5)


def test_arrival_days_start_at_one_and_cover_rate():
    data = generate(SyntheticConfig(n_units=2000, daily_arrivals=100.0, seed=17))
    assert data.day_index.min() == 1
    # ~20 days expected at 100/day; generous band against Poisson noise
    assert 15 <= data.day_index.max() <= 27


def _arrival_days_one_day_at_a_time(rng, n, rate):
    days, filled, day = [], 0, 0
    while filled < n:
        day += 1
        count = min(int(rng.poisson(rate)), n - filled)
        days += [day] * count
        filled += count
    return np.array(days, dtype=np.int64)


@pytest.mark.parametrize("rate", [0.01, 0.7, 12.0, 1000.0])
@pytest.mark.parametrize("seed", [0, 5])
def test_arrival_days_match_a_day_at_a_time_loop(rate, seed):
    from gobe.dataset import _poisson_arrival_days

    for n in (2, 333):
        expected = _arrival_days_one_day_at_a_time(np.random.default_rng(seed), n, rate)
        got = _poisson_arrival_days(np.random.default_rng(seed), n, rate)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def test_arrival_rate_too_small_to_fill_raises():
    with pytest.raises(ValidationError, match="daily_arrivals too small"):
        generate(SyntheticConfig(n_units=5, daily_arrivals=1e-8, seed=0))


def test_immutability():
    data = generate(SyntheticConfig(n_units=10, seed=0))
    with pytest.raises(ValueError):
        data.outcome[0] = 99.0
    with pytest.raises(ValueError):
        data.covariates[0, 0] = 99.0

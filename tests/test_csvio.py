"""The column-wise long-table reader against the row-wise oracle.

``rowwise_csvio`` keeps the reader ``csvio`` had before it parsed columns.
On every generated file both readers must agree: a file one accepts the
other accepts with byte-equal ids, grid points, weights and values (so a
``-0.0`` read as ``0.0`` shows), and a file one rejects the other rejects
with the same exception type. Files with a single fault get the same
message from both. Plain files, which numpy's C reader parses, must reach it
whenever they are valid; every other file, and every fault, must give the
oracle's result through the csv path. The band writer's grid check closes the
file.
"""

import csv
import io
import re
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rowwise_csvio as oracle
from mfconformal import Band, csvio
from mfconformal.core import ComponentGrid, Grid, ShapeError, uniform_grid

# Spellings Python's int and float accept, several per value, so equal
# values arrive as different strings.
COMPONENT_TEXT = {1: ["1", "+1", " 1", "01", "１"], 2: ["2", "+2", "2 ", "٢"],
                  3: ["3", "0_3"], 10: ["1_0", "10"]}
POINT_TEXT = {0.0: ["0", "0.0", "-0.0", "+0", "-0"], 0.25: ["0.25", "2_5e-2"],
              0.5: ["0.5", "+.5", "5e-1", "０.５"], 1.0: ["1", "1.0", "1_0e-1"]}
VALUE_TEXT = ["0.0", "-0.0", "1.5", "-2.25e3", "1_000", "３", " 7 ", "+4"]
# Spellings neither reader accepts, per column.
BAD_COMPONENT = ["0", "-1", "x", "", "1.0"]
BAD_NUMBER = ["nan", "inf", "-1e999", "1e999", "x", ""]
IDS = ["a", "b", "c,d", 'e"f', "g\nh", "é"]
ID_PADDING = ["{}", " {} ", "{}\t"]
FAULTS = ["drop", "drop component", "duplicate", "field", "width"]
# Plain files: printable ASCII without quotes, tabs and "\n" line ends, with
# spellings that numpy's C reader and Python's int and float both accept.
PLAIN_COMPONENT_TEXT = {1: ["1", "+1", " 1", "01", "\t1"], 2: ["2", "+2", "2 ", "02"],
                        3: ["3", "\t3", " 3 "], 10: ["10", "+10", "010"]}
PLAIN_POINT_TEXT = {0.0: ["0", "0.0", "-0.0", "+0", "-0", "0e9"],
                    0.25: ["0.25", ".25", "25e-2"],
                    0.5: ["0.5", ".5", "+.5", "5e-1", " 0.5 "],
                    1.0: ["1", "1.0", "1.", "10e-1", "\t1"]}
PLAIN_VALUE_TEXT = ["0.0", "-0.0", "1.5", "-2.25e3", "1000", " 7 ", "+4", "\t3", ".5",
                    "5e-1", "1E2"]
PLAIN_IDS = ["a", "b", "c d", "e-f", "g#h", "i'j"]
PLAIN_ID_PADDING = [*ID_PADDING, "\t{} "]


@st.composite
def long_tables(draw, value_name="value", plain=False):
    """A small long-format CSV as text, valid about half of the time; a plain
    one ends its lines with "\n" and may miss the last."""
    component_text, point_text, value_text, ids, id_padding = (
        (PLAIN_COMPONENT_TEXT, PLAIN_POINT_TEXT, PLAIN_VALUE_TEXT, PLAIN_IDS,
         PLAIN_ID_PADDING) if plain else
        (COMPONENT_TEXT, POINT_TEXT, VALUE_TEXT, IDS, ID_PADDING))
    curves = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))
    comps = draw(st.sampled_from([[1], [1, 2], [1, 2, 3]]))
    if draw(st.integers(0, 9)) == 0:
        comps = draw(st.sampled_from([[1, 3], [2], [1, 10]]))  # not contiguous
    least = 1 if draw(st.integers(0, 9)) == 0 else 2  # a one-point grid is a fault
    points = {c: draw(st.lists(st.sampled_from(sorted(point_text)), min_size=least,
                               max_size=4, unique=True)) for c in comps}
    rows = [[draw(st.sampled_from(id_padding)).format(cid),
             draw(st.sampled_from(component_text[c])),
             draw(st.sampled_from(point_text[t])), draw(st.sampled_from(value_text))]
            for cid in curves for c in comps for t in points[c]]
    rows = draw(st.permutations(rows))
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2)) if draw(st.booleans()) else []
    for fault in sorted(faults, key=FAULTS.index):  # structural faults first
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        row = list(rows[i])
        if fault == "drop":  # ragged coverage
            del rows[i]
        elif fault == "drop component":
            cell = (row[0].strip(), int(row[1]))
            rows = [r for r in rows if (r[0].strip(), int(r[1])) != cell]
        elif fault == "duplicate":  # under the same or another spelling
            row[1] = draw(st.sampled_from(component_text[int(row[1])]))
            rows.insert(draw(st.integers(0, len(rows))), row)
        elif fault == "field":
            col = draw(st.integers(1, 3))
            row[col] = draw(st.sampled_from(BAD_COMPONENT if col == 1 else BAD_NUMBER))
            rows[i] = row
        else:
            rows[i] = draw(st.sampled_from([row[:3], [*row, "x"]]))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), [])  # blank records
    header = draw(st.sampled_from([["curve_id", "component", "t", value_name]] * 4 + [
        [" curve_id", "component ", "t", f" {value_name} "],
        ["curve_id", "component", "t", "other"]]))
    if plain:
        text = "\n".join(",".join(row) for row in [header, *rows])
        return text + draw(st.sampled_from(["\n", ""]))
    out = io.StringIO()
    csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
               ).writerows([header, *rows])
    return out.getvalue()


def outcome(read, path, *args):
    """The reader's result, or the type and message of its schema fault."""
    try:
        return read(path, *args)
    except (csvio.SchemaError, ShapeError) as exc:
        return type(exc), str(exc)


def same_arrays(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def rejected(new, old) -> bool:
    """Whether the oracle rejected the file; the reader must agree, with the
    same exception type."""
    if isinstance(old[0], type):
        assert isinstance(new[0], type) and new[0] is old[0], (new, old)
        return True
    assert not isinstance(new[0], type), (new, old)
    return False


def assert_same_curves(new, old) -> bool:
    """Whether both readers accepted the file, with the same curves."""
    if rejected(new, old):
        return False
    (grid, ids, curves), (old_grid, old_ids, old_curves) = new, old
    assert ids == old_ids
    for comp, old_comp in zip(grid.components, old_grid.components, strict=True):
        assert same_arrays(comp.points, old_comp.points)
        assert same_arrays(comp.weights, old_comp.weights)
    for curve, old_curve in zip(curves, old_curves, strict=True):
        for v, old_v in zip(curve.values, old_curve.values, strict=True):
            assert same_arrays(v, old_v)
    return True


def assert_same_covariate(new, old) -> bool:
    """Whether both readers accepted the file, with the same covariate."""
    if rejected(new, old):
        return False
    assert new[0] == old[0] and list(new[1]) == list(old[1])
    for cid, values in new[1].items():
        for v, old_v in zip(values, old[1][cid], strict=True):
            assert same_arrays(v, old_v)
    return True


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("csvio")


def check_curves(workdir, text) -> bool:
    path = workdir / "curves.csv"
    path.write_text(text, encoding="utf-8", newline="")
    return assert_same_curves(outcome(csvio.read_curves, path),
                              outcome(oracle.read_curves, path))


def own_grid(path):
    """The grid of the points a file samples, or a fixed one when its points
    make none."""
    try:
        _, _, _, ts = oracle._read_long_table(path, "<name>")
        points = oracle._component_points(ts)
        return Grid(tuple(ComponentGrid.from_points(p) for p in points))
    except (csvio.SchemaError, ShapeError):
        return uniform_grid(3, p=2)


def check_covariate(workdir, text, own) -> bool:
    path = workdir / "covariate.csv"
    path.write_text(text, encoding="utf-8", newline="")
    grid = own_grid(path) if own else uniform_grid(3, p=2)  # points 0, 0.5, 1
    return assert_same_covariate(outcome(csvio.read_functional_covariate, path, grid),
                                 outcome(oracle.read_functional_covariate, path, grid))


@contextmanager
def c_reader_calls(chunk_bytes=csvio._CHUNK_BYTES):
    """Whether numpy's C reader accepted each file read while the block runs,
    in order, reading ``chunk_bytes`` of lines at a time."""
    calls, plain_table = [], csvio._plain_table

    def counted(path, value_col):
        table = plain_table(path, value_col)
        calls.append(table is not None)
        return table

    with mock.patch.object(csvio, "_plain_table", counted), \
            mock.patch.object(csvio, "_CHUNK_BYTES", chunk_bytes):
        yield calls


@settings(max_examples=300, deadline=None)
@given(text=long_tables())
def test_read_curves_matches_rowwise_oracle(workdir, text):
    check_curves(workdir, text)


@settings(max_examples=150, deadline=None)
@given(text=long_tables(value_name="temp"), own=st.booleans())
def test_read_functional_covariate_matches_rowwise_oracle(workdir, text, own):
    check_covariate(workdir, text, own)


# 1 byte puts each line in its own chunk, blank lines too.
CHUNK_BYTES = [csvio._CHUNK_BYTES, 64, 1]


@settings(max_examples=200, deadline=None)
@given(text=long_tables(plain=True), chunk=st.sampled_from(CHUNK_BYTES))
def test_plain_files_take_the_c_reader_and_match_rowwise_oracle(workdir, text, chunk):
    with c_reader_calls(chunk) as calls:
        valid = check_curves(workdir, text)
    assert calls[0] or not valid


@settings(max_examples=100, deadline=None)
@given(text=long_tables(value_name="temp", plain=True), own=st.booleans(),
       chunk=st.sampled_from(CHUNK_BYTES))
def test_plain_functional_covariates_take_the_c_reader(workdir, text, own, chunk):
    with c_reader_calls(chunk) as calls:
        valid = check_covariate(workdir, text, own)
    assert calls[0] or not valid


@settings(max_examples=150, deadline=None)
@given(text=long_tables())
def test_chunk_boundaries_do_not_change_the_result(workdir, text):
    with mock.patch.object(csvio, "_CHUNK_ROWS", 3):
        check_curves(workdir, text)


def table(rows, header="curve_id,component,t,value") -> str:
    return "\n".join([header, *rows]) + "\n"


def valid_rows(comps=(1, 2), points=("0", "0.5", "1")):
    return [f"{cid},{c},{t},{v}" for cid, v in (("a", 1.0), ("b", 2.0))
            for c in comps for t in points]


VALID = valid_rows()

# Files with one fault each; the two readers must word it the same way.
SINGLE_FAULTS = {
    "width": VALID[:3] + ["a,2,0"] + VALID[4:],
    "component not an integer": VALID[:5] + ["a,x,1,1"] + VALID[6:],
    "component below 1": VALID[:5] + ["a,0,1,1"] + VALID[6:],
    "t not a number": VALID[:7] + ["b,1,t,2"] + VALID[8:],
    "t not finite": VALID[:7] + ["b,1,inf,2"] + VALID[8:],
    "value not a number": VALID[:8] + ["b,1,1,x"] + VALID[9:],
    "value not finite": VALID[:8] + ["b,1,1,nan"] + VALID[9:],
    "duplicate": VALID + ["b,2,-0.0,3"],
    "duplicate early in the file": VALID[:2] + ["a,1,0.5,9"] + VALID[2:],
    "non-contiguous components": [r.replace(",2,", ",3,", 1) for r in VALID],
    "missing component": VALID[:9],
    "ragged coverage": VALID[:10] + VALID[11:],
    "single grid point": [r for r in VALID if ",0.5," not in r and ",1," not in r],
    "value column name": None,
    "header": None,
    "no data rows": [],
}


@pytest.mark.parametrize("chunk", [csvio._CHUNK_ROWS, 3])
@pytest.mark.parametrize("fault", sorted(SINGLE_FAULTS))
def test_single_fault_messages_match_rowwise_oracle(workdir, fault, chunk):
    rows = SINGLE_FAULTS[fault]
    header = {"value column name": "curve_id,component,t,val",
              "header": "id,component,t,value"}.get(fault, "curve_id,component,t,value")
    path = workdir / "fault.csv"
    path.write_text(table(VALID if rows is None else rows, header))
    with mock.patch.object(csvio, "_CHUNK_ROWS", chunk):
        new = outcome(csvio.read_curves, path)
    assert isinstance(new[0], type) and new == outcome(oracle.read_curves, path)


def replaced(old, new):
    return [row.replace(old, new, 1) for row in VALID]


def wide_id_rows(widths):
    """Rows of one curve per id width, each (component, t) of every curve in
    turn, so that lines of every width fall in each chunk."""
    ids = [str(i).rjust(width, "x") for i, width in enumerate(widths)]
    return [f"{cid},{c},{t},1" for c in (1, 2) for t in ("0", "0.5", "1") for cid in ids]


# Files with the C reader's verdict on each: False where it must decline and
# leave the file to the csv path; the chunk size it reads them in.
C_READER_CASES = {
    "quoted id": (table(replaced("a,", '"e""f",')), csvio._CHUNK_BYTES, False),
    # Whitespace to numpy, not to Python's float.
    "record separator in t": (table(VALID[:3] + ["a,2,\x1e0,1"] + VALID[4:]),
                              csvio._CHUNK_BYTES, False),
    # Whitespace to Python's float and line breaks to str.splitlines.
    "vertical tab in a value": (table(VALID[:3] + ["a,2,0,\x0b3"] + VALID[4:]),
                                csvio._CHUNK_BYTES, False),
    "form feed in a value": (table(VALID[:3] + ["a,2,0,3\x0c"] + VALID[4:]),
                             csvio._CHUNK_BYTES, False),
    "CRLF line ends": (table(VALID).replace("\n", "\r\n"), csvio._CHUNK_BYTES, False),
    "NUL byte": (table(VALID[:3] + ["a\x00,2,0,1"] + VALID[4:]), csvio._CHUNK_BYTES, False),
    "non-ASCII id": (table(replaced("a,", "é,")), csvio._CHUNK_BYTES, False),
    "field over the field limit": (table(VALID[:3] + ["x" * 131073 + ",2,0,1"] + VALID[4:]),
                                   csvio._CHUNK_BYTES, False),
    # Every field within the limit, the line not.
    "line over the field limit": (table(replaced("a,", "a" * 131072 + ",")),
                                  csvio._CHUNK_BYTES, False),
    "whitespace-only line": (table(VALID[:3] + ["  "] + VALID[3:]), csvio._CHUNK_BYTES, False),
    "tab-only line": (table(VALID[:3] + ["\t"] + VALID[3:]), csvio._CHUNK_BYTES, False),
    # loadtxt warns on a chunk with no data; the warning filter makes that an error.
    "a chunk of blank lines only": (table(VALID[:3] + ["", "", ""] + VALID[3:] + [""]),
                                    1, True),
    # A row is as wide as its chunk's longest line: one id within the field
    # limit among short ones would make a chunk's rows ~150 times its text.
    "a long id among short ones": (table(wide_id_rows([3] * 60 + [100_000])), 4096,
                                   False),
    "long ids of one width": (table(wide_id_rows([3000] * 8)), 4096, True),
}


@pytest.mark.parametrize("case", sorted(C_READER_CASES))
def test_c_reader_leaves_what_it_cannot_read_as_csv_does_to_the_csv_path(workdir, case):
    text, chunk, accepted = C_READER_CASES[case]
    path = workdir / "c_reader.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with c_reader_calls(chunk) as calls:
        new = outcome(csvio.read_curves, path)
    old = outcome(oracle.read_curves, path)
    assert calls == [accepted]
    if not assert_same_curves(new, old):
        assert new == old


@pytest.mark.parametrize("rows,chunk", [
    (VALID[:-1] + ["é" + VALID[-1][1:]], 64),
    (wide_id_rows([3] * 600 + [100_000]), 4096),
], ids=["late non-ASCII id", "late long id"])
def test_a_declined_file_is_declined_before_any_parse(workdir, rows, chunk):
    """The scan finds a byte that is not plain, or a line too long beside its
    chunk, past the first chunk before numpy's C reader parses any."""
    path = workdir / "late.csv"
    path.write_text(table(rows), encoding="utf-8")
    with c_reader_calls(chunk) as calls, \
            mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        new = outcome(csvio.read_curves, path)
    assert calls == [False] and loadtxt.call_count == 0
    if not assert_same_curves(new, outcome(oracle.read_curves, path)):
        assert new == outcome(oracle.read_curves, path)


@pytest.mark.parametrize("later", ["a,2,0", '"' + "x" * 131073 + '",1,0,1'])
def test_earlier_faulty_row_of_a_chunk_is_reported_first(workdir, later):
    """A row fault found when its chunk is parsed still comes before a width
    or reader fault read later in the same chunk."""
    path = workdir / "two_faults.csv"
    path.write_text(table(VALID[:2] + ["a,1,1,nan"] + VALID[3:6] + [later] + VALID[6:]))
    new = outcome(csvio.read_curves, path)
    assert new == (csvio.SchemaError, "line 4: value 'nan' is not finite")
    assert new == outcome(oracle.read_curves, path)


# Line breaks inside a quoted field, with the file lines each one adds.
QUOTED_BREAKS = {"\n": 1, "\r\n": 1, "\r": 1, "\r\r\n": 2, "\n\r": 2}


@pytest.mark.parametrize("chunk", [csvio._CHUNK_ROWS, 3, 1])
@pytest.mark.parametrize("brk", sorted(QUOTED_BREAKS))
@pytest.mark.parametrize("fault,message", [
    ("a,2,0", "expected 4 columns, got 3"),
    ("a,2,0,x", "value 'x' is not a number"),
    ('"' + "x" * 131073 + '",1,0,1', "field larger than field limit"),
])
def test_fault_lines_count_the_lines_a_quoted_field_spans(workdir, brk, fault,
                                                          message, chunk):
    """Two records whose ids span lines, then a faulty one: its line is the
    file line it starts on, line 6 when each id holds one line break."""
    path = workdir / "spanning.csv"
    rows = [f'"c{brk}d",1,0,1', f'"c{brk}d",1,1,1', fault]
    path.write_text(table(rows), encoding="utf-8", newline="")
    with mock.patch.object(csvio, "_CHUNK_ROWS", chunk):
        new = outcome(csvio.read_curves, path)
    line = 2 + 2 * (1 + QUOTED_BREAKS[brk])
    assert new[0] is csvio.SchemaError and new[1].startswith(f"line {line}: {message}")
    assert new == outcome(oracle.read_curves, path)


@pytest.mark.parametrize("first,zero", [("a", "-0.0"), ("b", "0.0")])
def test_grid_points_keep_the_first_seen_sign_of_zero(workdir, first, zero):
    rows = {"a": ["a,1,-0.0,1", "a,1,1,1"], "b": ["b,1,0.0,2", "b,1,1,2"]}
    path = workdir / "zeros.csv"
    path.write_text(table(rows[first] + rows["b" if first == "a" else "a"]))
    grid, _, _ = csvio.read_curves(path)
    assert repr(float(grid.components[0].points[0])) == zero


@pytest.mark.parametrize("rows", [valid_rows(comps=(1,)), valid_rows(points=("0", "0.5", "0.75"))])
def test_functional_covariate_fault_messages_match_rowwise_oracle(workdir, rows):
    path = workdir / "fault_covariate.csv"
    path.write_text(table(rows, "curve_id,component,t,temp"))
    grid = uniform_grid(3, p=2)
    new = outcome(csvio.read_functional_covariate, path, grid)
    assert isinstance(new[0], type)
    assert new == outcome(oracle.read_functional_covariate, path, grid)


def test_band_csv_refuses_a_band_that_does_not_fit_the_grid(tmp_path):
    band = Band((np.zeros(3),), (np.ones(3),))
    with pytest.raises(ShapeError, match=r"band bounds have shapes \[\(1, 3\)\]"):
        csvio.write_band_csv(tmp_path / "band.csv", uniform_grid(5), band)
    assert not (tmp_path / "band.csv").exists()


@pytest.mark.parametrize("text,message", [
    ("", "line 1: empty file"),
    ('"' + "x" * 131073 + '",component,t,value\n',
     "line 1: field larger than field limit (131072)"),
])
@pytest.mark.parametrize("read", [csvio.read_curves, csvio.read_scalar_covariates])
def test_header_refusal_messages(tmp_path, read, text, message):
    (tmp_path / "in.csv").write_text(text)
    with pytest.raises(csvio.SchemaError, match=f"^{re.escape(message)}$"):
        read(tmp_path / "in.csv")


def test_an_infinite_band_is_not_written(tmp_path):
    band = Band(lower=None, upper=None, infinite=True)
    with pytest.raises(ValueError, match="^an infinite band has no finite bounds to write$"):
        csvio.write_band_csv(tmp_path / "band.csv", uniform_grid(5), band)
    assert not (tmp_path / "band.csv").exists()


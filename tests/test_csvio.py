"""The column-wise long-table reader against the row-wise oracle.

``rowwise_csvio`` keeps the reader ``csvio`` had before it parsed columns.
On every generated file both readers must agree: a file one accepts the
other accepts with byte-equal ids, grid points, weights and values (so a
``-0.0`` read as ``0.0`` shows), and a file one rejects the other rejects
with the same exception type. Files with a single fault get the same
message from both. Plain files, which numpy's C reader parses, must reach it
whenever they are valid; every other file, and every fault, must give the
oracle's result through the csv path. The band writer's grid check closes the
file, and the writer's bytes are those its former ``csv.writer`` code wrote.
"""

import codecs
import csv
import io
import math
import re
import tracemalloc
import warnings
from contextlib import contextmanager
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    # Spellings Python's int takes and numpy's integer parser refuses.
    "component 1_0": (table([r.replace(",10,", ",1_0,") for r in valid_rows(range(1, 11))]),
                      csvio._CHUNK_BYTES, False),
    "component beyond int64": (table(replaced(",2,", ",9223372036854775808,")),
                               csvio._CHUNK_BYTES, False),
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


def test_a_deprecation_warning_of_the_c_reader_declines_the_file(workdir):
    """Older numpy parses an integer spelled as a float after a
    DeprecationWarning; the warning declines the file even where warnings
    are ignored."""
    loadtxt = np.loadtxt

    def warned(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return loadtxt(*args, **kwargs)

    path = workdir / "deprecated.csv"
    path.write_text(table(VALID))
    with warnings.catch_warnings(), c_reader_calls() as calls, \
            mock.patch.object(np, "loadtxt", warned):
        warnings.simplefilter("ignore")
        new = outcome(csvio.read_curves, path)
    assert calls == [False]
    assert assert_same_curves(new, outcome(oracle.read_curves, path))


@pytest.mark.parametrize("later", ["a,2,0", '"' + "x" * 131073 + '",1,0,1'],
                         ids=["width", "field limit"])
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
], ids=["width", "value", "field limit"])
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


@pytest.mark.parametrize("read,text,same,c_reader", [
    (csvio.read_curves, table(VALID), assert_same_curves, [False, True]),
    (lambda path: csvio.read_functional_covariate(path, uniform_grid(3, p=2)),
     table(VALID, "curve_id,component,t,temp"), assert_same_covariate, [False, True]),
    (csvio.read_scalar_covariates, "curve_id,w,v\na,0.5,1\nb,-2,3\n",
     lambda new, old: new == old, []),
], ids=["curves", "functional", "scalar"])
def test_a_leading_byte_order_mark_is_accepted(tmp_path, read, text, same, c_reader):
    # Excel's "CSV UTF-8" export begins a file with one. The C reader
    # declines its bytes, so such a long table takes the csv path: c_reader
    # says whether the C reader took the marked file, then the plain one.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(codecs.BOM_UTF8 + text.encode())
    with c_reader_calls() as calls:
        assert same(read(marked), read(plain))
    assert calls == c_reader


# Finite floats whose reprs stretch the band writer: a negative zero, the
# smallest subnormal and the largest magnitudes.
EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


def csv_module_band(path, grid, band):
    """The band writer as it was when ``csv.writer`` formatted the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component", "t", "lower", "upper", "closure"])
        for j, comp in enumerate(grid.components):
            writer.writerows(zip(repeat(j + 1), comp.points.tolist(),
                                 band.lower[j].tolist(), band.upper[j].tolist(),
                                 repeat(band.closure)))


@st.composite
def bands(draw):
    """A grid of 1-3 components of 2-8 points and a finite band on it."""
    components, lower, upper = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        points = sorted(set(draw(st.lists(FINITE, min_size=2, max_size=8))))
        while len(points) > 1 and not math.isfinite(points[-1] - points[0]):
            points.pop(0)  # a span beyond the float range has no weights
        assume(len(points) > 1)
        try:
            components.append(ComponentGrid.from_points(points))
        except ShapeError:  # a point spacing that halves to a zero weight
            assume(False)
        bounds = st.lists(FINITE, min_size=len(points), max_size=len(points))
        a, b = np.array(draw(bounds)), np.array(draw(bounds))
        lower.append(np.minimum(a, b))
        upper.append(np.maximum(a, b))
    closure = draw(st.sampled_from(["closed", "open"]))
    return Grid(tuple(components)), Band(tuple(lower), tuple(upper), closure=closure)


@settings(max_examples=60, deadline=None)
@given(case=bands())
def test_band_csv_bytes_are_those_of_the_csv_module(workdir, case):
    grid, band = case
    csvio.write_band_csv(workdir / "band.csv", grid, band)
    csv_module_band(workdir / "oracle.csv", grid, band)
    assert (workdir / "band.csv").read_bytes() == (workdir / "oracle.csv").read_bytes()


def test_band_csv_refuses_a_band_that_does_not_fit_the_grid(tmp_path):
    band = Band((np.zeros(3),), (np.ones(3),))
    with pytest.raises(ShapeError, match=r"band bounds have shapes \[\(1, 3\)\]"):
        csvio.write_band_csv(tmp_path / "band.csv", uniform_grid(5), band)
    assert not (tmp_path / "band.csv").exists()


@pytest.mark.parametrize("text,message", [
    ("", "line 1: empty file"),
    ('"' + "x" * 131073 + '",component,t,value\n',
     "line 1: field larger than field limit (131072)"),
], ids=["empty", "field limit"])
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



def sorted_index_long_columns(name, ids, numbers, curve, comp, t, values, lines):
    """``csvio._long_columns`` as it was when stable sorts took each
    component's distinct t and found its duplicate rows."""
    comps = sorted(numbers)
    if comps != list(range(1, len(comps) + 1)):
        raise csvio.SchemaError(f"component indices must be contiguous from 1, got {comps}")
    columns, duplicates = [], []
    for j in comps:
        at = np.flatnonzero(comp == j)
        _, first = np.unique(t[at], return_index=True)
        points = t[at[first]]
        keys = curve[at] * points.size + np.searchsorted(points, t[at])
        _, once = np.unique(keys, return_index=True)
        if once.size < keys.size:
            if lines is None:
                return None
            repeat = np.ones(keys.size, bool)
            repeat[once] = False
            r = at[np.argmax(repeat)]
            duplicates.append((int(lines[r]), f"duplicate (curve {list(ids)[curve[r]]!r}, "
                               f"component {j}, t={float(t[r])!r})"))
        columns.append((points, keys, values[at]))
    if duplicates:
        raise csvio.SchemaError("line {}: {}".format(*min(duplicates)))
    return name, list(ids), columns


@st.composite
def long_columns_inputs(draw):
    """Parsed long-table columns: every curve on every point of each
    component, zeros of both signs in either order, then rows dropped or
    repeated about half of the time, in any row order."""
    ids = {cid: i for i, cid in enumerate(draw(st.lists(
        st.sampled_from("abcde"), min_size=1, max_size=4, unique=True)))}
    numbers = draw(st.sampled_from([{1}, {1, 2}, {1, 2, 3}] * 3 + [{1, 3}]))
    rows = []
    for j in sorted(numbers):
        points = draw(st.lists(st.sampled_from([-1.0, 0.25, 0.5, 2.0]), max_size=3,
                               unique=True)) + [0.0] * draw(st.integers(0, 1))
        for i in ids.values():
            rows += [(i, j, draw(st.sampled_from([0.0, -0.0])) if p == 0 else p,
                      draw(FINITE)) for p in points or [0.0]]
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            k = draw(st.integers(0, len(rows) - 1))
            if draw(st.booleans()) and len(rows) > 1:
                del rows[k]
            else:
                rows.insert(draw(st.integers(0, len(rows))), rows[k])
    curve, comp, t, values = (np.array(c, dtype) for c, dtype in
                              zip(zip(*rows), (np.intp, np.int64, float, float)))
    numbers = set(comp.tolist())  # the readers take them from the rows
    lines = None
    if draw(st.booleans()):  # the csv path: increasing lines, some skipped
        lines = 2 + np.cumsum(draw(st.lists(st.integers(0, 2), min_size=len(rows),
                                            max_size=len(rows))), dtype=np.int64)
    return "value", ids, numbers, curve, comp, t, values, lines


def long_columns_outcome(inputs, long_columns):
    try:
        return long_columns(*inputs)
    except csvio.SchemaError as exc:
        return str(exc)


def parted_long_columns(name, ids, numbers, curve, comp, t, values, lines):
    """``csvio._long_columns`` of the columns grouped into per-component
    parts as the readers group them, the rows read in two chunks."""
    columns = (curve, t, values) if lines is None else (curve, t, values, lines)
    parts = {}
    for rows in np.array_split(np.arange(comp.size), 2):
        if rows.size:
            csvio._add_parts(parts, comp[rows], *(column[rows] for column in columns))
    return csvio._long_columns(name, ids, numbers, parts)


@settings(max_examples=300, deadline=None)
@given(inputs=long_columns_inputs())
def test_long_columns_match_the_sorted_index_oracle(inputs):
    """Points (the sign of zero included), keys, values and duplicate
    messages are those of the stable-sort index, on the plain path
    (``lines`` None) and the csv path."""
    new = long_columns_outcome(inputs, parted_long_columns)
    old = long_columns_outcome(inputs, sorted_index_long_columns)
    if not isinstance(old, tuple):
        assert new == old
        return
    assert new[:2] == old[:2]
    for column, old_column in zip(new[2], old[2], strict=True):
        for a, b in zip(column, old_column, strict=True):
            assert same_arrays(a, b)


def test_a_sparse_long_table_is_not_counted_key_by_key(tmp_path, monkeypatch):
    """Each of 300 curves on its own point spans 300 x 300 keys; no count
    array is longer than the table."""
    bincount, longest = np.bincount, []

    def counted(*args, **kwargs):
        out = bincount(*args, **kwargs)
        longest.append(out.size)
        return out

    monkeypatch.setattr(np, "bincount", counted)
    rows = [f"c{i},1,{i},1.0" for i in range(300)] + ["c0,1,0,2.0"]
    (tmp_path / "curves.csv").write_text("\n".join(["curve_id,component,t,value", *rows]))
    with pytest.raises(csvio.SchemaError, match="^line 302: duplicate "
                       r"\(curve 'c0', component 1, t=0.0\)$"):
        csvio.read_curves(tmp_path / "curves.csv")
    assert max(longest, default=0) <= len(rows)


@pytest.mark.parametrize("merge", [csvio._covariate_blocks, csvio.merge_covariates])
@pytest.mark.parametrize("scalar_gap,functional_gap,message", [
    ("c", "b", "functional covariate 'f' has no rows for curve 'b'"),
    ("b", "b", "covariates file has no row for curve 'b'"),
], ids=["earlier curve first", "scalar gap first"])
def test_the_first_curve_with_a_gap_names_it(merge, scalar_gap, functional_gap, message):
    ids = ["a", "b", "c"]
    scalar = {cid: {"w": 1.0} for cid in ids if cid != scalar_gap}
    table = {cid: (np.zeros(2),) for cid in ids if cid != functional_gap}
    with pytest.raises(csvio.SchemaError, match=f"^{re.escape(message)}$"):
        merge(ids, scalar, [("f", table)])


def write_grid_table(path, curves: int, points: int) -> int:
    """A curves file of two components on ``points`` points each; its rows."""
    rows = [f"c{i},{j},{k / (points - 1)!r},{i + k / 8}"
            for j in (1, 2) for i in range(curves) for k in range(points)]
    path.write_text("\n".join(["curve_id,component,t,value", *rows]) + "\n")
    return len(rows)


def test_the_plain_path_keeps_few_bytes_a_row(tmp_path, monkeypatch):
    """A table of about 130 chunks peaks at 36 traced bytes a row, a read of
    the 400k-row benchmark table at 28.5; 44 leaves a fifth for the id memo,
    the chunks' arrays and numpy's allocations. Whole-file columns, concatenated
    beside their chunks, took about 70."""
    monkeypatch.setattr(csvio, "_CHUNK_BYTES", 4096)
    write_grid_table(tmp_path / "warm.csv", 2, 3)
    csvio._curve_blocks(tmp_path / "warm.csv")  # numpy's and Python's lazy set-up
    rows = write_grid_table(tmp_path / "curves.csv", 400, 25)
    with c_reader_calls(4096) as calls:
        tracemalloc.start()
        try:
            _, ids, blocks = csvio._curve_blocks(tmp_path / "curves.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert calls == [True] and len(ids) == 400 and [b.shape for b in blocks] == [(400, 25)] * 2
    assert peak / rows <= 44


def test_a_table_of_2_31_curves_takes_the_csv_path(tmp_path, monkeypatch):
    """The plain path's int32 curve codes end at 2**31 - 1: a table with more
    curves is declined to the csv path rather than raise OverflowError. Only
    the plain path runs here: the id memo's length is faked, not its ids."""

    class Offset(csvio._Memo):  # as if 2**31 - 1 curves came first
        def __len__(self):
            return super().__len__() + 2**31 - 1

    monkeypatch.setattr(csvio, "_Memo", Offset)
    path = tmp_path / "curves.csv"
    path.write_text("curve_id,component,t,value\na,1,0,1\na,1,1,2\n")
    assert csvio._plain_table(path, "value") is not None  # code 2**31 - 1
    path.write_text("curve_id,component,t,value\na,1,0,1\na,1,1,2\nb,1,0,1\nb,1,1,2\n")
    assert csvio._plain_table(path, "value") is None

"""CSV schemas for curves, covariates and emitted bands.

All curve-like data travel in long format, ``curve_id,component,t,value``,
with 1-based component indices; ragged per-component grids survive this
shape. Scalar covariates use a wide table ``curve_id,<name>,...``; each
functional covariate ships in its own long-format file whose fourth column
names the covariate.

What a file must hold to be accepted:

- UTF-8 text as Python's ``csv`` module reads it; blank records are skipped,
  and ids and header names are stripped of surrounding whitespace;
- each component field as parsed by Python's ``int`` (at least 1) and each
  ``t``, value and covariate field as parsed by Python's ``float`` (finite),
  so ``+1``, ``1_0`` and digits of other scripts are accepted as Python
  accepts them;
- no two rows for one (curve, component, t), components contiguous from 1,
  every component sampled at two or more points, and every curve sampled on
  every point of every component;
- each covariate name defined once, across the scalar table and the
  functional covariate files.

Schema violations report the file line on which the faulty record starts,
the header being line 1, so a quoted field that spans lines counts every
line it spans. Long tables are parsed ``_CHUNK_ROWS`` records at a time into
column arrays: within a chunk the earliest faulty row is reported, its
fields checked in the order width, component, t, value; duplicate rows and
coverage are checked once the whole file is read.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from itertools import islice, repeat

import numpy as np

from .conformal import Band
from .core import (
    ComponentGrid,
    Covariates,
    Grid,
    MFConformalError,
    MFCurve,
    ShapeError,
)

__all__ = [
    "SchemaError",
    "read_curves",
    "read_scalar_covariates",
    "read_functional_covariate",
    "write_band_csv",
]


class SchemaError(MFConformalError, ValueError):
    """A CSV file violates its documented schema."""


# Records read and checked at a time. Few enough that Python's cyclic garbage
# collector does not rescan many live row lists: 8192 made the long-table
# reader about a fifth slower on a 400k-row file.
_CHUNK_ROWS = 512
_INT64_MAX = np.iinfo(np.int64).max


@contextmanager
def _csv_reader(path):
    """The header row and a ``csv.reader`` over the data rows of a UTF-8
    file. An empty file and faults of the reader or the decoder are schema
    errors."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError("line 1: empty file")
            yield header, reader
        except csv.Error as exc:
            raise SchemaError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None


def _data_chunks(reader, width: int):
    """(file lines, rows) of each run of up to ``_CHUNK_ROWS`` data records,
    blank records left out; every row has ``width`` columns, and its line is
    the one it starts on. A fault of the reader, the decoder or a row's width
    is raised once the rows before it have been yielded; a file with a header
    but no data rows is a schema error."""
    empty = True
    while True:
        records, fault = [], None
        start = reader.line_num + 1
        try:
            records.extend(islice(reader, _CHUNK_ROWS))
        except (csv.Error, UnicodeDecodeError) as exc:
            fault = exc
        count = len(records)
        lines, line = range(start, start + count), start + count
        if reader.line_num + 1 != line:  # a quoted field spans lines, or a fault
            lines, line = [], start
            for row in records:
                lines.append(line)
                line += 1 + sum(
                    f.count("\n") + f.count("\r") - f.count("\r\n") for f in row
                )
        if isinstance(fault, csv.Error):  # at the line its record starts on
            fault = SchemaError(f"line {line}: {fault}")
        if set(map(len, records)) != {width}:  # blank records or a wrong width
            for k, row in enumerate(records):
                if row and len(row) != width:
                    fault = SchemaError(
                        f"line {lines[k]}: expected {width} columns, got {len(row)}"
                    )
                    del records[k:]
                    break
            lines = [line for line, row in zip(lines, records) if row]
            records = [row for row in records if row]
        if records:
            empty = False
            yield lines, records
        if fault is not None:
            raise fault
        if not count:
            break
    if empty:
        raise SchemaError("file has a header but no data rows")


def _parse_float(text: str, line: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"line {line}: {what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise SchemaError(f"line {line}: {what} {text!r} is not finite")
    return value


def _parse_component(text: str, line: int) -> int:
    try:
        comp = int(text)
    except ValueError:
        raise SchemaError(f"line {line}: component {text!r} is not an integer") from None
    if comp < 1:
        raise SchemaError(f"line {line}: component indices are 1-based")
    return comp


class _Memo(dict):
    """``convert(text)`` of each distinct text, computed once."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, text):
        value = self[text] = self.convert(text)
        return value


def _number(text: str) -> float:
    """``float(text)``, NaN when the text is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _component_code(text: str) -> int:
    """``int(text)`` clipped into int64, 0 when the text is not an integer.
    A clipped value is rejected as non-contiguous."""
    try:
        return min(max(int(text), 0), _INT64_MAX)
    except ValueError:
        return 0


def _parse_chunk(lines, rows, name: str, ids: _Memo, components: _Memo, ts: _Memo):
    """Curve index, component, t, value and line arrays of a chunk of rows.
    The earliest faulty row raises the row-wise message: component first,
    then t, then the value."""
    cid, comp, t, value = zip(*rows)
    n = len(rows)
    curve = np.fromiter(map(ids.__getitem__, map(str.strip, cid)), np.intp, n)
    comps = np.fromiter(map(components.__getitem__, comp), np.int64, n)
    points = np.fromiter(map(ts.__getitem__, t), float, n)
    try:
        values = np.fromiter(map(float, value), float, n)
    except ValueError:
        values = np.fromiter(map(_number, value), float, n)
    bad = (comps < 1) | ~np.isfinite(points) | ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        _parse_component(comp[i], lines[i])
        _parse_float(t[i], lines[i], "t")
        _parse_float(value[i], lines[i], name)
    return curve, comps, points, values, np.fromiter(lines, np.int64, n)


def _read_long_table(path, value_col: str):
    """Parse a ``curve_id,component,t,<value_col>`` file column-wise into the
    value column's name, the stripped curve ids in first-seen order and, per
    component, a ``(points, keys, values)`` column: the sorted distinct t
    (a zero keeps the sign of its first row), each row's ``curve * G_j +
    point index`` and each row's value."""
    ids = _Memo(lambda cid: len(ids))  # first-seen index; keys in that order
    components, ts = _Memo(_component_code), _Memo(_number)
    with _csv_reader(path) as (header, reader):
        if len(header) != 4 or [h.strip() for h in header[:3]] != [
            "curve_id",
            "component",
            "t",
        ]:
            raise SchemaError(
                f"line 1: expected header curve_id,component,t,{value_col}"
            )
        name = header[3].strip()
        # The chunks' arrays live only until they are concatenated.
        curve, comp, t, values, lines = map(np.concatenate, zip(*[
            _parse_chunk(numbers, rows, name, ids, components, ts)
            for numbers, rows in _data_chunks(reader, 4)
        ]))
    comps = sorted({int(text) for text in components})  # unclipped, for the message
    if comps != list(range(1, len(comps) + 1)):
        raise SchemaError(f"component indices must be contiguous from 1, got {comps}")
    columns, duplicates = [], []
    for j in comps:
        at = np.flatnonzero(comp == j)
        _, first = np.unique(t[at], return_index=True)
        points = t[at[first]]
        keys = curve[at] * points.size + np.searchsorted(points, t[at])
        _, once = np.unique(keys, return_index=True)
        if once.size < keys.size:
            repeat = np.ones(keys.size, bool)
            repeat[once] = False
            r = at[np.argmax(repeat)]
            duplicates.append((int(lines[r]), f"duplicate (curve {list(ids)[curve[r]]!r}, "
                               f"component {j}, t={float(t[r])!r})"))
        columns.append((points, keys, values[at]))
    if duplicates:
        raise SchemaError("line {}: {}".format(*min(duplicates)))
    return name, list(ids), columns


def _blocks(ids: list[str], columns) -> list[np.ndarray]:
    """One ``(len(ids), G_j)`` block per component column. A curve that
    misses a component or one of its points raises, the first curve first."""
    counts = np.stack(
        [np.bincount(keys // points.size, minlength=len(ids))
         for points, keys, _ in columns], axis=1
    )
    bad = counts != [points.size for points, _, _ in columns]
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), len(columns))
        if counts[i, j] == 0:
            raise SchemaError(f"curve {ids[i]!r} is missing component {j + 1}")
        raise SchemaError(
            f"curve {ids[i]!r} component {j + 1} does not cover the same grid "
            f"points as the other curves"
        )
    blocks = []
    for points, keys, values in columns:
        block = np.empty((len(ids), points.size))
        block.reshape(-1)[keys] = values
        blocks.append(block)
    return blocks


def read_curves(path) -> tuple[Grid, list[str], list[MFCurve]]:
    """Read response curves; the shared grid (trapezoid weights) is inferred
    from the union of sampled points."""
    name, ids, columns = _read_long_table(path, "value")
    if name != "value":
        raise SchemaError(f"line 1: value column must be named 'value', got {name!r}")
    components = []
    for j, (points, _, _) in enumerate(columns, start=1):
        try:
            components.append(ComponentGrid.from_points(points))
        except ShapeError as exc:
            raise SchemaError(f"{path}: component {j}: {exc}") from None
    grid = Grid(tuple(components))
    curves = [MFCurve(values) for values in zip(*_blocks(ids, columns))]
    return grid, ids, curves


def read_scalar_covariates(path) -> tuple[list[str], dict[str, dict[str, float]]]:
    """Read the wide scalar-covariate table ``curve_id,<name>,...``."""
    with _csv_reader(path) as (header, reader):
        if not header or header[0].strip() != "curve_id":
            raise SchemaError("line 1: first column must be curve_id")
        names = [h.strip() for h in header[1:]]
        if len(set(names)) != len(names):
            raise SchemaError("line 1: duplicate covariate names")
        rows: dict[str, dict[str, float]] = {}
        for lines, chunk in _data_chunks(reader, len(header)):
            for line, row in zip(lines, chunk):
                cid = row[0].strip()
                if cid in rows:
                    raise SchemaError(f"line {line}: duplicate curve_id {cid!r}")
                rows[cid] = {
                    name: _parse_float(v, line, name) for name, v in zip(names, row[1:])
                }
    return list(rows), rows


def read_functional_covariate(
    path, grid: Grid
) -> tuple[str, dict[str, tuple[np.ndarray, ...]]]:
    """Read one functional covariate file; sampled points must match the
    grid exactly."""
    name, ids, columns = _read_long_table(path, "<name>")
    if len(columns) != grid.p:
        raise SchemaError(
            f"functional covariate {name!r} has {len(columns)} components, "
            f"the curves have {grid.p}"
        )
    for j, ((pts, _, _), comp) in enumerate(zip(columns, grid.components), start=1):
        if pts.size != comp.points.size or not np.array_equal(pts, comp.points):
            raise SchemaError(
                f"functional covariate {name!r} component {j} is sampled on "
                f"different points than the curves"
            )
    return name, dict(zip(ids, zip(*_blocks(ids, columns))))


def merge_covariates(
    curve_ids: list[str],
    scalar: dict[str, dict[str, float]] | None,
    functional: list[tuple[str, dict[str, tuple[np.ndarray, ...]]]],
) -> list[Covariates]:
    """Assemble one Covariates object per curve id, requiring every covariate
    table to cover every curve and every covariate name to be defined once."""
    scalar_names = set(next(iter(scalar.values()), {})) if scalar else set()
    functional_names = set()
    for name, _ in functional:
        if name in scalar_names:
            raise SchemaError(f"covariate {name!r} is defined twice: as a scalar "
                              "covariate and by a functional covariate file")
        if name in functional_names:
            raise SchemaError(f"covariate {name!r} is defined twice: by two "
                              "functional covariate files")
        functional_names.add(name)
    out = []
    for cid in curve_ids:
        sc = {}
        if scalar is not None:
            if cid not in scalar:
                raise SchemaError(f"covariates file has no row for curve {cid!r}")
            sc = scalar[cid]
        fn = {}
        for name, table in functional:
            if cid not in table:
                raise SchemaError(
                    f"functional covariate {name!r} has no rows for curve {cid!r}"
                )
            fn[name] = table[cid]
        out.append(Covariates(scalar=sc, functional=fn))
    return out


def write_band_csv(path, grid: Grid, band: Band) -> None:
    """Emit ``component,t,lower,upper,closure`` rows (components 1-based) of a
    band shaped for ``grid``."""
    if band.infinite:
        raise ValueError("an infinite band has no finite bounds to write")
    grid.validate_blocks([b[None] for b in band.lower], "band bounds")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component", "t", "lower", "upper", "closure"])
        # csv writes a Python float as its repr, the shortest exact form.
        for j, comp in enumerate(grid.components):
            writer.writerows(zip(repeat(j + 1), comp.points.tolist(),
                                 band.lower[j].tolist(), band.upper[j].tolist(),
                                 repeat(band.closure)))

"""CSV schemas for curves, covariates and emitted bands.

All curve-like data travel in long format, ``curve_id,component,t,value``,
with 1-based component indices; ragged per-component grids survive this
shape. Scalar covariates use a wide table ``curve_id,<name>,...``; each
functional covariate ships in its own long-format file whose fourth column
names the covariate. Schema violations report the offending line number.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager

import numpy as np

from .conformal import Band
from .core import ComponentGrid, Covariates, Grid, MFConformalError, MFCurve

__all__ = [
    "SchemaError",
    "read_curves",
    "read_scalar_covariates",
    "read_functional_covariate",
    "write_band_csv",
]


class SchemaError(MFConformalError, ValueError):
    """A CSV file violates its documented schema."""


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


def _data_rows(reader, width: int):
    """(line number, row) of each non-blank data row, each with ``width``
    columns; a file with a header but no data rows is a schema error."""
    empty = True
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise SchemaError(f"line {line}: expected {width} columns, got {len(row)}")
        empty = False
        yield line, row
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


def _read_long_table(path, value_col: str):
    """Parse a ``curve_id,component,t,<value_col>`` file into
    {curve_id: {component: {t: value}}} plus the per-component t sets."""
    cells: dict[str, dict[int, dict[float, float]]] = {}
    order: list[str] = []
    ts: dict[int, set[float]] = {}
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
        for line, row in _data_rows(reader, 4):
            cid = row[0].strip()
            comp = _parse_component(row[1], line)
            t = _parse_float(row[2], line, "t")
            val = _parse_float(row[3], line, name)
            if cid not in cells:
                cells[cid] = {}
                order.append(cid)
            comp_cells = cells[cid].setdefault(comp, {})
            if t in comp_cells:
                raise SchemaError(
                    f"line {line}: duplicate (curve {cid!r}, component {comp}, t={t!r})"
                )
            comp_cells[t] = val
            ts.setdefault(comp, set()).add(t)
    return name, cells, order, ts


def _component_points(ts: dict[int, set[float]]) -> list[np.ndarray]:
    comps = sorted(ts)
    if comps != list(range(1, len(comps) + 1)):
        raise SchemaError(f"component indices must be contiguous from 1, got {comps}")
    return [np.array(sorted(ts[c])) for c in comps]


def _values_on(points: list[np.ndarray], cid: str, comp_cells: dict) -> tuple:
    values = []
    for j, pts in enumerate(points, start=1):
        cells = comp_cells.get(j)
        if cells is None:
            raise SchemaError(f"curve {cid!r} is missing component {j}")
        if len(cells) != pts.size or any(t not in cells for t in pts):
            raise SchemaError(
                f"curve {cid!r} component {j} does not cover the same grid "
                f"points as the other curves"
            )
        values.append(np.array([cells[t] for t in pts]))
    return tuple(values)


def read_curves(path) -> tuple[Grid, list[str], list[MFCurve]]:
    """Read response curves; the shared grid (trapezoid weights) is inferred
    from the union of sampled points."""
    name, cells, order, ts = _read_long_table(path, "value")
    if name != "value":
        raise SchemaError(f"line 1: value column must be named 'value', got {name!r}")
    points = _component_points(ts)
    grid = Grid(tuple(ComponentGrid.from_points(p) for p in points))
    curves = [MFCurve(_values_on(points, cid, cells[cid])) for cid in order]
    return grid, order, curves


def read_scalar_covariates(path) -> tuple[list[str], dict[str, dict[str, float]]]:
    """Read the wide scalar-covariate table ``curve_id,<name>,...``."""
    with _csv_reader(path) as (header, reader):
        if not header or header[0].strip() != "curve_id":
            raise SchemaError("line 1: first column must be curve_id")
        names = [h.strip() for h in header[1:]]
        if len(set(names)) != len(names):
            raise SchemaError("line 1: duplicate covariate names")
        rows: dict[str, dict[str, float]] = {}
        order = []
        for line, row in _data_rows(reader, len(header)):
            cid = row[0].strip()
            if cid in rows:
                raise SchemaError(f"line {line}: duplicate curve_id {cid!r}")
            rows[cid] = {
                name: _parse_float(v, line, name) for name, v in zip(names, row[1:])
            }
            order.append(cid)
    return order, rows


def read_functional_covariate(
    path, grid: Grid
) -> tuple[str, dict[str, tuple[np.ndarray, ...]]]:
    """Read one functional covariate file; sampled points must match the
    grid exactly."""
    name, cells, order, ts = _read_long_table(path, "<name>")
    points = _component_points(ts)
    if len(points) != grid.p:
        raise SchemaError(
            f"functional covariate {name!r} has {len(points)} components, "
            f"the curves have {grid.p}"
        )
    for j, (pts, comp) in enumerate(zip(points, grid.components), start=1):
        if pts.size != comp.points.size or not np.array_equal(pts, comp.points):
            raise SchemaError(
                f"functional covariate {name!r} component {j} is sampled on "
                f"different points than the curves"
            )
    return name, {cid: _values_on(points, cid, cells[cid]) for cid in order}


def merge_covariates(
    curve_ids: list[str],
    scalar: dict[str, dict[str, float]] | None,
    functional: list[tuple[str, dict[str, tuple[np.ndarray, ...]]]],
) -> list[Covariates]:
    """Assemble one Covariates object per curve id, requiring every covariate
    table to cover every curve."""
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
    """Emit ``component,t,lower,upper,closure`` rows (components 1-based)."""
    if band.infinite:
        raise ValueError("an infinite band has no finite bounds to write")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component", "t", "lower", "upper", "closure"])
        for j, comp in enumerate(grid.components):
            for t, lo, hi in zip(comp.points, band.lower[j], band.upper[j]):
                writer.writerow(
                    [j + 1, repr(float(t)), repr(float(lo)), repr(float(hi)), band.closure]
                )

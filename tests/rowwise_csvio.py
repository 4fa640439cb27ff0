"""The row-wise long-table reader that ``csvio`` used before its column-wise
reader, kept as the oracle of ``test_csvio.py``. It parses each row into a
dict of dicts per curve and component, then reads every curve off them."""

import numpy as np

from mfconformal.core import ComponentGrid, Grid, MFCurve, ShapeError
from mfconformal.csvio import (
    SchemaError,
    _csv_reader,
    _parse_component,
    _parse_float,
)


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
    name, cells, order, ts = _read_long_table(path, "value")
    if name != "value":
        raise SchemaError(f"line 1: value column must be named 'value', got {name!r}")
    points = _component_points(ts)
    components = []
    for j, p in enumerate(points, start=1):
        try:
            components.append(ComponentGrid.from_points(p))
        except ShapeError as exc:
            raise SchemaError(f"{path}: component {j}: {exc}") from None
    grid = Grid(tuple(components))
    curves = [MFCurve(_values_on(points, cid, cells[cid])) for cid in order]
    return grid, order, curves


def read_functional_covariate(
    path, grid: Grid
) -> tuple[str, dict[str, tuple[np.ndarray, ...]]]:
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

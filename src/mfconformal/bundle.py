"""Self-contained model bundles.

A bundle persists everything needed to reproduce bands for new covariates:
grid, regressor coefficients, modulation samples, calibrated radius and
closure, level and mode. Floats survive the JSON round trip exactly (they
are written with Python's shortest exact representation).
"""

from __future__ import annotations

import functools

from .conformal import BandPredictor
from .core import (ComponentGrid, Grid, MFConformalError, _json_object, _json_value,
                   _json_write)
from .modulate import ModulationSet
from .regress import FittedRegressor, RegressorSpec

__all__ = ["FORMAT_VERSION", "BundleFormatError", "save_bundle", "load_bundle"]

FORMAT_VERSION = 1


class BundleFormatError(MFConformalError, ValueError):
    """The bundle file cannot be interpreted."""


def _grid_to_doc(grid: Grid) -> dict:
    return {
        "components": [
            {"points": c.points.tolist(), "weights": c.weights.tolist()}
            for c in grid.components
        ]
    }


def _fields(doc: dict, key: str):
    """A reader of the fields of the JSON object ``doc[key]``, naming ``key``."""
    return functools.partial(_json_value, _json_value(doc, key, dict), label=f"{key}: ")


def _component_from_doc(j: int, doc: dict) -> ComponentGrid:
    """Grid component ``j``; a refusal, the grid's own among them, names it."""
    try:
        return ComponentGrid(*(_json_value(doc, key, list) for key in ("points", "weights")))
    except ValueError as exc:
        raise ValueError(f"grid.components[{j}]: {exc}") from exc


def _grid_from_doc(doc: dict) -> Grid:
    return Grid(tuple(
        _component_from_doc(j, c)
        for j, c in enumerate(_fields(doc, "grid")("components", list, item=dict))
    ))


def predictor_to_doc(pred: BandPredictor, metadata: dict | None = None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "grid": _grid_to_doc(pred.model.grid),
        "regressor": {
            "kind": pred.model.spec.kind,
            "intercept": pred.model.spec.intercept,
            "terms": [list(t) for t in pred.model.spec.terms],
            "coefficients": [c.tolist() for c in pred.model.coefficients],
        },
        "modulation": {
            "label": pred.modulation.label,
            "fns": [f.tolist() for f in pred.modulation.fns],
            "unit_integral": pred.modulation.unit_integral,
        },
        "radius": None if pred.infinite else pred.radius,
        "closure": pred.closure,
        "infinite": pred.infinite,
        "alpha": pred.alpha,
        "mode": pred.mode,
        "tau": pred.tau,
        "metadata": metadata or {},
    }


def predictor_from_doc(doc: dict) -> tuple[BandPredictor, dict]:
    version = _json_value(doc, "format_version", int, None,
                          error=BundleFormatError, label="malformed bundle: ")
    if version != FORMAT_VERSION:
        raise BundleFormatError(
            f"bundle format version {version!r} not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    try:
        grid = _grid_from_doc(doc)
        reg = _fields(doc, "regressor")
        spec = RegressorSpec(
            kind=reg("kind", str),
            terms=tuple(map(tuple, reg("terms", list, item=list))),
            intercept=reg("intercept", bool),
        )
        model = FittedRegressor(
            grid=grid,
            spec=spec,
            coefficients=tuple(reg("coefficients", list)),
        )
        mod = _fields(doc, "modulation")
        s = ModulationSet(
            grid=grid,
            fns=tuple(mod("fns", list)),
            label=mod("label", str),
            unit_integral=mod("unit_integral", bool, False),
        )
        infinite = _json_value(doc, "infinite", bool)
        pred = BandPredictor(
            model=model,
            modulation=s,
            radius=float("nan") if infinite else _json_value(doc, "radius", float),
            closure=_json_value(doc, "closure", str),
            alpha=_json_value(doc, "alpha", float),
            mode=_json_value(doc, "mode", str),
            tau=None if doc.get("tau") is None else _json_value(doc, "tau", float),
            infinite=infinite,
        )
        metadata = _json_value(doc, "metadata", dict, {})
    except ValueError as exc:
        raise BundleFormatError(f"malformed bundle: {exc}") from exc
    return pred, dict(metadata)


def save_bundle(path, pred: BandPredictor, metadata: dict | None = None) -> None:
    _json_write(path, predictor_to_doc(pred, metadata))


def load_bundle(path) -> tuple[BandPredictor, dict]:
    return predictor_from_doc(_json_object(path, BundleFormatError, "bundle"))

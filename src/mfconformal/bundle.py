"""Self-contained model bundles.

A bundle persists everything needed to reproduce bands for new covariates:
grid, regressor coefficients, modulation samples, calibrated radius and
closure, level and mode. Floats survive the JSON round trip exactly (they
are written with Python's shortest exact representation).
"""

from __future__ import annotations

import json

import numpy as np

from .conformal import BandPredictor
from .core import ComponentGrid, Grid, MFConformalError, _json_object, _json_value
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


def _grid_from_doc(doc: dict) -> Grid:
    comps = tuple(
        ComponentGrid(np.array(c["points"]), np.array(c["weights"]))
        for c in doc["components"]
    )
    return Grid(comps)


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
        grid = _grid_from_doc(_json_value(doc, "grid", dict))
        reg = _json_value(doc, "regressor", dict)
        spec = RegressorSpec(
            kind=_json_value(reg, "kind", str),
            terms=tuple(map(tuple, _json_value(reg, "terms", list, item=list))),
            intercept=_json_value(reg, "intercept", bool),
        )
        model = FittedRegressor(
            grid=grid,
            spec=spec,
            coefficients=tuple(np.array(c) for c in reg["coefficients"]),
        )
        mod = _json_value(doc, "modulation", dict)
        s = ModulationSet(
            grid=grid,
            fns=tuple(np.array(f) for f in mod["fns"]),
            label=_json_value(mod, "label", str),
            unit_integral=_json_value(mod, "unit_integral", bool, False),
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
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleFormatError(f"malformed bundle: {exc}") from exc
    return pred, dict(metadata)


def save_bundle(path, pred: BandPredictor, metadata: dict | None = None) -> None:
    doc = predictor_to_doc(pred, metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bundle(path) -> tuple[BandPredictor, dict]:
    return predictor_from_doc(_json_object(path, BundleFormatError, "bundle"))

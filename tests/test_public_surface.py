"""Pin of the public surface.

The package ``__all__``, each module's ``__all__``, the signature of every
public callable (with the base classes and public methods of public
classes), the field names of public dataclasses, the CLI subcommands with
their arguments, the exit codes and the bundle format version are compared
with ``public_surface.json``. Dropping or changing any of them needs a
version bump and a CHANGES.md note; after such a deliberate change,
regenerate the snapshot with ``PYTHONPATH=src python tests/test_public_surface.py``.
"""

import argparse
import dataclasses
import inspect
import json
import pathlib

import mfconformal
from mfconformal import (
    bundle,
    cli,
    conformal,
    core,
    csvio,
    harness,
    modulate,
    regress,
    simgen,
)

SNAPSHOT = pathlib.Path(__file__).with_name("public_surface.json")
MODULES = (bundle, conformal, core, csvio, harness, modulate, regress, simgen)


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except ValueError:
        return "<no signature>"


def _describe(obj):
    if not callable(obj):
        return repr(obj)
    if not inspect.isclass(obj):
        return _signature(obj)
    doc = {"signature": _signature(obj),
           "bases": [b.__name__ for b in obj.__bases__]}
    if dataclasses.is_dataclass(obj):
        doc["fields"] = [f.name for f in dataclasses.fields(obj)]
    doc["members"] = {
        name: _signature(getattr(obj, name)) if not isinstance(attr, property)
        else "<property>"
        for name, attr in sorted(vars(obj).items())
        if not name.startswith("_")
        and (isinstance(attr, (property, classmethod, staticmethod))
             or inspect.isfunction(attr))
    }
    return doc


def _cli_surface() -> dict:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        "top": sorted(s for a in parser._actions for s in a.option_strings),
        "commands": {
            name: [a.option_strings or [a.dest] for a in p._actions]
            for name, p in sorted(sub.choices.items())
        },
    }


def surface() -> dict:
    return {
        "version": mfconformal.__version__,
        "package_all": list(mfconformal.__all__),
        "modules": {
            m.__name__: {name: _describe(getattr(m, name)) for name in m.__all__}
            for m in MODULES
        },
        "cli": _cli_surface(),
        "exit_codes": [cli.EXIT_OK, cli.EXIT_SCHEMA, cli.EXIT_NUMERIC],
        "bundle_format_version": bundle.FORMAT_VERSION,
    }


def test_public_surface_matches_the_snapshot():
    assert surface() == json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_package_names_resolve_and_bundle_format_is_1():
    assert all(hasattr(mfconformal, name) for name in mfconformal.__all__)
    assert bundle.FORMAT_VERSION == 1


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(surface(), indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")

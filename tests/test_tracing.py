"""The benchmark's traced names resolve to distinct library functions.

``perfbench/tracing.py`` rebinds each (module, function) of its ``TRACED``
list by identity: a deleted name breaks the benchmark, and a name bound
to another listed function, such as an alias, gets that function wrapped
twice.  The test reads the list from the file and writes nothing under
``perfbench/``.
"""

import runpy
from importlib import import_module
from pathlib import Path

TRACED = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))["TRACED"]


def test_traced_names_exist():
    missing = [(m, f) for m, f, *_ in TRACED if not hasattr(import_module(f"ghost_slopes.{m}"), f)]
    assert missing == []


def test_traced_functions_are_distinct():
    fns = [getattr(import_module(f"ghost_slopes.{m}"), f) for m, f, *_ in TRACED]
    assert len({id(fn) for fn in fns}) == len(fns)

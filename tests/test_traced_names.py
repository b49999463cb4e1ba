"""Every name perfbench's trace wraps still resolves in the package.

perfbench/spans.py replaces each traced function at the module binding its
caller looks up, and each traced method on its class; CI runs perfbench with
``--trace 1``, so a deletion or a move of one of these names would break
those runs.  This reads the lists and leaves perfbench as it is.
"""

import importlib.util
from importlib import import_module
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_method_resolves():
    spans = _spans()
    assert spans.FUNCTIONS and spans.METHODS
    missing = [f"{m}.{attr}" for m, attr, _ in spans.FUNCTIONS
               if not callable(getattr(import_module(f"fairthresh.{m}"), attr, None))]
    missing += [f"{m}.{cls}.{attr}" for m, cls, attr, _ in spans.METHODS
                if not callable(getattr(getattr(import_module(f"fairthresh.{m}"), cls, None), attr, None))]
    assert missing == []

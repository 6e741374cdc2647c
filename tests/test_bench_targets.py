"""Every callable the benchmark traces must still exist in the library.

The benchmark's trace mode patches the names listed in perfbench/spans.py;
a rename or deletion there would only show when the benchmark runs.  The
targets are resolved here exactly as Tracer.install resolves them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("layer, modname, path", TARGETS, ids=[t[0] for t in TARGETS])
def test_trace_target_resolves(layer, modname, path):
    module = importlib.import_module(modname)
    if "." in path:
        cls_name, attr = path.split(".")
        target = getattr(module, cls_name).__dict__[attr]
    else:
        target = getattr(module, path)
    assert callable(target)

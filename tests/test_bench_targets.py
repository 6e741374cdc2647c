"""Every callable the benchmark traces must still exist in the library.

The benchmark's trace mode patches the names listed in perfbench/spans.py;
a rename or deletion there would only show when the benchmark runs.  The
targets are resolved here exactly as Tracer.install resolves them.  A
function that another module imports by name is patched there only while
that module's binding is the very same object.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import ttpkit

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


def _by_name_bindings():
    """(module, name, owner) for every traced function bound by name in another ttpkit module."""
    out = []
    for info in pkgutil.iter_modules(ttpkit.__path__):
        module = importlib.import_module(f"ttpkit.{info.name}")
        for _, owner, path in TARGETS:
            if "." not in path and owner != module.__name__ and path in vars(module):
                out.append((module.__name__, path, owner))
    return out


BY_NAME = _by_name_bindings()


def test_census_obstructions_are_bound_by_name_in_classify():
    assert ("ttpkit.classify", "degree3_overlap_elements", "ttpkit.rewrite") in BY_NAME


@pytest.mark.parametrize("user, name, owner", BY_NAME, ids=[f"{u}.{n}" for u, n, _ in BY_NAME])
def test_by_name_import_is_the_traced_function(user, name, owner):
    assert getattr(importlib.import_module(user), name) is getattr(importlib.import_module(owner), name)

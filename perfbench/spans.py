"""Spans around calls into ttpkit's public functions, recorded from outside.

Each wrapped call records a span: layer name, start, end, parent span and
job id.  Spans stay in memory (flat arrays) until the run ends, then they
are written out and reduced to the per-layer table: call counts, self time
(span time minus the time covered by child spans) and a few layer counts.

Names imported into other ttpkit modules by name (``from .homology import
minimal_resolution``) are patched there too, so every call site is seen.
Scalar operators are not wrapped: from outside, the wrapper would cost more
than the work.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# (layer, module, attribute path) for every traced callable.
TARGETS = [
    ("cli.run", "ttpkit.cli", "run"),
    ("rewrite.reduce", "ttpkit.rewrite", "RewriteSystem.reduce"),
    ("rewrite.complete", "ttpkit.rewrite", "RewriteSystem.complete"),
    ("rewrite.normal_words", "ttpkit.rewrite", "RewriteSystem.normal_words"),
    ("rewrite.degree3_overlap_elements", "ttpkit.rewrite", "degree3_overlap_elements"),
    ("freealg.mul", "ttpkit.freealg", "NCPoly.__mul__"),
    ("scalars.rank_kernel", "ttpkit.scalars", "ScalarMatrix.rank_kernel"),
    ("scalars.echelon_insert", "ttpkit.scalars", "EchelonSpan.insert"),
    ("homology.component_matrix", "ttpkit.homology", "GradedComplex.component_matrix"),
    ("homology.minimal_resolution", "ttpkit.homology", "minimal_resolution"),
    ("homology.exactness_profile", "ttpkit.homology", "exactness_profile"),
    ("koszulreg.koszul_check", "ttpkit.koszulreg", "koszul_check"),
    ("koszulreg.yoneda_verify", "ttpkit.koszulreg", "yoneda_verify"),
    ("koszulreg.quadratic_dual", "ttpkit.koszulreg", "quadratic_dual"),
    ("koszulreg.gorenstein_check", "ttpkit.koszulreg", "gorenstein_check"),
    ("koszulreg.asreg_decide", "ttpkit.koszulreg", "asreg_decide"),
    ("classify.classify_3d", "ttpkit.classify", "classify_3d"),
    ("classify.jordan_normal_form_3d", "ttpkit.classify", "jordan_normal_form_3d"),
    ("classify.classify_2d_ttp", "ttpkit.classify", "classify_2d_ttp"),
    ("classify.graded_iso_type_2d", "ttpkit.classify", "graded_iso_type_2d"),
    ("sequences.fn_nonvanishing", "ttpkit.sequences", "fn_nonvanishing"),
    ("families.completed", "ttpkit.families", "Presentation.completed"),
]


# Layer counts taken from a call's arguments and result: layer -> (stat, fn).
def _terms_out(args, result):
    return len(result.terms)


def _rules_added(args, result):
    return len(result[1])


def _matrix_cells(args, result):
    return args[0].nrows * args[0].ncols


def _result_cells(args, result):
    return result.nrows * result.ncols


def _useful(args, result):
    return 1 if result else 0


COUNTERS = {
    "rewrite.reduce": ("terms_out", _terms_out),
    "rewrite.complete": ("rules_added", _rules_added),
    "scalars.rank_kernel": ("cells", _matrix_cells),
    "homology.component_matrix": ("cells", _result_cells),
    "scalars.echelon_insert": ("useful", _useful),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.layers = [name for name, _, _ in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.layer = array("q")
        self.job = array("q")
        self.counts = {name: 0 for name in COUNTERS}
        self.stack = []
        self.job_id = -1

    def _wrap(self, layer_id, fn):
        start, end, parent, layer, job, stack = (
            self.start, self.end, self.parent, self.layer, self.job, self.stack
        )
        clock = time.perf_counter
        name = self.layers[layer_id]
        counter = COUNTERS.get(name)


        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            layer.append(layer_id)
            job.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts[name] += counter[1](args, result)
            return result

        return wrapper

    def install(self):
        """Patch every target in its defining module and wherever it was imported."""
        loaded = [m for n, m in sys.modules.items() if n == "ttpkit" or n.startswith("ttpkit.")]
        for layer_id, (_, modname, path) in enumerate(TARGETS):
            module = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(layer_id, cls.__dict__[attr]))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(layer_id, original)
            for mod in loaded:
                if getattr(mod, path, None) is original:
                    setattr(mod, path, wrapped)

    def layer_table(self):
        """Per-layer calls, self seconds and counts, derived from the spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        for i in range(n):
            k = self.layer[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
        table = {}
        for k, name in enumerate(self.layers):
            table[f"{name}.calls"] = calls[k]
            table[f"{name}.self_s"] = self_s[k]
        for name, (stat, _) in COUNTERS.items():
            k = self.layers.index(name)
            if stat == "useful":
                table[f"{name}.useful_ratio"] = self.counts[name] / calls[k] if calls[k] else 0.0
            else:
                table[f"{name}.{stat}"] = self.counts[name]
        return table

    def write(self, path):
        """Write the spans, gzipped, as tab-separated rows: job, span, parent, layer, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("job\tspan\tparent\tlayer\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.job[i]}\t{i}\t{self.parent[i]}\t{self.layers[self.layer[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )

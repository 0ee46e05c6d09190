"""Spans around the public functions of modinv's layers, installed from outside.

Each listed function is replaced by a wrapper in every modinv namespace that
binds it (methods on their class), so calls between modules are spanned too.
Spans are kept in memory as (name, start, end, parent, case) and written out
when the run ends.  A layer's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

MB = 2.0 ** 20
# Spans are timed in CPU seconds of this process, like the cases.
CLOCK = time.process_time


def _count_dim(tracer, result):
    tracer.counts["search.commutant_basis.dim"] += result.dim


def _count_search(tracer, result):
    tracer.counts["search.enumerate_invariants.nodes"] += result.nodes
    tracer.counts["search.enumerate_invariants.found"] += len(result)


# span name -> (module, attribute path of each function it covers, after-hook,
# whether tracemalloc's peak is taken over the call).  The peak is reset on
# entry, so only layers that call no other peak layer may be marked.
LAYERS = {
    "cli": ("cli", ("main",), None, False),
    "core.modular_data": ("core", ("su2_modular_data", "sun_modular_data"), None, False),
    "core.su2_fusion_closed_form": ("core", ("su2_fusion_closed_form",), None, False),
    "core.verlinde_fusion": ("core", ("verlinde_fusion",), None, False),
    "core.FusionRing.validate": ("core", ("FusionRing.validate",), None, True),
    "search.commutant_basis": ("search", ("commutant_basis",), _count_dim, True),
    "search.enumerate_invariants": ("search", ("enumerate_invariants",), _count_search, False),
    "search.verify_invariant": ("search", ("verify_invariant",), None, False),
    "search.permutation_criterion": ("search", ("permutation_criterion",), None, False),
    "search.su2_ade_catalog": ("search", ("su2_ade_catalog",), None, False),
    "nimrep.fused_adjacencies": ("nimrep", ("fused_adjacencies",), None, False),
    "nimrep.spectrum_vs_diagonal": ("nimrep", ("spectrum_vs_diagonal",), None, False),
    "nimrep.identify_ade": ("nimrep", ("identify_ade",), None, False),
    "graph_algebra.eigen_gauge": ("graph_algebra", ("eigen_gauge",), None, False),
    "graph_algebra.graph_structure_constants":
        ("graph_algebra", ("graph_structure_constants",), None, False),
    "graph_algebra.GraphFusion.associative":
        ("graph_algebra", ("GraphFusion.associative",), None, False),
    "chiral.decompose_gram": ("chiral", ("decompose_gram",), None, False),
    "chiral.chiral_table": ("chiral", ("chiral_table",), None, False),
    "dot.emit_dot": ("dot", ("emit_dot",), None, False),
}
PEAK_LAYERS = tuple(name for name, spec in LAYERS.items() if spec[3])
COUNTS = ("search.commutant_basis.dim", "search.enumerate_invariants.nodes",
          "search.enumerate_invariants.found")


class Tracer:
    """Installs the wrappers, records spans and reduces them to layer metrics."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, case id]
        self.counts = defaultdict(int)
        self.peak_mb = defaultdict(float)
        self.case = None
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    def _wrap(self, name, fn, after, peak):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.case]
            stack.append(len(spans))
            spans.append(span)
            if peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span[1] = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = CLOCK()
                stack.pop()
            if peak:
                used = (tracemalloc.get_traced_memory()[1] - base) / MB
                self.peak_mb[name] = max(self.peak_mb[name], used)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every modinv namespace; methods are patched on their class."""
        namespaces = [m for key, m in sys.modules.items()
                      if key == "modinv" or key.startswith("modinv.")]
        for name, (module, paths, after, peak) in LAYERS.items():
            mod = sys.modules[f"modinv.{module}"]
            for path in paths:
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    self._patches.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(name, orig, after, peak))
                    continue
                orig = getattr(mod, path)
                wrapper = self._wrap(name, orig, after, peak)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._patches.append((ns, attr, orig))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def self_times(self) -> dict[str, list[float]]:
        """Per layer: (summed self time, call count)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: [0.0, 0] for name in LAYERS}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += end - start - child[i]
            out[name][1] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, case) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "case": case}) + "\n")

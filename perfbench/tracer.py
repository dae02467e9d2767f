"""Span tracer installed from outside the library.

`install` wraps the public functions listed in TARGETS.  Each wrapped call
records one span (name, start, end, parent) in flat in-memory arrays; the
arrays are written out once, when the run ends.  The wrapper replaces the
function in every loaded `burniat` namespace that bound it, because modules
such as `verify`, `degeneration` and `cli` do `from .effective import decide`
and would otherwise keep calling the unwrapped original.
"""
from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter, defaultdict
from functools import update_wrapper
from time import perf_counter

# (module, attribute) pairs; "Class.method" wraps the method on the class.
# Small arithmetic helpers (Block/XClass/YClass operators, bits_add, pairing,
# to_y) are left out: they run millions of times per scan and a span each
# would cost more than the work it measures.
TARGETS = (
    ("config", "standard_config"),
    ("lattice", "subgroup_index"),
    ("linalg", "hnf_with_transform"),
    ("linalg", "gf2_solve"),
    ("picard", "build_generator_table"),
    ("picard", "GeneratorTable.phi"),
    ("picard", "GeneratorTable.column"),
    ("picard", "GeneratorTable.preimage_combo"),
    ("delpezzo", "enumerate_nef"),
    ("delpezzo", "eff_decompose"),
    ("delpezzo", "nef_decompose"),
    ("effective", "scan"),
    ("effective", "decide"),
    ("effective", "s_membership"),
    ("effective", "effective_lifts"),
    ("effective", "prove_non_effective"),
    ("effective", "minimal_form"),
    ("effective", "is_minimal"),
    ("effective", "ReductionTrace.validate"),
    ("effective", "step3_tables"),
    ("effective", "exceptional_induction"),
    ("degeneration", "exceptional_collection_check"),
)

# span names of methods whose metrics drop the class name
SPAN_NAMES = {
    "picard.GeneratorTable.phi": "picard.phi",
    "picard.GeneratorTable.column": "picard.column",
    "picard.GeneratorTable.preimage_combo": "picard.preimage_combo",
}


class Tracer:
    """Flat span store plus the few counts a span cannot carry."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open = [-1]
        self.counts: Counter[str] = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording one span per call; `observe(tracer, args, result)`
        runs after each call, outside the span."""
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, stack = (self.name_of, self.start, self.end,
                                              self.parent, self._open)

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, out)
            return out

        return update_wrapper(traced, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write(self, path) -> None:
        """One JSON header line, then the four span arrays in native layout."""
        with open(path, "wb") as fh:
            head = {"names": self.names, "spans": len(self.start),
                    "arrays": [["name", "H"], ["start", "d"], ["end", "d"],
                               ["parent", "l"]]}
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.name_of, self.start, self.end, self.parent):
                arr.tofile(fh)


def read_spans(path) -> tuple[list[str], list[tuple[int, float, float, int]]]:
    """Inverse of Tracer.write: (names, [(name_id, start, end, parent)])."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        cols = []
        for _, code in head["arrays"]:
            arr = array(code)
            arr.fromfile(fh, head["spans"])
            cols.append(arr)
    return head["names"], list(zip(*cols))


def _count_steps(tracer: Tracer, args, out) -> None:
    tracer.counts["effective.minimal_form.steps"] += len(out[1].steps)


def _count_lift_keys(tracer: Tracer, args, out) -> None:
    tracer.distinct["effective.effective_lifts"].add(args[0])


def _count_scan(tracer: Tracer, args, out) -> None:
    # only scans made by an acceptance criterion; `_open` holds the spans
    # still open around this call
    if not any(tracer.names[tracer.name_of[i]].startswith("verify.criterion.")
               for i in tracer._open[1:]):
        return
    tracer.counts["verify.scan.candidates"] += len(out.records)
    tracer.distinct["verify.scan"].update(r.x for r in out.records)


OBSERVERS = {
    "effective.minimal_form": _count_steps,
    "effective.effective_lifts": _count_lift_keys,
    "effective.scan": _count_scan,
}


def _rebind(old, new) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "burniat" or name.startswith("burniat."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS entry and each acceptance criterion."""
    for module, attr in TARGETS:
        mod = importlib.import_module(f"burniat.{module}")
        name = SPAN_NAMES.get(f"{module}.{attr}", f"{module}.{attr}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth),
                                           OBSERVERS.get(name)))
        else:
            old = getattr(mod, attr)
            _rebind(old, tracer.wrap(name, old, OBSERVERS.get(name)))
    verify = importlib.import_module("burniat.verify")
    verify.CRITERIA[:] = [(num, label, tracer.wrap(f"verify.criterion.{num}", fn))
                          for num, label, fn in verify.CRITERIA]

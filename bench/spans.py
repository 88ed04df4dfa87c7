"""Span recording around the public functions of the arithinv modules.

The program is not modified: ``Recorder.install`` replaces each public
function of the traced modules by a wrapper on the module object.  Every
call inside the package goes through a module attribute (``arith.x`` from
another module, or a global lookup in the module's own namespace), so the
wrappers see intra-package calls too.  Spans stay in memory until the
worker writes them out at the end of a pass.

A span is (name, start, end, parent, op, failed, nested, tag): ``parent``
is the index of the enclosing span or -1, ``op`` the index of the
benchmark operation it ran under, ``nested`` whether a span of the same
name was already open (recursion), ``tag`` a per-function annotation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter

MODULES = ("arith", "numfield", "analytic", "ellcurve", "ledger", "corpus", "cli")

# Buckets of hhat for the canonical_height latency split.
H_BUCKETS = (("hsmall", 0.0, 10.0), ("hmid", 10.0, 100.0), ("hlarge", 100.0, float("inf")))


def _tag_height(args, kwargs, result):
    return float(result)


def _tag_minima(args, kwargs, result):
    return [len(args[0]), bool(result.exact)]


TAGS = {
    "ellcurve.canonical_height": _tag_height,
    "ledger.successive_minima": _tag_minima,
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.open_names = {}
        self.op = -1

    def _wrap(self, fn, name):
        spans, stack, open_names = self.spans, self.stack, self.open_names
        tagger = TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            depth = open_names.get(name, 0)
            open_names[name] = depth + 1
            tag = None
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                if tagger is not None:
                    tag = tagger(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                open_names[name] = depth
                spans[index] = (name, start, end, parent, self.op, failed, depth > 0, tag)

        return wrapper

    def install(self):
        """Wrap every public function defined in the traced modules."""
        wrapped = {}
        modules = [importlib.import_module("arithinv." + m) for m in MODULES]
        for short, mod in zip(MODULES, modules):
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self._wrap(obj, "%s.%s" % (short, attr))
                    setattr(mod, attr, wrapped[obj])
        # dispatch tables built at import time hold the originals
        for mod in modules:
            for obj in vars(mod).values():
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, ops, names):
    """Per-layer metrics of one traced pass.

    ``ops`` are the worker's operation records; an op contributes
    ``curves`` units to the per-curve ratios when it succeeded, and field
    queries are the ops of kind "field".
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, failed, nested, tag in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append((span, child_time[index]))
    curve_ops = {i for i, op in enumerate(ops) if op["ok"] and op.get("curves")}
    curve_units = sum(ops[i]["curves"] for i in curve_ops)
    field_ops = {i for i, op in enumerate(ops) if op["kind"] == "field"}

    out = {}
    for metric in names:
        if metric == "trace.overhead_s":
            continue
        if metric.startswith("ellcurve.canonical_height.p50_s."):
            bucket = metric.rsplit(".", 1)[1]
            _, lo, hi = next(b for b in H_BUCKETS if b[0] == bucket)
            out[metric] = _median(
                [
                    s[2] - s[1]
                    for s, _ in by_name.get("ellcurve.canonical_height", [])
                    if not s[5] and not s[6] and lo <= s[7] < hi
                ]
            )
            continue
        func, stat = metric.rsplit(".", 1)
        entries = by_name.get(func, [])
        outer = [(s, c) for s, c in entries if not s[6]]
        if stat == "calls":
            value = len(entries)
        elif stat == "self_s":
            value = sum(s[2] - s[1] - c for s, c in entries)
        elif stat == "total_s":
            value = sum(s[2] - s[1] for s, _ in outer)
        elif stat == "fail":
            value = sum(1 for s, _ in outer if s[5])
        elif stat == "calls_per_curve":
            calls = sum(1 for s, _ in entries if s[4] in curve_ops)
            value = calls / curve_units if curve_units else 0.0
        elif stat == "calls_per_query":
            calls = sum(1 for s, _ in entries if s[4] in field_ops)
            value = calls / len(field_ops) if field_ops else 0.0
        elif stat == "exact_frac":
            done = [s for s, _ in outer if not s[5]]
            value = sum(1 for s in done if s[7][1]) / len(done) if done else 0.0
        elif stat.startswith("rank") and stat.endswith("_p50_s"):
            rank = int(stat[len("rank") : -len("_p50_s")])
            value = _median([s[2] - s[1] for s, _ in outer if not s[5] and s[7][0] == rank])
        else:
            raise ValueError("unknown per-layer metric %r" % metric)
        out[metric] = value
    return out

"""Spans around calls into charrank's layers, recorded from outside.

The traced run rebinds the module attributes that callers look up at call
time (``_dispatch.box_count`` and the other kernels, documented as
rebindable; ``partitions.count_box`` wherever a module imported it by name;
``identities.verify_sweep`` as ``run_all`` calls it; ...) to wrappers that
record a span per call.  Nothing under ``src/`` changes, and ``uninstall``
puts every original back.

A span is (name, start, end, parent).  Spans stay in memory until the
unit of work ends; ``aggregate`` folds them into calls, busy time and self
time per name, where self time is a span's duration minus the part of it
that its child spans cover.
"""

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from workloads import SEAM

KERNELS = ("box_count", "box_table", "set_exact_counts", "partition_table")

#: (module, function) pairs wrapped as spans named "<module>.<function>";
#: the kernels are named "kernels.<function>".
API = (
    ("partitions", "count_box"),
    ("partitions", "count_set_exact"),
    ("partitions", "count_set_at_most"),
    ("partitions", "count_set_any"),
    ("partitions", "count_total"),
    ("partitions", "enumerate_box"),
    ("partitions", "enumerate_set_exact"),
    ("bounds", "betti_upper_bound"),
    ("bounds", "betti_upper_bound_gapless"),
    ("grassmannian", "betti"),
    ("grassmannian", "poincare"),
    ("grassmannian", "gaussian_binomial"),
    ("bijection", "verify_bijection"),
    ("oracles", "pentagonal_partition_table"),
    ("cli", "main"),
)


def _kernel_weight(name, args):
    """The largest weight the kernel's table reaches: the quantity the
    compiled backend compares against the uint64 seam."""
    if name == "box_table":
        return args[0] * args[1]
    if name == "partition_table":
        return args[0]
    return args[2]


def self_times(starts, ends, parents):
    """Per span: duration minus the union of its children's intervals
    (clipped to the span), for spans given as parallel lists."""
    children = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child in sorted(children[index], key=starts.__getitem__):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self._stack = []
        self._patched = []

    def reset(self):
        """Forget recorded spans and counts, keeping the wrappers."""
        for column in (self.names, self.starts, self.ends, self.parents, self._stack):
            column.clear()
        self.counts.clear()
        self.distinct.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            if before is not None:
                before(label, args, kwargs)
            index = len(starts)
            names.append(label)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(label, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_kernel(self, label, args, kwargs):
        if _kernel_weight(label[len("kernels."):], args) > SEAM:
            self.counts["kernels.above_seam"] += 1
        self.distinct["kernels"].add((label, args))

    def _note_enumeration(self, label, args, kwargs):
        self.distinct["enumerate"].add((label, args, tuple(sorted(kwargs.items()))))

    def _note_checked(self, label, report):
        self.counts[label + ".checked"] += report.checked

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every layer entry point in the loaded ``charrank`` modules."""
        import charrank
        from charrank import _dispatch

        for owner, _ in API:
            importlib.import_module("charrank." + owner)
        self._patched = []
        for kernel in KERNELS:
            wrapper = self._wrap(
                getattr(_dispatch, kernel), "kernels." + kernel, before=self._note_kernel
            )
            self._rebind([_dispatch], getattr(_dispatch, kernel), wrapper)

        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if (key == "charrank" or key.startswith("charrank."))
            and not key.startswith("charrank._kernels")
            and key != "charrank._dispatch"
        ]
        for owner, attr in API:
            original = getattr(sys.modules["charrank." + owner], attr)
            before = self._note_enumeration if attr.startswith("enumerate_") else None
            wrapper = self._wrap(original, f"{owner}.{attr}", before=before)
            self._rebind(modules, original, wrapper)

        original = charrank.identities.verify_sweep
        wrapper = self._wrap(
            original,
            lambda args: "identities." + getattr(args[0], "value", args[0]),
            after=self._note_checked,
        )
        self._rebind(modules, original, wrapper)

    def _rebind(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- results -----------------------------------------------------------

    def aggregate(self):
        """Totals for one unit of work: ``{"spans": {name: [calls, busy_s,
        self_s]}, "counts": {...}}``; distinct argument tuples are counted
        into ``counts`` as ``<group>.distinct``."""
        spans = {}
        for name, start, end, own in zip(
            self.names, self.starts, self.ends,
            self_times(self.starts, self.ends, self.parents),
        ):
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own
        counts = dict(self.counts)
        for group, keys in self.distinct.items():
            counts[group + ".distinct"] = len(keys)
        return {"spans": spans, "counts": counts}

    def dump(self, path):
        """Write the recorded spans as JSON: a name table and one
        ``[name_index, start_s, end_s, parent_index]`` row per span."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        rows = [
            [index[n], round(s, 7), round(e, 7), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as sink:
            json.dump({"names": table, "spans": rows}, sink, separators=(",", ":"))


def merge(aggregates):
    """Sum the aggregates of several units of work."""
    spans = {}
    counts = Counter()
    for agg in aggregates:
        for name, (calls, busy, own) in agg["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += own
        counts.update(agg["counts"])
    return {"spans": spans, "counts": dict(counts)}

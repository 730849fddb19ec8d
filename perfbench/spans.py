"""Span tracing by rebinding: the benchmark's view inside one process.

``install`` replaces every public function of every imported ``bailrule``
module, wherever a module holds a name bound to it, with a wrapper that
records a span (name, start, end, parent span, op id) and counts the call
per binding site.  No source file changes; ``uninstall`` puts the originals
back.  Spans stay in flat arrays in memory and are written out by ``dump``.

Stdlib only, so importing it costs nothing that the program's import
timing would notice.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "bailrule"

#: Functions to trace that no ``__all__`` lists, as (module, attribute).
EXTRA_FUNCTIONS = (("cli", "main"),)
#: Methods to trace, as (module, class, method).
METHODS = (("distributions", "ShockDistribution", "rvs"),)
#: Calls whose episode count is recorded: span name -> where the rows are.
ROWS = {
    "dataio.read_episodes": lambda args, result: result,
    "dataio.write_episodes": lambda args, result: args[1],
}


def _rows(obj) -> int:
    """Episode count of a list of episodes, an array, or a tuple of columns."""
    if isinstance(obj, tuple) and obj and hasattr(obj[0], "__len__"):
        obj = obj[0]
    return len(obj)


class Tracer:
    """Spans and counts of one process, grouped by op id."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self._first = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, site: str):
        nid = self._id(name)
        site_key = f"{name}@{site}"
        rows = ROWS.get(name)
        stack, counts = self.stack, self.counts

        def traced(*args, **kwargs):
            counts[site_key] += 1
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if rows is not None:
                try:
                    counts[f"{name}.rows"] += _rows(rows(args, result))
                except (TypeError, IndexError):
                    pass  # a changed signature loses the count, never the call
            return result

        return functools.update_wrapper(traced, fn)

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.counts.clear()
        self._first = len(self.start)

    def end_op(self) -> dict:
        """Per-name self time and calls, site counts and top-level time of the op."""
        lo, hi = self._first, len(self.start)
        spans = [
            (self.start[i], self.end[i], self.parent[i] - lo if self.parent[i] >= 0 else -1)
            for i in range(lo, hi)
        ]
        own = self_times(spans)
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, t in enumerate(own):
            name = self.names[self.name_id[lo + i]]
            self_s[name] += t
            calls[name] += 1
        top = sum(e - s for s, e, p in spans if p < 0)
        return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(self.counts), "top_s": top}

    def dump(self, path) -> None:
        """Write every span as ``op parent start_ns end_ns name`` lines, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op\tparent\tstart_ns\tend_ns\tname\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]}\t{self.parent[i]}\t{int(self.start[i] * 1e9)}\t"
                    f"{int(self.end[i] * 1e9)}\t{self.names[self.name_id[i]]}\n"
                )


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            covered += e - s
            reach = e
    return covered


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of it that its
    child spans cover.  ``spans`` are (start, end, parent index or -1)."""
    children = defaultdict(list)
    for s, e, p in spans:
        if p >= 0:
            children[p].append((s, e))
    return [(e - s) - _union_within(children.get(i, ()), s, e) for i, (s, e, _p) in enumerate(spans)]


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name != PACKAGE else PACKAGE


def install(tracer: Tracer) -> list:
    """Trace the public functions of every imported bailrule module.

    Returns the (owner, attribute, original) triples ``uninstall`` needs.
    """
    modules = {
        name: mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }
    targets = {}
    for name, mod in modules.items():
        public = [(attr, getattr(mod, attr, None)) for attr in getattr(mod, "__all__", ())]
        public += [(attr, getattr(mod, attr, None)) for m, attr in EXTRA_FUNCTIONS
                   if name == f"{PACKAGE}.{m}"]
        for attr, obj in public:
            if inspect.isfunction(obj) and obj.__module__ == name:
                targets[id(obj)] = (obj, f"{_short(name)}.{attr}")

    restore = []
    for name, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            hit = targets.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, tracer.wrap(obj, hit[1], _short(name)))
                restore.append((mod, attr, obj))
    for m, cls_name, attr in METHODS:
        cls = getattr(modules.get(f"{PACKAGE}.{m}"), cls_name, None)
        original = cls.__dict__.get(attr) if cls is not None else None
        if inspect.isfunction(original):
            setattr(cls, attr, tracer.wrap(original, f"{m}.{cls_name}.{attr}", m))
            restore.append((cls, attr, original))
    return restore


def uninstall(restore: list) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def parse_importtime(text: str) -> list:
    """``python -X importtime`` lines as (depth, module, self_s, cumulative_s)."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        name = fields[2].rstrip()
        module = name.lstrip(" ")
        depth = (len(name) - len(module) - 1) // 2
        rows.append((depth, module, int(fields[0]) * 1e-6, int(fields[1]) * 1e-6))
    return rows


def package_import_s(rows, package: str) -> float:
    """Cumulative import time of ``package``: the sum over its modules that no
    other module of the package imported (outermost in the import tree)."""

    def member(module: str) -> bool:
        return module == package or module.startswith(package + ".")

    total, stack = 0.0, []
    # the log lists children before their parent; reversed, each line's
    # ancestors are the open lines of smaller depth
    for depth, module, _self_s, cum_s in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if member(module) and not any(member(m) for _d, m in stack):
            total += cum_s
        stack.append((depth, module))
    return total

"""Benchmark-side tracing of the radixmul layers.

The traced run wraps the public functions of each library module
(word, datapath, engine, baseline, cli) from here, without touching the
library's source, and counts Word and Digit constructions. Each call
becomes a span (name, start, end, parent, op id) kept in memory; a
layer's self time is its span's duration minus the durations of its
direct children.

Spans are gathered per op and folded into running totals when the op
ends, so memory stays bounded on long runs; the spans of the first few
ops are kept whole so they can be written out at the end.
"""

import functools
import inspect
from time import perf_counter_ns
from typing import NamedTuple

LAYERS = ("word", "datapath", "engine", "baseline", "cli")
COUNTED_CLASSES = (("word", "Word"), ("word", "Digit"))
ROOT_SPAN = "bench.op"
KEEP_OPS = 16  # ops whose spans are kept whole for writing out


class Span(NamedTuple):
    """One call; parent indexes the same op's span list, -1 for a root."""

    name: str
    start: int
    end: int
    parent: int
    op_id: int


def self_times(spans) -> dict[str, list[int]]:
    """Calls and self nanoseconds per span name.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of one tree sum to its root's duration.
    Spans are (name, start, end, parent, op_id) sequences whose parent
    is an index into the same list, or -1.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    totals: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        acc = totals.get(s[0])
        if acc is None:
            acc = totals[s[0]] = [0, 0]
        acc[0] += 1
        acc[1] += s[2] - s[1] - child_ns[i]
    return totals


class Tracer:
    """Installs span wrappers on a loaded radixmul and aggregates them.

    ``lib`` is the namespace built by run.import_radixmul: the package
    plus one attribute per layer module. Calls from one module into
    another go through names bound at import time, so every namespace
    holding a reference to a wrapped function is patched.
    """

    def __init__(self, lib):
        self.lib = lib
        self.records: list[list] = []
        self.parent = -1
        self.op_id = -1
        self.totals: dict[str, list[int]] = {}
        self.constructed = {f"{m}.{c}": 0 for m, c in COUNTED_CLASSES}
        self.kept: list[Span] = []
        self.kept_ops = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            records = tracer.records
            parent = tracer.parent
            rec = [name, 0, 0, parent, tracer.op_id]
            tracer.parent = len(records)
            records.append(rec)
            rec[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                tracer.parent = parent

        return traced

    def install(self) -> None:
        modules = [getattr(self.lib, short) for short in LAYERS]
        wrapped = {}
        for short, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for ns in (self.lib.package, *modules):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(ns, attr, wrapped[id(obj)])
        for short, cls_name in COUNTED_CLASSES:
            cls = getattr(getattr(self.lib, short), cls_name)
            self._patch(cls, "__init__", self._counting_init(
                f"{short}.{cls_name}", cls.__init__))

    def _counting_init(self, key: str, init):
        constructed = self.constructed

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            constructed[key] += 1
            init(obj, *args, **kwargs)

        return counting_init

    def _patch(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def begin_op(self, op_id: int) -> None:
        self.records = []
        self.parent = -1
        self.op_id = op_id

    def end_op(self) -> None:
        """Fold the finished op's spans into the totals."""
        records = self.records
        for name, (calls, ns) in self_times(records).items():
            acc = self.totals.get(name)
            if acc is None:
                acc = self.totals[name] = [0, 0]
            acc[0] += calls
            acc[1] += ns
        if self.kept_ops < KEEP_OPS:
            base = len(self.kept)
            self.kept.extend(
                Span(name, start, end, parent + base if parent >= 0 else -1, op_id)
                for name, start, end, parent, op_id in records
            )
            self.kept_ops += 1
        self.records = []

    def reset(self) -> None:
        """Start new totals and counts; kept spans stay."""
        self.totals = {}
        for key in self.constructed:
            self.constructed[key] = 0

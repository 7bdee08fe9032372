"""Spans and counters recorded around the package's public functions.

A traced pass wraps the functions named in ``TRACED`` at every module
attribute that holds them, so names imported with ``from .x import f`` are
wrapped too, and counts the field operations of ``FieldDescriptor``.  Spans
stay in memory; the worker writes them out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  In one thread children run one after another inside their parent,
so that is the time they cover.  A generator span (the span enumerator) is
busy only inside ``next()``; its duration is that busy time, since the
consumer's loop body between items belongs to the parent.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, NamedTuple


class Traced(NamedTuple):
    """One wrapped function: where it is defined, the span it opens, the
    metric its self time adds to, and optionally a call-count metric, an
    item counter applied to the result, and whether it is a generator.  A
    generator is wrapped at its import sites only, so the defining module's
    own recursion stays unwrapped."""

    module: str
    attr: str
    span: str
    self_metric: str
    calls_metric: str | None = None
    counter: Callable | None = None
    generator: bool = False


def _parts(result):
    return "partitions.parts_built", len(result.parts)


def _candidates(result):
    return "oracle.candidates", len(result)


TRACED = (
    Traced("gf", "field_new", "gf.field_new", "gf.field_new.s"),
    Traced("linalg", "span_tuples", "linalg.span", "linalg.span.s",
           generator=True),
    Traced("linalg", "rref", "linalg.rref", "linalg.rref.s",
           "linalg.rref.calls"),
    Traced("linalg", "subspace_from_rref", "linalg.subspace_from_rref",
           "linalg.subspace_from_rref.s", "linalg.subspace_from_rref.calls"),
    Traced("partitions", "spread_partition", "partitions.spread_partition",
           "partitions.spread_partition.self_s", counter=_parts),
    Traced("partitions", "mixed_partition", "partitions.mixed_partition",
           "partitions.mixed_partition.self_s", counter=_parts),
    Traced("partitions", "partition_to_json", "partitions.partition_to_json",
           "partitions.json_write_s"),
    Traced("partitions", "partition_from_json",
           "partitions.partition_from_json", "partitions.json_read_s"),
    Traced("covers", "cover_finite", "covers.cover_finite",
           "covers.cover_finite.self_s"),
    Traced("covers", "cover_to_json", "covers.cover_to_json",
           "covers.json_write_s"),
    Traced("covers", "cover_from_json", "covers.cover_from_json",
           "covers.json_read_s"),
    Traced("oracle", "verify_cover", "oracle.verify", "oracle.verify.self_s"),
    Traced("oracle", "verify_partition", "oracle.verify",
           "oracle.verify.self_s"),
    Traced("oracle", "enumerate_subspaces", "oracle.enumerate_subspaces",
           "oracle.enumerate_subspaces.s", counter=_candidates),
    Traced("oracle", "min_cover_size", "oracle.search",
           "oracle.search.self_s"),
    Traced("cli", "main", "cli", "cli.self_s"),
)

FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "pow")

REMAINDER = "trace.remainder_s"

# Every per-layer metric a traced pass reports; trace.overhead is added by
# run.py from the untraced and traced pass times.
LAYER_METRICS = (
    ("gf.field_new.misses", "count"),
    ("gf.field_new.s", "s"),
    *((f"gf.{op}.calls", "count") for op in FIELD_OPS),
    ("linalg.span.vectors", "count"),
    ("linalg.span.s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.s", "s"),
    ("linalg.subspace_from_rref.calls", "count"),
    ("linalg.subspace_from_rref.s", "s"),
    ("partitions.spread_partition.self_s", "s"),
    ("partitions.mixed_partition.self_s", "s"),
    ("partitions.parts_built", "count"),
    ("covers.cover_finite.self_s", "s"),
    ("covers.json_write_s", "s"),
    ("covers.json_read_s", "s"),
    ("partitions.json_write_s", "s"),
    ("partitions.json_read_s", "s"),
    ("oracle.verify.self_s", "s"),
    ("oracle.verify.vectors_checked", "count"),
    ("oracle.enumerate_subspaces.s", "s"),
    ("oracle.candidates", "count"),
    ("oracle.search.self_s", "s"),
    ("cli.self_s", "s"),
    (REMAINDER, "s"),
    ("trace.overhead", "ratio"),
)


class Span:
    __slots__ = ("name", "parent", "cmd", "start", "end", "dur", "items")

    def __init__(self, name, parent, cmd, start):
        self.name, self.parent, self.cmd, self.start = name, parent, cmd, start
        self.end = start
        self.dur = 0.0
        self.items = 0

    def row(self) -> list:
        return [getattr(self, field) for field in self.__slots__]


class Recorder:
    """Spans of one pass; ``cmd`` is the id of the command now running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        # one mutable cell per counted field operation, cheaper per call
        # than updating ``counts``; read when the pass ends
        self.cells: dict[str, list[int]] = {}
        self.cmd = -1

    def _open(self, name) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, parent, self.cmd, perf_counter()))
        return len(self.spans) - 1

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap_counted(self, name: str, fn):
        cell = self.cells.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)
        return counted

    def wrap_call(self, t: Traced, fn):
        def traced(*args, **kwargs):
            sid = self._open(t.span)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span = self.spans[sid]
                span.end = perf_counter()
                span.dur = span.end - span.start
            if t.counter is not None:
                self.count(*t.counter(result))
            return result
        return traced

    def wrap_generator(self, t: Traced, fn):
        def traced(*args, **kwargs):
            # the parent is the span open when the generator is created
            return self._drive(self._open(t.span), fn(*args, **kwargs))
        return traced

    def _drive(self, sid, it):
        span = self.spans[sid]
        try:
            while True:
                self.stack.append(sid)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    span.dur += t1 - t0
                    span.end = t1
                    self.stack.pop()
                span.items += 1
                yield item
        finally:
            it.close()


def package_modules(package: str = "subcover"):
    """The package and every submodule imported so far."""
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package
                                    or name.startswith(package + "."))]


def install(rec: Recorder, package: str = "subcover"):
    """Wrap the traced functions and field operations; returns a function
    that puts every original back."""
    modules = package_modules(package)
    undo = []
    for t in TRACED:
        home = sys.modules.get(f"{package}.{t.module}")
        fn = getattr(home, t.attr, None)
        if fn is None:
            continue  # the function is gone in this version of the package
        wrapped = (rec.wrap_generator if t.generator else rec.wrap_call)(t, fn)
        for mod in modules:
            if t.generator and mod is home:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
    descriptor = getattr(sys.modules.get(f"{package}.gf"),
                         "FieldDescriptor", None)
    for op in FIELD_OPS:
        fn = vars(descriptor).get(op) if descriptor is not None else None
        if callable(fn):
            undo.append((descriptor, op, fn))
            setattr(descriptor, op, rec.wrap_counted(f"gf.{op}.calls", fn))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    out = [s.dur for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.dur
    return out


def layer_metrics(rec: Recorder, walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  ``walls`` holds each command's
    wall time; what no span covers is reported as the remainder, so the
    reported times add up to the pass's command time."""
    metrics = {name: 0 for name, unit in LAYER_METRICS
               if name != "trace.overhead"}
    for name, n in rec.counts.items():
        metrics[name] = n
    for name, cell in rec.cells.items():
        metrics[name] = cell[0]
    by_span = {t.span: t for t in TRACED}
    selfs = self_times(rec.spans)
    root_time = 0.0
    for span, self_s in zip(rec.spans, selfs):
        if self_s < -1e-6:
            raise AssertionError(f"negative self time in span {span.name}")
        t = by_span[span.name]
        metrics[t.self_metric] += self_s
        if t.calls_metric:
            metrics[t.calls_metric] += 1
        if span.name == "linalg.span":
            metrics["linalg.span.vectors"] += span.items
            parent = rec.spans[span.parent] if span.parent is not None else None
            if parent is not None and parent.name == "oracle.verify":
                metrics["oracle.verify.vectors_checked"] += span.items
        if span.parent is None:
            root_time += span.dur
    metrics[REMAINDER] = sum(walls) - root_time
    if metrics[REMAINDER] < -1e-6:
        raise AssertionError("spans outlast the commands that opened them")
    times = sum(metrics[name] for name, unit in LAYER_METRICS if unit == "s")
    if abs(times - sum(walls)) > 1e-6 * max(1.0, sum(walls)):
        raise AssertionError("self times do not add up to the command time")
    return metrics

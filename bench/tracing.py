"""Spans around the calls into the ucda modules, recorded from outside them.

`instrument` replaces every public function and every public method of a
public class in the ten ucda modules with a wrapper that opens a span on
entry and closes it on return. It patches each module namespace that holds
a reference (so `controller.execute` calling its imported `run_layer` is
seen), and hands back a function that puts the originals back. No file of
the package changes.

A span records name, start, end, parent span and op id. Spans stay in
memory (up to `max_events`; later ones are only aggregated) and are written
out once, at the end, in Chrome Trace Event Format. Self time is a span's
duration minus the durations of its direct children; calls are synchronous
and single-threaded, so children never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

MODULES = ("controller", "datapath", "qtensor", "oracle", "patchdeconv",
           "pearray", "linebuffer", "perf", "fileio", "cli")


class NoTrace:
    """Stand-in used by untraced runs: spans cost nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def begin_op(self, op_id: int) -> None:
        pass


class Tracer:
    def __init__(self, max_events: int = 100_000):
        self.max_events = max_events
        self.events = []        # (name, start_ns, end_ns, parent index, op id)
        self.dropped = 0
        self.stats = {}         # name -> [calls, inclusive ns, self ns]
        self.totals = {}        # observer sums over all traced ops
        self.maxima = {}        # observer maxima over all traced ops
        self.op = -1
        self.layer_cursor = 0   # next command index inside the op's execute
        self._stack = []        # open frames: [event index, name, parent, start, child ns]

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.layer_cursor = 0

    def open(self, name: str) -> list:
        idx = -1
        if len(self.events) < self.max_events:
            idx = len(self.events)
            self.events.append(None)
        else:
            self.dropped += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [idx, name, parent, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list):
        """Ends the innermost span; returns (inclusive ns, self ns)."""
        end = time.perf_counter_ns()
        self._stack.pop()
        idx, name, parent, start, child = frame
        dur = end - start
        if self._stack:
            self._stack[-1][4] += dur
        s = self.stats.setdefault(name, [0, 0, 0])
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        if idx >= 0:
            self.events[idx] = (name, start, end, parent, self.op)
        return dur, dur - child

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    def inside(self, name: str) -> bool:
        return any(f[1] == name for f in self._stack)

    def add(self, key: str, value) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    def high(self, key: str, value) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def write_chrome(self, path: str, metadata: dict) -> None:
        origin = min((e[1] for e in self.events), default=0)
        out = []
        for i, (name, start, end, parent, op) in enumerate(self.events):
            out.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "pid": 1, "tid": 1,
                "args": {"id": i, "parent": parent, "op": op},
            })
        doc = {"traceEvents": out, "displayTimeUnit": "ms",
               "otherData": dict(metadata, dropped_spans=self.dropped)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def _wrap(tracer: Tracer, fn, name: str, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(frame)
            raise
        dur, self_ns = tracer.close(frame)
        if observe is not None:
            observe(tracer, args, kwargs, result, dur, self_ns)
        return result
    return traced


def instrument(tracer: Tracer, observers: dict):
    """Wrap the public API of every ucda module; returns the undo function.

    observers maps a span name to f(tracer, args, kwargs, result, ns, self_ns),
    called after the span closes, for counts taken at that boundary.
    """
    package = importlib.import_module("ucda")
    modules = [importlib.import_module(f"ucda.{m}") for m in MODULES]
    wrapped = {}
    undo = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                wrapped[obj] = _wrap(tracer, obj, name, observers.get(name))
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        name = f"{short}.{attr}.{meth}"
                        undo.append((obj, meth, fn))
                        setattr(obj, meth, _wrap(tracer, fn, name, observers.get(name)))
    for ns in modules + [package]:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((ns, attr, obj))
                setattr(ns, attr, wrapped[obj])

    def restore():
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)
    return restore

"""Span tracing of nestdop's public functions, installed from outside the package.

Each traced function is replaced by a wrapper at every place a caller looks
it up (every ``nestdop`` module attribute bound to it, and class attributes
for methods), so the package itself is not edited. Spans are kept in memory
and written to a file once, when the traced process ends.

Timestamps come from ``time.perf_counter_ns``, which on Linux reads the
system-wide monotonic clock, so spans from several processes share a time
base.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

# (defining module, qualified name): the layer functions the benchmark reports.
TRACED = (
    ("patterns", "difference_set"),
    ("patterns", "optimal_nested"),
    ("signals", "generate_snapshots"),
    ("coarray", "estimate_covariance"),
    ("coarray", "lag_average"),
    ("coarray", "clutter_filter"),
    ("coarray", "apodize"),
    ("estimators", "nest"),
    ("estimators", "nesprit"),
    ("estimators", "welch"),
    ("estimators", "zero_fill"),
    ("experiments", "run_compare"),
    ("experiments", "run_spectrogram_frames"),
    ("experiments", "run_mse"),
    ("experiments", "run_estimate"),
    ("config", "ExperimentConfig.from_file"),
    ("serialize", "write_snapshots"),
    ("serialize", "write_snapshots_csv"),
    ("serialize", "write_coarray_csv"),
    ("serialize", "write_spectrum_csv"),
    ("serialize", "write_lines_csv"),
    ("serialize", "write_pgm"),
    ("spectrogram", "Spectrogram.write_csv"),
    ("spectrogram", "Spectrogram.write_pgm"),
    ("cli", "main"),
)

FUNCTION_NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)

# Writers whose second argument is the output path; their file sizes make up
# serialize.bytes_written. Spectrogram.write_pgm is left out because it
# writes through serialize.write_pgm.
_SIZED = {
    name
    for name in FUNCTION_NAMES
    if name.startswith("serialize.write_") or name == "spectrogram.Spectrogram.write_csv"
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # (id, parent id or None, name, pid, thread id, t0, t1)
        self.bytes_written = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if threading.get_ident() != self._main_ident:
            # a pool thread works for whatever the caller's thread has open
            main = self._main_stack
            return main[-1] if main else None
        return None

    def wrap(self, name: str, fn):
        sized = name in _SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = self._parent(stack)
            stack.append(span_id)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.spans.append(
                    (span_id, parent, name, os.getpid(), threading.get_ident(), t0, t1)
                )
                if sized and len(args) > 1 and os.path.isfile(args[1]):
                    self.bytes_written += os.path.getsize(args[1])

        return traced

    def record(self, name: str, t0: int, t1: int):
        """Add a span measured by the caller (used for the import span)."""
        self.spans.append(
            (next(self._ids), None, name, os.getpid(), threading.get_ident(), t0, t1)
        )

    def install(self):
        """Wrap every TRACED function at every nestdop lookup site."""
        for mod_name, _ in TRACED:
            importlib.import_module(f"nestdop.{mod_name}")
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "nestdop" or n.startswith("nestdop."))
        ]
        for mod_name, qual in TRACED:
            module = sys.modules[f"nestdop.{mod_name}"]
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))
                continue
            orig = getattr(module, qual)
            wrapper = self.wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "bytes_written": self.bytes_written}, fh)


def load(path) -> tuple[list, int]:
    with open(path) as fh:
        doc = json.load(fh)
    return [tuple(s) for s in doc["spans"]], doc["bytes_written"]


def _union_ns(intervals) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def union_s(spans) -> float:
    """Seconds covered by at least one span."""
    return _union_ns([(s[5], s[6]) for s in spans]) / 1e9


def self_times_s(spans) -> dict[str, list[float]]:
    """Per function name, each span's duration minus the union of its children.

    Children are the spans opened under it on its own thread and, for spans
    opened on the main thread, the top-level spans of pool threads started
    while it was the innermost open span. Overlapping children on several
    threads are counted once.
    """
    children: dict[tuple, list] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault((s[3], s[1]), []).append((s[5], s[6]))
    out: dict[str, list[float]] = {}
    for s in spans:
        span_id, _, name, pid, _, t0, t1 = s
        kids = [
            (max(a, t0), min(b, t1))
            for a, b in children.get((pid, span_id), ())
            if min(b, t1) > max(a, t0)
        ]
        out.setdefault(name, []).append((t1 - t0 - _union_ns(kids)) / 1e9)
    return out

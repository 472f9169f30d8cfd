"""Bounded per-process memos of run constants.

A run applies one pattern, one filter and one window to every CPI, and the
runs of one process usually share them. Each such constant is built once
per process, keyed by the hashable values it depends on, and kept while its
key is among the last ``MAXSIZE`` used. Every caller shares the value, so
its arrays are made read-only.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

import numpy as np

MAXSIZE = 8

_MEMOS: list[tuple[threading.Lock, OrderedDict]] = []


def memo(key):
    """Decorator: ``build(*args)`` runs once per ``key(*args)`` while that key is held."""

    def decorate(build):
        values: OrderedDict = OrderedDict()
        lock = threading.Lock()  # callers may share the memo across threads
        _MEMOS.append((lock, values))

        @functools.wraps(build)
        def cached(*args):
            k = key(*args)
            with lock:
                if k in values:
                    values.move_to_end(k)
                    return values[k]
            value = _read_only(build(*args))  # outside the lock: a build may use other memos
            with lock:
                values[k] = value
                if len(values) > MAXSIZE:
                    values.popitem(last=False)
            return value

        return cached

    return decorate


def array_key(x) -> tuple:
    """A hashable key equal for two arrays (or tuples of them) exactly when their bytes are."""
    if isinstance(x, tuple):
        return tuple(array_key(a) for a in x)
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


def clear() -> None:
    """Empty every memo."""
    for lock, values in _MEMOS:
        with lock:
            values.clear()


def _read_only(value):
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value

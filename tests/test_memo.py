"""The bounded run-constant memo of nestdop.memo."""

import sys
import threading

import numpy as np
import pytest

from nestdop import memo

builds = []


@memo.memo(key=lambda n, scale: (n, scale))
def ramp(n, scale):
    builds.append((n, scale))
    return np.arange(n) * scale, (np.ones(n),)


@pytest.fixture(autouse=True)
def _fresh():
    memo.clear()
    builds.clear()


def test_one_build_per_key():
    first = ramp(4, 2.0)
    assert ramp(4, 2.0) is first
    assert ramp(4, 3.0) is not first
    assert builds == [(4, 2.0), (4, 3.0)]


def test_values_are_read_only_to_the_leaves():
    values, (ones,) = ramp(4, 2.0)
    assert not values.flags.writeable and not ones.flags.writeable


def test_bounded_to_the_last_maxsize_keys():
    first = ramp(1, 1.0)
    for n in range(2, 2 + memo.MAXSIZE):
        ramp(n, 1.0)
    assert len(builds) == memo.MAXSIZE + 1
    ramp(memo.MAXSIZE + 1, 1.0)  # still held: no build
    assert len(builds) == memo.MAXSIZE + 1
    assert ramp(1, 1.0) is not first  # evicted, so built again
    assert len(builds) == memo.MAXSIZE + 2


def test_array_key_is_by_dtype_shape_and_bytes():
    a = np.array([1.0, -2.0])
    assert memo.array_key(a) == memo.array_key(a.copy())
    assert memo.array_key(a) != memo.array_key(a.astype(np.float32))
    assert memo.array_key(a) != memo.array_key(a.reshape(2, 1))
    assert memo.array_key((a, a[:1])) == memo.array_key((a.copy(), np.array([1.0])))


def test_threads_sharing_a_memo_get_the_right_values():
    # more keys than the bound, so the threads evict each other's entries
    keys = [(n, float(s)) for n in range(1, 5) for s in range(4)]
    errors = []

    def work(offset):
        for i in range(400):
            n, scale = keys[(i + offset) % len(keys)]
            try:
                values, _ = ramp(n, scale)
            except Exception as exc:  # a lost race surfaces here, e.g. as a KeyError
                errors.append(repr(exc))
                continue
            if not np.array_equal(values, np.arange(n) * scale):
                errors.append((n, scale))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []

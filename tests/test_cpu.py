"""cpu: the spans products are sliced into, which thread runs each job
of run, and how errors come back."""
import functools
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from speechseg import cpu


@given(n=st.integers(1, 2000), step=st.integers(2, 300))
def test_spans_cover_without_single_rows(n, step):
    spans = cpu.spans(n, step)
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert all(a % step == 0 for a, _ in spans)
    sizes = [b - a for a, b in spans]
    assert all(size == step for size in sizes[:-1])
    assert 1 < sizes[-1] <= step + 1 or n == 1


def fail(message):
    raise ValueError(message)


def test_single_job_runs_inline(monkeypatch):
    # a 1.5 s clip's MFCC is one job, once per clip: no pool for it
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool for a single job")

    monkeypatch.setattr(cpu, "ThreadPoolExecutor", no_pool)
    ran = []
    cpu.run([lambda: ran.append(threading.get_ident())])
    assert ran == [threading.get_ident()]


def test_first_job_runs_on_the_calling_thread():
    # the barrier passes only while all three jobs run at once
    barrier = threading.Barrier(3, timeout=10)
    ran = {}

    def job(k):
        barrier.wait()
        ran[k] = threading.get_ident()

    cpu.run([functools.partial(job, k) for k in range(3)])
    assert ran[0] == threading.get_ident()
    assert len(set(ran.values())) == 3


def test_first_error_in_job_order_after_every_job():
    done = []

    def slow(k):
        time.sleep(0.05)
        done.append(k)

    with pytest.raises(ValueError, match="second"):
        cpu.run([functools.partial(slow, 0), functools.partial(fail, "second"),
                 functools.partial(fail, "third"), functools.partial(slow, 3)])
    assert sorted(done) == [0, 3]
    done.clear()
    with pytest.raises(ValueError, match="first"):
        cpu.run([functools.partial(fail, "first"), functools.partial(slow, 1)])
    assert done == [1]

import os
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    from quadgauss.numerics import Rng

    return Rng(0)


@pytest.fixture
def install_pool(monkeypatch):
    """Make a given pool the shared worker pool for one test."""
    from quadgauss import numerics

    pools = []

    def install(pool, workers):
        monkeypatch.setattr(numerics, "_POOL", (os.getpid(), pool, workers))
        pools.append(pool)
        return pool

    yield install
    for pool in pools:
        if isinstance(pool, ThreadPoolExecutor):
            pool.shutdown()


class LazyFuture(Future):
    def __init__(self, fn, args):
        super().__init__()
        self.task = (fn, args)

    def result(self, timeout=None):
        if self.set_running_or_notify_cancel():
            fn, args = self.task
            self.set_result(fn(*args))
        return super().result(timeout)


class LazyPool:
    """A pool whose tasks run only when their result is read, so a task
    nobody reads stays pending until its submitter cancels it."""

    def __init__(self):
        self.futures = []

    def submit(self, fn, *args):
        self.futures.append(LazyFuture(fn, args))
        return self.futures[-1]


@pytest.fixture
def lazy_pool(install_pool):
    """A ``LazyPool`` of two workers as the shared worker pool."""
    return install_pool(LazyPool(), 2)

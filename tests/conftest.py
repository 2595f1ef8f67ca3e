import gc
import tracemalloc

import pytest

from dlv import build_tower


@pytest.fixture(scope="session")
def tower_3():
    return build_tower(3)


@pytest.fixture(scope="session")
def tower_5():
    return build_tower(5)


@pytest.fixture(scope="session")
def tower_7():
    return build_tower(7)


@pytest.fixture
def retained():
    """A function that runs ``fn()`` and returns the bytes it leaves
    allocated, as ``tracemalloc`` counts them.

    Garbage is collected before ``fn`` runs, never after it: a full
    collection also empties CPython's free lists, and what a run leaves on
    them is part of what this measures."""

    def measure(fn) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()

    return measure

"""The traced memory peak of one call, for the tests that bound it."""
from __future__ import annotations

import tracemalloc


def traced_peak(call, *args):
    """``call(*args)`` and the peak of memory traced while it ran, in bytes above its start."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

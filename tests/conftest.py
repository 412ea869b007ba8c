import os
import threading

import numpy as np
import pytest

from cusplab import bessel


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes this process see k CPUs, so the thread pool's size rule
    (`cusplab.pool.parallel`) takes the same side on any machine."""

    def set_count(count: int):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    return set_count


@pytest.fixture
def blocks(monkeypatch):
    """Records (thread, np.geterr()) of every node block of `bessel.h_pair`."""
    seen = []
    block = bessel._pair_block

    def spy(*args):
        seen.append((threading.get_ident(), np.geterr()))
        return block(*args)

    monkeypatch.setattr(bessel, "_pair_block", spy)
    return seen

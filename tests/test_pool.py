"""Life cycle of the thread pool behind node-block work: no thread at
import, no work handed to it below the size rule, and a fresh pool in a
child made by fork."""

import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cusplab import bessel, modes, pool
from cusplab.grid import RadialGrid
from cusplab.model import CuspModel

# two node blocks per worker on two CPUs is 2 * 2 * 8192 = 32768 nodes
PARALLEL_NODES = 40_000


def test_cli_import_starts_no_thread():
    import cusplab

    src = str(Path(cusplab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import threading, cusplab.cli; print(threading.active_count(), cusplab.pool._pool)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == ["1", "None"]


def test_a5_solve_hands_no_work_to_the_pool(cpus, monkeypatch):
    # the A5 solve of the picard_a5 workload: 4800 nodes, under two blocks
    # per worker, so neither its kernel pairs nor its mode solves use the pool
    cpus(2)
    handed = []
    monkeypatch.setattr(pool, "submit", lambda *args: handed.append(args))
    threads = threading.active_count()
    model = CuspModel(2, np.eye(2), np.array([[1.0]]))
    modes._solve_plan.cache_clear()
    _, state = modes.picard_solve(model, {(1, 0): 1e-3, (-1, 0): 1e-3}, RadialGrid.make(0.05, 34.0, 4800),
                                  torus_resolution=16, cutoff=25.0, tol=1e-11, max_iter=30)
    assert state.diagnostics["modes_solved"] > 0
    assert handed == [] and threading.active_count() == threads


def _child_kernel_pair(x, expected):
    """In a forked child: the same kernel pair from a pool of its own."""
    got = bessel.h_pair(2, 1.0, x)
    same = all(np.array_equal(a, b) for a, b in zip((got.h1_mantissa, got.h2_mantissa, got.exponent), expected))
    os._exit(0 if same and pool._pool[0] == os.getpid() else 1)


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_builds_its_own_pool(cpus):
    # the parent's pool threads do not exist in a forked child; queueing
    # work for them would hang, which the timeout turns into a failure
    cpus(2)
    x = 4.0 / np.linspace(0.5, 300.0, PARALLEL_NODES) ** 2
    pair = bessel.h_pair(2, 1.0, x)
    assert pool._pool[0] == os.getpid()
    child = multiprocessing.get_context("fork").Process(
        target=_child_kernel_pair, args=(x, (pair.h1_mantissa, pair.h2_mantissa, pair.exponent))
    )
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0

"""A fixed reference kernel that shares the measurement's CPU, to gauge host speed.

The benchmark's host is shared, and how fast it runs a given piece of code
swings by up to 2x, in phases from a second to over a minute long (cache,
memory and core contention from other tenants; the measured process is not
descheduled, so its CPU time swings with its wall time). No estimator over
a 35 s run removes a phase that lasts the whole run.

So measure.py pins itself to one CPU and starts this kernel in a child
process pinned to the same CPU. The kernel loops until stopped and
publishes how many loops it has done and its own CPU time. The scheduler
gives the two processes the CPU in turns of a few milliseconds, so they
see the same host phases. Over a timed section, the kernel's loops per
CPU second give the host's speed, and

    host-corrected seconds = section CPU seconds * loops per second / NOMINAL_RATE

reads the same in a fast and a slow phase. NOMINAL_RATE is a constant: the
kernel's rate in a fast phase of the host the baseline was taken on, so
corrected seconds are close to wall seconds of an idle host.

The kernel mixes the kinds of work a solve and a set-up do: interpreted
Python on dicts and tuples, numpy gathers and scatters on 12-qubit-sized
complex vectors, and a product with a real CSR matrix the size of the H6
Hamiltonian. It uses nothing from the package under test, so a change to
the package cannot change it.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import time

import numpy as np
import scipy.sparse

# Loops per CPU second of the kernel in a fast phase of a 2-vCPU x86-64
# (Xeon, KVM) host. Changing it rescales every corrected time.
NOMINAL_RATE = 280.0

DIM = 1 << 12
# A real CSR matrix the size of the H6 Hamiltonian's (about 5 MB), so the
# kernel, like a solve, reads it from the shared last-level cache.
ROW_NNZ = 100
PAIRS = 512
ROTATIONS = 100
DICT_STEPS = 1000


def _inputs():
    rng = np.random.default_rng(1)
    matrix = scipy.sparse.random(DIM, DIM, density=ROW_NNZ / DIM, format="csr",
                                 random_state=rng)
    vector = rng.random(DIM) + 1j * rng.random(DIM)
    perm = rng.permutation(DIM)
    src, dst = perm[:PAIRS], perm[PAIRS:2 * PAIRS]
    return matrix, vector / np.linalg.norm(vector), src, dst


def _loop(matrix, vector, src, dst, table):
    for i in range(DICT_STEPS):
        key = (i % 97, i % 7)
        table[key] = table.get(key, 0) + 1
    c, s = np.cos(0.1), np.sin(0.1)
    for _ in range(ROTATIONS):
        a, b = vector[src], vector[dst]
        vector[src] = c * a - s * b
        vector[dst] = c * b + s * a
    h = matrix @ vector
    return vector + 1e-3 * h / np.linalg.norm(h)


def _beat(shared, parent):
    """Child process: loop until told to stop or orphaned; publish
    (loops, CPU seconds) after every loop, CPU time first, so a reader
    that sees a loop count also sees a CPU time at least that recent."""
    matrix, vector, src, dst = _inputs()
    table = {}
    loops = 0
    while not shared[2] and os.getppid() == parent:
        vector = _loop(matrix, vector, src, dst, table)
        vector /= np.linalg.norm(vector)
        loops += 1
        shared[1] = time.thread_time()
        shared[0] = loops


class Metronome:
    """Context manager: runs the kernel beside the caller on the caller's
    CPU set (pin the caller first) and stops and reaps it on exit."""

    START_TIMEOUT_S = 30.0

    def __init__(self):
        # fork, not spawn: the child starts in milliseconds with numpy and
        # scipy already imported. measure.py forks before any solve, while
        # it has one thread (BLAS is pinned to one; no pool has started).
        ctx = multiprocessing.get_context("fork")
        # [loops, kernel CPU seconds, stop flag] in an anonymous shared
        # mapping that the child inherits; unlike multiprocessing's shared
        # arrays it needs no file in /dev/shm.
        self._shared = memoryview(mmap.mmap(-1, 3 * 8)).cast("d")
        self._proc = ctx.Process(target=_beat, args=(self._shared, os.getpid()), daemon=True)

    def __enter__(self):
        self._proc.start()
        deadline = time.monotonic() + self.START_TIMEOUT_S
        while self._shared[0] < 1:
            if not self._proc.is_alive() or time.monotonic() > deadline:
                self.__exit__(None, None, None)
                raise RuntimeError("metronome did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc):
        self._shared[2] = 1
        self._proc.join(timeout=5)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()

    def read(self):
        """(loops, CPU seconds) of the kernel so far."""
        loops = self._shared[0]
        return loops, self._shared[1]


def rate(before, after):
    """Kernel loops per CPU second between two `read()`s."""
    loops, cpu = after[0] - before[0], after[1] - before[1]
    if loops < 1 or cpu <= 0:
        raise RuntimeError("metronome made no progress during the section")
    return loops / cpu

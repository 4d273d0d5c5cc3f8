"""Host-speed calibration: a fixed pure-Python kernel timed between cells.

The benchmark runs on shared hosts whose speed for the same code drifts
by 20-30% from one few-second window to the next and over tens of
minutes.  Medians over a run cannot remove a drift that lasts longer
than the run.  So the benchmark times a fixed kernel (:func:`chunk`)
between cells, in the same seconds as the work, and divides.

:class:`HostSpeed` keeps the kernel's time at a fixed ``share`` of the
work time of a pass.  Its ``factor`` is how much slower than the
reference speed the host ran the kernel: a factor of 1.2 means a
chunk took 1.2 x :data:`REFERENCE_CHUNK_S`.  A host time divided by
the factor is in *reference seconds*: the time the work would take on
a host that runs the kernel at the reference speed.  The kernel is part
of the benchmark, not of the program, so a change to the program moves
the work and leaves the kernel alone.

The kernel has three parts, because a small-footprint loop alone swings
further than the simulator when the host speeds up or slows down, and
the three together follow it more closely.  The first part makes method
calls and attribute updates on slotted objects, dict stores and
lookups, heap pushes and pops, integer masks and short strings, all on
a few kilobytes.  The second chases a random cycle through a list of
2**17 int objects, and the third reads and updates random keys of a
dict of 2**15 ints: both miss the caches the way the simulator's page
maps and tables do.  The state is built once, when the first
:class:`HostSpeed` is made (after set-up is timed).  Of it the garbage
collector tracks only 512 small objects and a few lists and dicts, and
a chunk allocates no container, so it does not shift the collector's
schedule for the work.  Its resident size is kept in
:data:`footprint_mb`, so the benchmark can leave it out of peak memory.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Callable

#: Rounds of each part of the kernel in one chunk.  On the reference
#: host the parts take about a quarter, two fifths and a third of it.
CHUNK_ROUNDS = 1500
CHASE_STEPS = 15000
LOOKUP_ROUNDS = 3500
CHASE_SIZE = 1 << 17
LOOKUP_SIZE = 1 << 15
#: Seconds one chunk takes at the reference speed: about the median
#: chunk on a 2-vCPU Intel Xeon VM with Python 3.11.7.
REFERENCE_CHUNK_S = 0.010
_MASK32 = 0xFFFF_FFFF

#: Resident MB the kernel's state added when it was built.
footprint_mb = 0.0


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value

    def bump(self, amount: int) -> int:
        self.value = (self.value * 31 + amount) & _MASK32
        return self.value


_state = None


def _resident_mb() -> float:
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * 4096 / (1 << 20)


def _build_state():
    global _state, footprint_mb
    before = _resident_mb()
    rng = random.Random(0)
    nodes = [_Node(i, i * 7) for i in range(512)]
    table = {i: nodes[i & 511] for i in range(4096)}
    order = list(range(CHASE_SIZE))
    rng.shuffle(order)
    ring = [0] * CHASE_SIZE        # one cycle through every slot
    for k in range(CHASE_SIZE):
        ring[order[k - 1]] = order[k]
    keys = rng.sample(range(1 << 28), LOOKUP_SIZE)
    lookup = {key: i for i, key in enumerate(keys)}
    rng.shuffle(keys)
    _state = (nodes, table, list(range(64)), ring, lookup, keys)
    footprint_mb = _resident_mb() - before


def chunk() -> int:
    """One chunk of the calibration kernel; returns a checksum."""
    if _state is None:
        _build_state()
    nodes, table, heap, ring, lookup, keys = _state
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    for i in range(CHUNK_ROUNDS):
        node = nodes[(i * 13) & 511]
        v = node.bump(i)
        table[v & 4095] = node
        other = table.get((v >> 3) & 4095)
        if other is not None:
            acc ^= other.value
        push(heap, v & 0xFFFF)
        acc += pop(heap)
        text = f"k{i & 255}"
        acc += len(text)
    slot = acc & (CHASE_SIZE - 1)
    for _ in range(CHASE_STEPS):
        slot = ring[slot]
    acc += slot
    mask = LOOKUP_SIZE - 1
    for j in range(LOOKUP_ROUNDS):
        key = keys[(j * 40503 + slot) & mask]
        value = lookup[key]
        lookup[key] = (value + j) & _MASK32
        acc ^= value
    return acc


class HostSpeed:
    """Calibration time kept at ``share`` of the work time of a pass."""

    def __init__(self, share: float,
                 clock: Callable[[], float] = time.perf_counter,
                 kernel: Callable[[], object] = chunk):
        if kernel is chunk and _state is None:
            _build_state()
        self.share = share
        self.clock = clock
        self.kernel = kernel
        self.reset()

    def reset(self) -> None:
        """Start a new window (a pass, or a set-up)."""
        self.work_s = 0.0
        self.calib_s = 0.0
        self.chunks = 0

    def measure(self, chunks: int) -> None:
        """Time ``chunks`` chunks of the kernel."""
        start = self.clock()
        for _ in range(chunks):
            self.kernel()
        self.calib_s += self.clock() - start
        self.chunks += chunks

    def after_work(self, work_s: float) -> None:
        """Account ``work_s`` seconds of work, then time chunks until the
        calibration time is ``share`` of the window's work time again."""
        self.work_s += work_s
        while self.calib_s < self.share * self.work_s:
            self.measure(1)

    @property
    def factor(self) -> float:
        """Host slowness over the window: 1.0 is the reference speed."""
        if self.chunks == 0:
            self.measure(1)
        return self.calib_s / (self.chunks * REFERENCE_CHUNK_S)

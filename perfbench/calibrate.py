"""Host-speed calibration for the benchmark's host-time metrics.

On a shared host the interpreter's speed drifts by tens of percent
within seconds as other tenants load the same cores, and a run's host
time drifts with it.  The benchmark therefore measures the host's
speed *while* the workload runs: :class:`SpeedSampler` adds a process
to each simulator that wakes every :data:`PERIOD_US` of virtual time
and, once :data:`INTERVAL_NS` of host time has passed since its last
sample, times one pass of :func:`loop_ns`.  A round's host time, less
the time spent sampling, is then scaled to a host on which one pass
takes :data:`REFERENCE_NS`, by the ratio of the two loop times raised to
:data:`SENSITIVITY`.

The loop is the benchmark's own code, so a change to the program never
moves it, and it exercises what the simulator spends its time on:
attribute loads scattered over a heap of small objects a few MiB large,
a heap of pending entries, closures and short SHA-256 digests.  Of the
loops tried on a shared 2-vCPU host, this mix tracked the workloads'
drift best; a loop confined to the L1 cache over-corrected.  The
sampler's wake-ups touch nothing the program reads, so the program's
events run in the same order at the same virtual times as without it
(``test_perfbench`` checks this).
"""

from __future__ import annotations

import hashlib
import heapq
import random
import statistics
import time

_clock = time.perf_counter_ns

#: Host time one calibration pass takes on the reference host.
REFERENCE_NS = 4_000_000
#: How strongly the workloads' host time follows the loop's: over 46
#: runs of the three workloads on a shared 2-vCPU host, the
#: least-squares slope of log(run wall time) on log(loop time) was
#: 0.68-0.74.  Scaling by the full ratio over-corrected: it moved the
#: device workload's median by 15% between two sets of ten runs.
SENSITIVITY = 0.7
#: Virtual time between the sampler's wake-ups.
PERIOD_US = 100.0
#: Host time between calibration passes while a simulation runs.
INTERVAL_NS = 40_000_000
#: The sampler stops past this virtual time, so a simulation that
#: deadlocks still runs out of events instead of spinning forever.
HORIZON_US = 60_000_000.0


class _Node:
    __slots__ = ("number", "text", "value")

    def __init__(self, number: int) -> None:
        self.number = number
        self.text = str(number)
        self.value = number * 7


#: The calibration heap (about 7 MiB) and the order one pass visits it.
_POOL = tuple(_Node(i) for i in range(60_000))
_ORDER = tuple(random.Random("perfbench/calibrate").randrange(len(_POOL))
               for _ in range(3_000))


def loop_ns() -> int:
    """Host nanoseconds one pass of the calibration loop takes."""
    heap: list = []
    total = 0
    push, pop = heapq.heappush, heapq.heappop
    started = _clock()
    for step, index in enumerate(_ORDER):
        node = _POOL[index]
        total += node.number + len(node.text) + node.value
        push(heap, (node.value, step))
        if len(heap) > 64:
            pop(heap)
        if step % 4 == 0:
            total += len(hashlib.sha256(node.text.encode()).digest())
        callback = lambda value, step=step: value + step  # noqa: E731
        total += callback(1)
    elapsed = _clock() - started
    if total <= 0:  # keeps the loop's work observable
        raise AssertionError("calibration loop did no work")
    return elapsed


def scale(host_ns: float, passes: list[int]) -> float:
    """*host_ns* on the reference host, given calibration *passes* timed
    alongside it."""
    return host_ns * (REFERENCE_NS / statistics.median(passes)) ** SENSITIVITY


class SpeedSampler:
    """Calibration passes interleaved with timed work: with a round's
    simulation through :meth:`start`, or with a loop that calls
    :meth:`poll`."""

    def __init__(self) -> None:
        self.passes: list[int] = []
        #: Host time spent in calibration passes, to subtract.
        self.spent_ns = 0
        #: Events the sampler's own process added to the simulators.
        self.events = 0
        self._active = False
        self._last = 0

    def start(self, sims) -> None:
        self._active = True
        self._last = _clock()
        for sim in sims:
            sim.process(self._wake_up(sim))
            self.events += 1  # the process's start event

    def stop(self) -> None:
        self._active = False

    def _wake_up(self, sim):
        while self._active and sim.now < HORIZON_US:
            yield sim.timeout(PERIOD_US)
            self.events += 1
            if self._active:
                self.poll()

    def poll(self) -> None:
        """Sample if :data:`INTERVAL_NS` passed since the last sample."""
        if _clock() - self._last >= INTERVAL_NS:
            self.sample()

    def sample(self) -> None:
        started = _clock()
        self.passes.append(loop_ns())
        self._last = _clock()
        self.spent_ns += self._last - started

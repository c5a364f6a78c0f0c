"""Shared resources for simulation processes.

* :class:`Resource` — a counted semaphore with FIFO queueing.  Used for
  the TNIC-OS library's per-REG-page locks (§5.2).
* :class:`Store` — an unbounded FIFO of items with blocking ``get``.
  Used for NIC RX/TX queues and host completion queues.
* :class:`Pipe` — a bandwidth-limited, propagation-delayed byte channel.
  Used for links (100 Gb wire) and the PCIe DMA engine.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


class Resource:
    """A counted resource (semaphore) with FIFO fairness."""

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held units."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of processes waiting to acquire."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that triggers once a unit is held.

        Lifecycle contract (LIV001): every acquire must be paired with a
        :meth:`release` on *every* path.  Exceptions are delivered into
        processes at yield points, so a holder that yields again before
        releasing must release in a ``try/finally``; a callback-driven
        holder must release on its error path too — see
        ``RdmaLibrary._post_locked`` for both release sites."""
        # Direct construction: acquire() is on the REG-page-lock hot
        # path, so skip the sim.event() frame.
        event = Event(self.sim)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one held unit, waking the next waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1

    def locked(self) -> Generator[Event, Any, None]:
        """Process helper: ``yield from resource.locked()`` is acquire.

        Acquire-only by design: the caller owns the unit afterwards and
        carries the release obligation (the helper exists so process
        bodies read as ``yield from lock.locked()``)."""
        yield self.acquire()  # lint: ignore[LIV001] acquire-only helper: the caller owns the release obligation


class Store:
    """Unbounded FIFO store with blocking retrieval."""

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit *item*; wakes the oldest blocked getter if present."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that triggers with the next item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any | None:
        """Non-blocking retrieval; None if the store is empty."""
        if self._items:
            return self._items.popleft()
        return None

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending :meth:`get` so it can no longer consume an
        item.  Call this for the losing ``get`` of a get-vs-timeout race
        — an abandoned getter would otherwise swallow the next put."""
        try:
            self._getters.remove(event)
        except ValueError:
            pass  # already fulfilled or never pending

    def peek_all(self) -> list[Any]:
        """Snapshot of queued items (non-destructive)."""
        return list(self._items)


class Pipe:
    """A serialised byte channel with bandwidth and propagation delay.

    Transfers are serialised: a transfer occupies the channel for
    ``size / bandwidth`` (the *serialisation* time) and arrives
    ``propagation`` later.  This models both network wires and the PCIe
    DMA engine, whose occupancy is what creates queueing under load.
    """

    __slots__ = ("sim", "bandwidth", "propagation", "_busy_until",
                 "bytes_transferred")

    def __init__(
        self,
        sim: "Simulator",
        bandwidth_bytes_per_us: float,
        propagation_us: float = 0.0,
    ) -> None:
        if bandwidth_bytes_per_us <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_us < 0:
            raise ValueError("propagation delay must be >= 0")
        self.sim = sim
        self.bandwidth = bandwidth_bytes_per_us
        self.propagation = propagation_us
        self._busy_until = 0.0
        self.bytes_transferred = 0

    def serialisation_time(self, size_bytes: int) -> float:
        """Time the channel is occupied by a *size_bytes* transfer."""
        return size_bytes / self.bandwidth

    def transfer(self, size_bytes: int) -> Event:
        """Send *size_bytes*; the event triggers at delivery time."""
        sim = self.sim
        return sim.timeout_at(self.reserve(sim._now, size_bytes), size_bytes)

    def reserve(self, at: float, size_bytes: int) -> float:
        """Book a *size_bytes* transfer starting no earlier than *at*;
        returns its delivery instant.

        Closed form of a FIFO server: reservations must arrive in start
        order.  The instant is ``at + (busy_until + propagation - at)``,
        the float a timeout of that delay issued at *at* would land on,
        so booking ahead of time is bit-identical to booking at *at*.
        """
        if size_bytes < 0:
            raise ValueError("transfer size must be >= 0")
        start = at if at > self._busy_until else self._busy_until
        busy_until = start + size_bytes / self.bandwidth
        self._busy_until = busy_until
        self.bytes_transferred += size_bytes
        return at + (busy_until + self.propagation - at)

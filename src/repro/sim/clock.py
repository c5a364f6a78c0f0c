"""The virtual clock and event loop.

:class:`Simulator` owns a **calendar queue** of `(time, tiebreak,
event)` entries and advances virtual time by draining the earliest
time bucket and running each event's callbacks.  All timing in this
repository — HMAC pipeline delays, PCIe DMA transfers, wire
propagation, TEE call overheads — is expressed as
:class:`~repro.sim.events.Timeout` events on one simulator, so
measurements are exactly reproducible.

Time unit: **microseconds** throughout the repository, matching the
paper's reporting unit (µs).

Hot path: the calendar queue.  :meth:`Simulator.run` is the inner loop
under every reproduced figure (§8), so the schedule/drain cycle avoids
per-event heap churn:

* Scheduling while the loop is *idle* is a bare ``list.append`` onto a
  staging list; :meth:`run`/:meth:`step` distribute it into buckets in
  one pass (:meth:`_absorb`).
* Scheduling while the loop is *running* is an O(1) append onto a
  fixed-width time bucket (``bucket = int(when * inv_width)``, an
  exact, monotone map for non-negative times), plus one integer
  heappush when the bucket is new.  The bucket width defaults to
  :data:`DEFAULT_BUCKET_WIDTH_US` = 1.0 µs — sized from the observed
  link delays (``WIRE_PROPAGATION_US`` is 1.0 µs, MTU serialisation at
  100 Gb/s ~0.33 µs, DMA and HMAC occupancies a few µs), so one
  delivery wave of a protocol round lands in one or two buckets.
* Draining pops the smallest active bucket id (a heap of *ints*),
  sorts that one bucket (Timsort is near-linear on the mostly-ordered
  appends), and walks it with a plain ``for``.  Events scheduled
  *during* the walk land either in a future bucket (O(1) append) or,
  for the bucket being drained, in a small ``fresh`` heap interleaved
  by ``(time, tiebreak)``.
* Events farther out than :data:`CALENDAR_HORIZON_BUCKETS` buckets go
  to an **overflow heap**; when the calendar runs dry the horizon
  advances and due overflow entries migrate into buckets
  (:meth:`_migrate`), so a far-future retransmission timer costs two
  heap ops total instead of a calendar full of empty buckets.

All of this is wall-clock-only: ``tests/test_golden_trace.py`` pins
event ordering and virtual-time results against pre-fast-path goldens,
and ``tests/test_calendar_queue.py`` pins the bucket-boundary edge
cases.

Scheduling invariant: every path into the calendar —
:meth:`_schedule_at`, :meth:`_enqueue_triggered`, the
:class:`Timeout` fast lane and the staging list — appends a
``(when, tiebreak, event)`` entry drawing from the *single*
``_tiebreak`` counter, and every bucket is sorted by the full
``(when, tiebreak)`` key before it drains, so same-timestamp events
always process in FIFO scheduling order no matter which path (or which
bucket) scheduled them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import DeterministicRng

_PROCESSED = Event.PROCESSED
_TRIGGERED = Event.TRIGGERED
_new_timeout = Timeout.__new__

#: Calendar bucket width in µs.  Sized from the observed link delays:
#: one wire hop is ``WIRE_PROPAGATION_US`` (1.0 µs) plus ~0.33 µs MTU
#: serialisation, and the DMA/HMAC occupancies are single-digit µs, so
#: a 1.0 µs bucket holds one delivery wave without degenerating into a
#: per-event bucket.  Any positive width is correct (the bucket map is
#: monotone); powers of two keep the float multiply exact.
DEFAULT_BUCKET_WIDTH_US = 1.0

#: How many buckets the calendar spans ahead of its base before events
#: spill into the overflow heap.  4096 × 1.0 µs covers every in-flight
#: protocol round trip in the repository; only long retransmission /
#: client timeout timers overflow, and those cost two heap ops total.
CALENDAR_HORIZON_BUCKETS = 4096

#: End-of-bucket marker appended to each drain snapshot: its infinite
#: timestamp flushes the fresh heap, then the identity check breaks out.
_END: tuple[float, int, Any] = (float("inf"), 0, None)


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


def _perturbed_ties(seed: int):
    """Tiebreak generator for :meth:`Simulator.perturb_ties`.

    Yields ``(random_20bit << 44) | n``: the random high bits shuffle
    same-timestamp order, the monotonic low bits keep every key unique
    (and resolve the rare high-bit collision back to FIFO).  Keys stay
    well under 2**63, so tuple comparison against counter keys is cheap.
    """
    bits = DeterministicRng(seed, "tiebreak-perturbation").getrandbits
    n = 0
    while True:
        yield (bits(20) << 44) | n
        n += 1


class Simulator:
    """Discrete-event simulation kernel with a microsecond virtual clock."""

    __slots__ = (
        "_now", "_staged", "_buckets", "_active", "_overflow", "_fresh",
        "_width", "_inv_width", "_limit", "_draining", "_tiebreak",
        "_tie_next", "_running",
        "tracer", "telemetry", "sanitizer", "profiler",
        # Escape hatch for tests/tools that attach ad-hoc attributes;
        # the slotted names above keep the kernel's own loads fast.
        "__dict__",
    )

    def __init__(self, bucket_width_us: float = DEFAULT_BUCKET_WIDTH_US) -> None:
        if bucket_width_us <= 0:
            raise ValueError(f"bucket width must be positive: {bucket_width_us}")
        self._now = 0.0
        #: Entries appended while the loop is idle; distributed into
        #: buckets by :meth:`_absorb` when `run`/`step` starts.
        self._staged: list[tuple[float, int, Event]] = []
        #: bucket id -> its (when, tiebreak, event) entries, unsorted.
        self._buckets: dict[int, list[tuple[float, int, Event]]] = {}
        #: Min-heap of non-empty bucket ids (plain ints).
        self._active: list[int] = []
        #: Min-heap of entries beyond the calendar horizon.
        self._overflow: list[tuple[float, int, Event]] = []
        #: Min-heap of entries scheduled *into the bucket being
        #: drained* by its own callbacks; interleaved by (when, tie).
        self._fresh: list[tuple[float, int, Event]] = []
        self._width = bucket_width_us
        self._inv_width = 1.0 / bucket_width_us
        #: First bucket id past the calendar horizon (overflow beyond).
        self._limit = CALENDAR_HORIZON_BUCKETS
        #: Bucket id currently being drained, -1 between buckets.
        self._draining = -1
        self._tiebreak = count()
        #: Bound ``__next__`` of the tiebreak source — one load+call on
        #: the schedule path instead of a global ``next`` dispatch.
        self._tie_next = self._tiebreak.__next__
        #: True while :meth:`run` is draining — scheduling then goes
        #: straight into the calendar instead of the staging list.
        self._running = False
        #: Optional structured tracer (see :mod:`repro.sim.trace`).
        self.tracer = None
        #: Optional telemetry hub (see :mod:`repro.telemetry`); the
        #: hooks in :mod:`repro.sim.instrument` dispatch through it.
        self.telemetry = None
        #: Optional happens-before sanitizer (see :mod:`repro.sanitizer`);
        #: the Process/Event hooks and ``instrument.note_read/note_write``
        #: dispatch through it, same zero-cost-when-detached contract.
        self.sanitizer = None
        #: Optional deterministic profiler (see
        #: :mod:`repro.telemetry.profiler`), attached with
        #: ``Profiler.attach(sim)``.  The drain loop dispatches each
        #: processed event through it; detached, the cost is one
        #: attribute load and one ``is`` check per event.  The kernel
        #: never reads a clock itself — the profiler owns its own
        #: host-time source — so this file stays DET001-clean.
        self.profiler = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers *delay* µs from now.

        This is the single hottest allocation site in the repository
        (every wire hop, DMA transfer and pipeline occupancy is one
        timeout), so it builds the :class:`Timeout` inline via
        ``__new__`` — one frame instead of ``timeout()`` →
        ``type.__call__`` → ``Timeout.__init__`` — and inlines the
        calendar push (:meth:`_push`) rather than paying a second
        frame.  The stores below mirror :meth:`Timeout.__init__`.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        timeout = _new_timeout(Timeout)
        timeout.sim = self
        timeout.callbacks = []
        timeout._state = _TRIGGERED
        timeout._value = value
        timeout._exception = None
        timeout.delay = delay
        when = self._now + delay
        if self._running:
            entry = (when, self._tie_next(), timeout)
            bucket = int(when * self._inv_width)
            if bucket == self._draining:
                heappush(self._fresh, entry)
            elif bucket < self._limit:
                buckets = self._buckets
                pending = buckets.get(bucket)
                if pending is None:
                    buckets[bucket] = [entry]
                    heappush(self._active, bucket)
                else:
                    pending.append(entry)
            else:
                heappush(self._overflow, entry)
        else:
            self._staged.append((when, self._tie_next(), timeout))
        return timeout

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create an event that triggers at the absolute instant *when*.

        For closed-form FIFO servers (:class:`~repro.sim.resources.Pipe`,
        :class:`~repro.crypto.hmac_engine.HmacEngine`) that compute
        their completion instant themselves.  Scheduling that float
        directly keeps it bit-identical; ``timeout(when - now)`` would
        schedule ``now + (when - now)``, which need not round back to
        *when*.
        """
        now = self._now
        if when < now:
            raise ValueError(f"cannot schedule into the past: {when} < {now}")
        timeout = _new_timeout(Timeout)
        timeout.sim = self
        timeout.callbacks = []
        timeout._state = _TRIGGERED
        timeout._value = value
        timeout._exception = None
        timeout.delay = when - now
        self._push(when, timeout)
        return timeout

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new process running *generator* in virtual time."""
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event triggering on the first of *events*."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event triggering once all *events* triggered."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Schedule perturbation (used by `python -m repro sanitize`)
    # ------------------------------------------------------------------
    def perturb_ties(self, seed: int | None) -> None:
        """Perturb tie-breaking among same-timestamp events.

        FIFO order among same-timestamp events is a *policy*, not a
        semantic guarantee: correct protocol code must produce the same
        final state under any tie order.  This seam swaps the monotonic
        ``_tiebreak`` counter for a seeded generator whose values are
        random in their high bits and monotonic in their low bits —
        same-timestamp events therefore process in a seed-determined
        shuffle (unique keys, reproducible run-to-run), while
        cross-timestamp order is untouched.  Entries already queued
        (staged, bucketed or overflowed) are re-keyed so
        construction-time ties are perturbed too.  The calendar is
        collapsed back into the staging list; the next ``run``/``step``
        redistributes with the new keys.

        ``perturb_ties(None)`` restores exact FIFO.  The default path is
        untouched: no extra work, and golden traces stay byte-identical.
        """
        if self._running:
            raise RuntimeError("cannot perturb ties while the loop is running")
        self._tiebreak = count() if seed is None else _perturbed_ties(seed)
        self._tie_next = self._tiebreak.__next__
        entries = self._staged
        if self._buckets or self._overflow:
            for pending in self._buckets.values():
                entries.extend(pending)
            entries.extend(self._overflow)
            self._buckets = {}
            self._active = []
            self._overflow = []
        if entries:
            entries.sort()  # current (when, tiebreak) FIFO order
            self._staged = [
                (when, self._tie_next(), event)
                for when, _, event in entries
            ]

    # ------------------------------------------------------------------
    # Scheduling internals (used by Event/Timeout)
    # ------------------------------------------------------------------
    def _push(self, when: float, event: Event) -> None:
        """The one scheduling primitive: enqueue *event* at *when*.

        Every entry shares this tuple shape and tiebreak counter (the
        :meth:`timeout` fast lane replicates it verbatim); FIFO order
        among same-timestamp events is therefore global.  While the
        loop runs, the entry goes straight into the calendar: the
        drained bucket's ``fresh`` heap, an O(1) bucket append, or the
        overflow heap past the horizon.
        """
        if self._running:
            entry = (when, self._tie_next(), event)
            bucket = int(when * self._inv_width)
            if bucket == self._draining:
                heappush(self._fresh, entry)
            elif bucket < self._limit:
                buckets = self._buckets
                pending = buckets.get(bucket)
                if pending is None:
                    buckets[bucket] = [entry]
                    heappush(self._active, bucket)
                else:
                    pending.append(entry)
            else:
                heappush(self._overflow, entry)
        else:
            self._staged.append((when, self._tie_next(), event))

    def _schedule_at(self, when: float, event: Event) -> None:
        if when < self._now:
            raise ValueError(f"cannot schedule into the past: {when} < {self._now}")
        self._push(when, event)

    def _enqueue_triggered(self, event: Event) -> None:
        self._push(self._now, event)

    # ------------------------------------------------------------------
    # Calendar maintenance
    # ------------------------------------------------------------------
    def _absorb(self) -> None:
        """Distribute the idle-time staging list into calendar buckets.

        Runs once at the top of :meth:`run`/:meth:`step`.  Entries keep
        their construction-time tiebreaks, and every bucket is sorted
        by the full ``(when, tiebreak)`` key before draining, so the
        distribution order never affects processing order.
        """
        staged = self._staged
        self._staged = []
        inv_width = self._inv_width
        limit = self._limit
        buckets = self._buckets
        active = self._active
        overflow = self._overflow
        for entry in staged:
            bucket = int(entry[0] * inv_width)
            if bucket >= limit:
                heappush(overflow, entry)
                continue
            pending = buckets.get(bucket)
            if pending is None:
                buckets[bucket] = [entry]
                heappush(active, bucket)
            else:
                pending.append(entry)

    def _migrate(self) -> None:
        """Advance the horizon and pull due overflow entries into buckets.

        Called only when the calendar is empty, so the new base is the
        earliest overflow entry's bucket.  Entries pop in full
        ``(when, tiebreak)`` order, so per-bucket append order stays
        sorted and FIFO-correct.
        """
        overflow = self._overflow
        inv_width = self._inv_width
        limit = int(overflow[0][0] * inv_width) + CALENDAR_HORIZON_BUCKETS
        self._limit = limit
        buckets = self._buckets
        active = self._active
        while overflow:
            entry = overflow[0]
            bucket = int(entry[0] * inv_width)
            if bucket >= limit:
                break
            heappop(overflow)
            pending = buckets.get(bucket)
            if pending is None:
                buckets[bucket] = [entry]
                heappush(active, bucket)
            else:
                pending.append(entry)

    def _restore(self, bucket: int, entries: list) -> None:
        """Return unprocessed *entries* (plus fresh leftovers) to *bucket*.

        Early-exit path (deadline, sentinel, callback exception): the
        calendar must hold exactly the unprocessed events afterwards.
        List order is irrelevant — buckets sort on drain.
        """
        fresh = self._fresh
        if fresh:
            entries.extend(fresh)
            del fresh[:]
        if entries:
            pending = self._buckets.get(bucket)
            if pending is None:
                self._buckets[bucket] = entries
                heappush(self._active, bucket)
            else:
                pending.extend(entries)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the single earliest scheduled event."""
        if self._staged:
            self._absorb()
        active = self._active
        if not active:
            if not self._overflow:
                raise EmptySchedule()
            self._migrate()
        bucket = active[0]
        pending = self._buckets[bucket]
        if len(pending) > 1:
            pending.sort()
        entry = pending.pop(0)
        if not pending:
            heappop(active)
            del self._buckets[bucket]
        when = entry[0]
        event = entry[2]
        self._now = when
        event._state = _PROCESSED
        callbacks = event.callbacks
        profiler = self.profiler
        if profiler is not None:
            event.callbacks = []
            started = profiler.clock()
            for callback in callbacks:
                callback(event)
            profiler.account(event, callbacks, when,
                             profiler.clock() - started)
        elif callbacks:
            event.callbacks = []
            for callback in callbacks:
                callback(event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run the event loop.

        * ``until=None`` — run until no events remain.
        * ``until=<float>`` — run until virtual time reaches that instant.
        * ``until=<Event>`` — run until that event is processed and return
          its value (raising its exception if it failed).
        """
        sentinel: Event | None = None
        deadline: float | None = None
        if isinstance(until, Event):
            sentinel = until
            if sentinel._state == _PROCESSED:
                return sentinel.value
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError("run(until=...) is in the past")

        if self._running:
            raise RuntimeError("run() called from inside the event loop")
        if self._staged:
            self._absorb()
        self._running = True
        try:
            if sentinel is None and deadline is None:
                self._drain_fast()
            else:
                self._drain(sentinel, deadline)
        finally:
            self._running = False

        if sentinel is not None:
            if sentinel._state != _PROCESSED:
                raise RuntimeError(
                    "simulation ran out of events before the awaited "
                    "event triggered (deadlock?)"
                )
            return sentinel.value
        if deadline is not None:
            self._now = deadline
        return None

    def _drain_fast(self) -> None:
        """Calendar drain for bare ``run()``: no sentinel, no deadline.

        The dominant mode (every workload that runs to completion), so
        it carries none of the per-event deadline/sentinel compares of
        :meth:`_drain`.  Each pass pops the smallest active bucket id,
        sorts that bucket once, and walks it with a plain ``for`` — the
        ``_END`` marker's infinite timestamp flushes the fresh heap
        before the walk concludes, so callback-scheduled same-bucket
        events interleave exactly as the global (when, tie) order
        demands.  On a callback exception the ``finally`` block puts
        every unprocessed entry back (processed events are marked, so
        membership is recoverable without tracking an index).
        """
        buckets = self._buckets
        active = self._active
        fresh = self._fresh
        while True:
            if not active:
                if self._overflow:
                    self._migrate()
                    continue
                return
            bucket = heappop(active)
            snapshot = buckets.pop(bucket)
            if len(snapshot) > 1:
                snapshot.sort()
            snapshot.append(_END)
            self._draining = bucket
            done = False
            try:
                # Tuple unpack in the for header: UNPACK_SEQUENCE on a
                # 3-tuple is cheaper than two indexed loads per entry.
                for when, _tie, event in snapshot:
                    while fresh and fresh[0][0] < when:
                        # A callback scheduled into this bucket, earlier
                        # than the next snapshot entry: interleave it.
                        # Ties go to the snapshot (its tiebreaks are
                        # older).
                        fwhen, _ftie, fevent = heappop(fresh)
                        self._now = fwhen
                        fevent._state = _PROCESSED
                        callbacks = fevent.callbacks
                        profiler = self.profiler
                        if profiler is not None:
                            fevent.callbacks = []
                            started = profiler.clock()
                            for callback in callbacks:
                                callback(fevent)
                            profiler.account(fevent, callbacks, fwhen,
                                             profiler.clock() - started)
                        elif callbacks:
                            fevent.callbacks = []
                            for callback in callbacks:
                                callback(fevent)
                    if event is None:
                        break  # the _END marker: bucket fully drained
                    self._now = when
                    event._state = _PROCESSED
                    callbacks = event.callbacks
                    profiler = self.profiler
                    if profiler is not None:
                        # Profiled lane: bracket the callbacks with the
                        # profiler's host clock and attribute the event.
                        # The detached lane below is untouched — its
                        # cost is the one attribute load + `is` check.
                        event.callbacks = []
                        started = profiler.clock()
                        for callback in callbacks:
                            callback(event)
                        profiler.account(event, callbacks, when,
                                         profiler.clock() - started)
                    elif callbacks:
                        event.callbacks = []
                        for callback in callbacks:
                            callback(event)
                done = True
            finally:
                self._draining = -1
                if not done:
                    remaining = []
                    for entry in snapshot:
                        if entry is not _END and entry[2]._state != _PROCESSED:
                            remaining.append(entry)
                    self._restore(bucket, remaining)

    def _drain(self, sentinel: Event | None, deadline: float | None) -> None:
        """Calendar drain with sentinel/deadline early exit.

        Exits with the calendar holding exactly the unprocessed events
        — including when a callback raises (the ``finally`` restores
        the unconsumed snapshot tail and the fresh heap).
        """
        buckets = self._buckets
        active = self._active
        fresh = self._fresh
        width = self._width
        while True:
            if not active:
                if self._overflow:
                    self._migrate()
                    continue
                return
            bucket = active[0]
            if deadline is not None and bucket * width > deadline:
                return  # whole bucket starts past the deadline
            heappop(active)
            snapshot = buckets.pop(bucket)
            if len(snapshot) > 1:
                snapshot.sort()
            self._draining = bucket
            index = 0
            size = len(snapshot)
            try:
                while True:
                    if index < size:
                        entry = snapshot[index]
                        when = entry[0]
                        if fresh and fresh[0][0] < when:
                            # Interleave a callback-scheduled entry;
                            # ties go to the snapshot (older tiebreaks).
                            if deadline is not None and fresh[0][0] > deadline:
                                return
                            entry = heappop(fresh)
                            when = entry[0]
                            event = entry[2]
                        else:
                            if deadline is not None and when > deadline:
                                return
                            event = entry[2]
                            index += 1
                    elif fresh:
                        if deadline is not None and fresh[0][0] > deadline:
                            return
                        entry = heappop(fresh)
                        when = entry[0]
                        event = entry[2]
                    else:
                        break
                    self._now = when
                    event._state = _PROCESSED
                    callbacks = event.callbacks
                    profiler = self.profiler
                    if profiler is not None:
                        event.callbacks = []
                        started = profiler.clock()
                        for callback in callbacks:
                            callback(event)
                        profiler.account(event, callbacks, when,
                                         profiler.clock() - started)
                    elif callbacks:
                        event.callbacks = []
                        for callback in callbacks:
                            callback(event)
                    if event is sentinel:
                        return
            finally:
                self._draining = -1
                if index < size or fresh:
                    self._restore(bucket, snapshot[index:])

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def delayed_call(self, delay: float, fn: Callable[[], Any]) -> Timeout:
        """Invoke *fn* after *delay* µs of virtual time."""
        timeout = Timeout(self, delay)
        timeout.callbacks.append(lambda _event: fn())  # lint: ignore[PERF001] adapter dropping the event arg; the zero-arg fn contract predates Timeout callbacks
        return timeout

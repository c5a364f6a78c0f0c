"""Awaitable events for the discrete-event simulator.

An :class:`Event` is a one-shot occurrence.  Simulation processes wait on
events by ``yield``-ing them; when the event triggers, the process is
resumed with the event's value (or the event's exception is thrown into
it).  This mirrors the SimPy programming model, which keeps protocol code
(retransmission timers, RPC waits, quorum collection) readable.

Hot path: every message, DMA transfer and HMAC occupancy in the
repository becomes at least one :class:`Timeout`, so this module is on
the wall-clock critical path of every reproduced figure.  All event
classes carry ``__slots__`` and :class:`Timeout` schedules itself
directly onto the simulator's heap (the *fast lane*), bypassing the
generic ``succeed``/``_schedule_at`` machinery — without changing when
anything happens in virtual time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.clock import Simulator


class Event:
    """A one-shot occurrence in virtual time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` triggers them
    exactly once.  Callbacks registered before the trigger run when the
    event is processed by the event loop.
    """

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"

    __slots__ = ("sim", "callbacks", "_state", "_value", "_exception")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._state = Event.PENDING
        self._value: Any = None
        self._exception: BaseException | None = None

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (value or exception)."""
        return self._state != Event.PENDING

    @property
    def processed(self) -> bool:
        """True once the event loop has run this event's callbacks."""
        return self._state == Event.PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._state != Event.PENDING and self._exception is None

    @property
    def value(self) -> Any:
        """The success value; raises if the event failed or is pending."""
        if self._state == Event.PENDING:
            raise RuntimeError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*.

        Lifecycle contract (LIV002): triggers are one-shot.  Code with
        racing trigger paths (completion vs. expiry) must guard the late
        path with ``if not event.triggered:`` or make the paths mutually
        exclusive — a second trigger raises inside whichever process
        happened to cause it, far from the actual bug."""
        if self._state != Event.PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._state = Event.TRIGGERED
        self._value = value
        sim = self.sim
        sanitizer = sim.sanitizer
        if sanitizer is not None:
            # A trigger is a causality edge: whoever resumes on this
            # event happens-after everything the triggering context did.
            sanitizer.event_triggered(self)
        # Inlined _enqueue_triggered: succeed() is the wake-up edge of
        # every Resource/Store handoff, so skip the one-line hop.
        sim._push(sim._now, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception (one-shot; see
        :meth:`succeed` for the LIV002 contract)."""
        if self._state != Event.PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = Event.TRIGGERED
        self._exception = exception
        sim = self.sim
        sanitizer = sim.sanitizer
        if sanitizer is not None:
            sanitizer.event_triggered(self)
        sim._push(sim._now, self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with *event*'s outcome: its exception, else its value.

        Usable directly as a callback (``source.callbacks.append(
        target.trigger)``) to chain one event onto another without a
        closure; one-shot like :meth:`succeed`."""
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed(event._value)

    def _mark_processed(self) -> None:
        self._state = Event.PROCESSED

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} state={self._state}>"


class Timeout(Event):
    """An event that triggers after a fixed virtual-time delay.

    The constructor is the kernel's scheduling fast lane: a timeout is
    born already TRIGGERED and schedules itself into the simulator's
    calendar in one step, skipping ``Event.__init__`` + ``succeed()`` +
    ``_schedule_at`` for the dominant plain-delay case.  It still draws
    its tiebreak from the simulator's single counter (via ``_push``),
    so FIFO ordering against every other scheduling path is preserved
    exactly.  ``Simulator.timeout`` additionally inlines the calendar
    push itself; this constructor serves direct ``Timeout(...)`` uses.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._state = Event.TRIGGERED
        self._value = value
        self._exception = None
        self.delay = delay
        sim._push(sim._now + delay, self)


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        # A Timeout is "triggered" from construction but only *occurs*
        # when processed; conditions therefore key off `processed`.
        for event in self.events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e.processed and e.ok}

    def _detach(self) -> None:
        """Unhook from the children that have not occurred yet.

        A triggered condition ignores them, and a losing child may be a
        long timeout (an ack deadline) that would otherwise keep this
        condition and its results alive until it fires.
        """
        on_child = self._on_child
        for event in self.events:
            if not event.processed and on_child in event.callbacks:
                event.callbacks.remove(on_child)


class AnyOf(_Condition):
    """Triggers when the first of the given events occurs."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # type: ignore[arg-type]
        else:
            self.succeed(self._results())
        self._detach()


class AllOf(_Condition):
    """Triggers once every given event has occurred."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # type: ignore[arg-type]
            self._detach()
            return
        if all(e.processed for e in self.events):
            self.succeed(self._results())

"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.sim.events.Event`; the process sleeps
until that event triggers and is then resumed with the event's value.
A process is itself an event that triggers when the generator returns,
so processes can wait on each other (fork/join).

Hot path: :meth:`Process._resume` runs once per event dispatch in every
process-driven workload, so the detached (no-sanitizer) lane is inlined
flat — bound ``send``/``throw`` cached at construction, the event state
compared directly instead of through the ``processed`` property — and
the sanitizer bracketing lives in a separate cold lane.

:class:`Stages` is the process-free alternative for fixed pipelines
(the device datapath): a per-request record whose owner method is
re-entered by a bound-method callback as each awaited event completes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.sim.events import Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator

_PROCESSED = Event.PROCESSED


class Process(Event):
    """A running simulation process; also an event for its completion."""

    __slots__ = ("_generator", "_target", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any]) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget a 'yield' in the process function?"
            )
        self._generator = generator
        # Bound methods cached once: _resume calls exactly one of them
        # per dispatch, and the attribute chain costs more than the call.
        self._send = generator.send
        self._throw = generator.throw
        self._target: Event | None = None
        # Kick off on a zero-delay event so process start is itself an
        # event-loop step (keeps causality when processes spawn processes).
        bootstrap = sim.timeout(0.0)
        bootstrap.callbacks.append(self._resume)
        self._target = bootstrap
        sanitizer = sim.sanitizer
        if sanitizer is not None:
            sanitizer.process_created(self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self.triggered:
            raise RuntimeError("cannot interrupt a finished process")
        target = self._target
        if target is not None and not target.processed:
            # Detach from the event we were waiting for.
            if self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
        interruption = self.sim.event()
        interruption.fail(Interrupt(cause))
        interruption.callbacks.append(self._resume)
        self._target = interruption

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._target = None
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            # Cold lane: bracket the generator segment so shared-state
            # accesses inside it are attributed to this process and
            # joined with the waking event's vector clock.
            sanitizer.process_resumed(self, event)
            try:
                self._advance(event)
            finally:
                sanitizer.process_suspended(self)
            return
        # Detached fast lane — identical logic, no bracketing frame.
        try:
            if event._exception is not None:
                next_event = self._throw(event._exception)
            else:
                next_event = self._send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process with failure.
            self.fail(exc)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(next_event, Event):
            self._reject_yield(next_event)
            return
        if next_event._state == _PROCESSED:
            # Already done: resume on the next loop iteration with its value.
            immediate = self.sim.timeout(0.0, next_event._value)
            if next_event._exception is not None:
                immediate = self.sim.event()
                immediate.fail(next_event._exception)
            immediate.callbacks.append(self._resume)
            self._target = immediate
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event

    def _advance(self, event: Event) -> None:
        """One generator segment (shared by the sanitized lane)."""
        try:
            if event._exception is not None:
                next_event = self._throw(event._exception)
            else:
                next_event = self._send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            self.fail(exc)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(next_event, Event):
            self._reject_yield(next_event)
            return
        if next_event._state == _PROCESSED:
            immediate = self.sim.timeout(0.0, next_event._value)
            if next_event._exception is not None:
                immediate = self.sim.event()
                immediate.fail(next_event._exception)
            immediate.callbacks.append(self._resume)
            self._target = immediate
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event

    def _reject_yield(self, yielded: Any) -> None:
        """Error path: the generator yielded a non-Event."""
        error = TypeError(
            f"process yielded {type(yielded).__name__}, expected an Event"
        )
        self._generator.close()
        self.fail(error)


class Stages:
    """One request through a fixed pipeline, driven without a process.

    The owner's stage method ``run(stages, event)`` is called once with
    ``event=None`` to start the first stage, then re-entered through
    :meth:`resume` — a bound-method callback — when each event passed
    to :meth:`wait` completes; :attr:`step` names the stage that event
    ended.  A wait costs exactly the awaited event, where a
    :class:`Process` adds a bootstrap event, a completion event and a
    generator resume per request.  An awaited event that fails fails
    the request (:meth:`fail`) without re-entering.  The stage method
    reports success on :attr:`done` and must catch its own exceptions
    and pass them to :meth:`fail`: nothing wraps it the way a process
    wraps its generator.
    """

    __slots__ = ("run", "done", "args", "step", "span", "stage")

    def __init__(
        self,
        run: Callable[["Stages", Event | None], None],
        done: Event,
        args: Any = None,
    ) -> None:
        self.run = run
        self.done = done
        #: The request's inputs, as the stage method wants them.
        self.args = args
        self.step = 0
        #: The request's telemetry span and its current child stage.
        self.span: Any = None
        self.stage: Any = None

    def wait(self, event: Event, step: int) -> None:
        """Re-enter the stage method when *event* (not yet processed)
        completes, with :attr:`step` set to *step*."""
        self.step = step
        event.callbacks.append(self.resume)

    def resume(self, event: Event) -> None:
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.run(self, event)

    def fail(self, exception: BaseException) -> None:
        """Fail the request: end its span with ``status="error"`` (a
        no-op if it already ended) and fail :attr:`done` once."""
        if self.span is not None:
            self.span.end(status="error")
        if not self.done.triggered:
            self.done.fail(exception)

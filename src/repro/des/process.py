"""Processes: generator coroutines driven by the event loop.

A process wraps a generator.  Each value the generator yields must be an
:class:`~repro.des.core.Event`; the process sleeps until that event fires
and is then resumed with the event's value (or the event's exception is
thrown into it).  The process itself *is* an event that triggers when the
generator terminates, so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.des.core import Event, EventPriority, Interrupt, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment


class Process(Event):
    """An executing generator.  Triggers when the generator finishes.

    The event value is the generator's return value; if the generator
    raises, the process fails with that exception.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None if it has
        #: not started or has finished).
        self._target: Optional[Event] = None
        self.name = getattr(generator, "__name__", str(generator))
        # The start event: runs the generator to its first yield.
        env.schedule_callback(self._resume, priority=EventPriority.URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a terminated process is an error; interrupting a
        process from itself is also an error.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")

        # Deliver the interrupt via an urgent event so ordering relative to
        # the simulation clock stays well-defined.
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defuse()
        interrupt_event.callbacks.append(self._resume)
        self.env.schedule(interrupt_event, priority=EventPriority.URGENT)

    # ------------------------------------------------------------------
    # Kernel internals
    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        previous, env._active_process = env._active_process, self

        # Detach from the event we were waiting on (it may differ from
        # `event` when an interrupt arrives while waiting).
        if self._target is not None and self._target is not event:
            # The interrupted wait target remains pending; remove our
            # callback so a later trigger does not resume us twice.
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The event failed; propagate into the generator.  Mark
                    # the failure as handled: the generator now owns it.
                    event.defuse()
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                env._active_process = previous
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active_process = previous
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                env._active_process = previous
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self.fail(error)
                return

            if next_event.callbacks is not None:
                # Event still pending or triggered-but-unprocessed: wait.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                env._active_process = previous
                return

            # Event already processed: feed its value straight back in.
            event = next_event

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name} {state} at {id(self):#x}>"

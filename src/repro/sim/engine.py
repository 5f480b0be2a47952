"""The discrete-event scheduler and process abstraction.

The :class:`Simulator` keeps a priority queue of ``(time, tie, event)``
entries.  :meth:`Simulator.run` repeatedly pops the earliest event, advances
virtual time to it and invokes the event's callbacks.  A :class:`SimProcess`
is itself an event (it fires when the underlying generator returns), and it
registers a callback on whatever event its generator yields so it is resumed
when that event fires.

Hot-path design notes
---------------------
Next to the calendar the simulator keeps an *immediate queue*: callbacks that
must run at the current time, before the next calendar event.  Process
bootstrap, interrupt delivery, and resuming a process that yielded an
already-fired event all go through it, so none of those paths allocates (or
heap-schedules) a wake event any more.  The elisions are counted in
:class:`SimStats` (``sim.stats``), which also tracks heap pushes and events
created by kind — speedups are measured, not assumed.

A fast path may also *reserve* an entry's tie-break sequence number where the
full model would have scheduled the event (:meth:`Simulator.reserve_seq`) and
push the event under that key later, or never (:meth:`Simulator.push_reserved`).
Every run loop records the key of the entry it is processing, so
:meth:`Simulator.passed` can tell whether a reserved entry would already have
fired — the same order the calendar would have produced.
"""

from __future__ import annotations

import heapq
from heapq import heappop as _heappop, heappush as _heappush
from collections import deque
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.sim.primitives import AllOf, AnyOf, Event, EventName, Timeout

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for scheduler-level errors (deadlock, unhandled failures)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`SimProcess.interrupt`.

    The ``cause`` attribute carries the object passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


ProcessGenerator = Generator[Event, Any, Any]


class SimStats:
    """Cheap counter bundle describing what the kernel actually did.

    Every counter is a plain int slot (one integer add on the hot path).
    ``events_elided`` is the number of calendar events the fast paths
    provably avoided relative to the full coroutine/event model — the
    determinism-parity tests assert ``slow.processed_events ==
    fast.processed_events + fast.stats.events_elided`` for toggled runs.
    """

    __slots__ = (
        "heap_pushes",
        "timeouts",
        "conditions",
        "processes",
        "immediate_boots",
        "immediate_resumes",
        "immediate_interrupts",
        "immediate_calls",
        "store_wakeups",
        "fastpath_tx",
        "fastpath_rx",
        "fastpath_local",
        "events_elided",
        "inbox_scan_steps",
    )

    def __init__(self) -> None:
        self.heap_pushes = 0          # events pushed onto the calendar
        self.timeouts = 0             # Timeout events created
        self.conditions = 0           # AllOf/AnyOf conditions created
        self.processes = 0            # SimProcess instances started
        self.immediate_boots = 0      # process bootstraps via the immediate queue
        self.immediate_resumes = 0    # already-fired-event resumes via the queue
        self.immediate_interrupts = 0  # interrupt deliveries via the queue
        self.immediate_calls = 0      # plain call_soon callbacks
        self.store_wakeups = 0        # store getters woken via the queue
        self.fastpath_tx = 0          # closed-form sender-side transfers
        self.fastpath_rx = 0          # closed-form delivery paths
        self.fastpath_local = 0       # same-node deliveries without a process
        self.events_elided = 0        # calendar events the fast paths avoided
        self.inbox_scan_steps = 0     # buckets/index entries wildcard receives inspected

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot (for payloads, logs and benchmark reports)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"<SimStats {fields or 'empty'}>"


class SimProcess(Event):
    """A running simulation process wrapping a generator.

    The process is resumed each time the event it is currently waiting on
    fires; the fired value is sent into the generator (or the exception is
    thrown, for failed events).  When the generator returns, the process
    event fires with the generator's return value.

    Bootstrap and wake-ups for already-fired events go through the
    simulator's immediate queue instead of allocating wake events;
    ``_imm_token`` invalidates a queued resume when an interrupt overtakes it.
    """

    __slots__ = ("generator", "_waiting_on", "_interrupts", "_imm_token")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: EventName = None) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"SimProcess requires a generator, got {type(generator).__name__}")
        Event.__init__(self, sim, name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        self._interrupts: List[Interrupt] = []
        self._imm_token = 0
        stats = sim.stats
        stats.processes += 1
        stats.immediate_boots += 1
        # Bootstrap: resume the process at time "now", before the next
        # calendar event (no boot Event is allocated or heap-scheduled).
        sim._immediate.append((self._boot, None))

    # -- public --------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    @property
    def waiting_on(self) -> Optional[Event]:
        """The event the process is currently blocked on (None if running/finished)."""
        return self._waiting_on

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current event (which may still fire
        later and is simply ignored) and resumes with the exception.
        Delivery goes through the immediate queue, preserving FIFO order
        with pending bootstraps and wake-ups.
        """
        if not self.is_alive:
            return
        self._interrupts.append(Interrupt(cause))
        self.sim.stats.immediate_interrupts += 1
        self.sim._immediate.append((self._deliver_interrupt, None))

    # -- internal ------------------------------------------------------
    def _boot(self, _arg: Any) -> None:
        if self._triggered:  # pragma: no cover - defensive
            return
        self._step(None, is_exception=False)

    def _deliver_interrupt(self, _arg: Any) -> None:
        if not self.is_alive or not self._interrupts:
            return
        exc = self._interrupts.pop(0)
        target = self._waiting_on
        if target is not None and not target._processed and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self._imm_token += 1  # invalidate any queued immediate resume
        self._step(exc, is_exception=True)

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return
        if self._waiting_on is not None and event is not self._waiting_on:
            # Stale wake-up from an event we stopped waiting on (interrupt).
            return
        self._waiting_on = None
        if event._ok:
            self._step(event._value, is_exception=False)
        else:
            event.defused = True
            self._step(event._value, is_exception=True)

    def _imm_resume(self, arg: Tuple[int, Any, bool]) -> None:
        token, value, is_exception = arg
        if self._triggered or token != self._imm_token:
            return
        self._step(value, is_exception)

    def _step(self, value: Any, is_exception: bool) -> None:
        sim = self.sim
        sim._active_process = self
        try:
            if is_exception:
                if isinstance(value, BaseException):
                    target = self.generator.throw(value)
                else:  # pragma: no cover - defensive
                    target = self.generator.throw(SimulationError(str(value)))
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate as failed event
            self.fail(exc)
            return
        finally:
            sim._active_process = None

        cls = target.__class__
        if cls is not Timeout and cls is not Event and not isinstance(target, Event):
            err = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event instances"
            )
            self.fail(err)
            return
        if target._processed:
            # Already fired: resume at the current time through the immediate
            # queue (the pre-fast-path kernel allocated a wake Event here).
            self._imm_token += 1
            sim.stats.immediate_resumes += 1
            if not target._ok:
                target.defused = True
            sim._immediate.append(
                (self._imm_resume, (self._imm_token, target._value, not target._ok))
            )
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)


class Simulator:
    """The discrete-event simulation kernel.

    Attributes
    ----------
    now:
        Current virtual time (seconds, by convention of this project).
    stats:
        :class:`SimStats` counter bundle (events by kind, heap pushes,
        immediate resumes, fast-path elisions).
    telemetry:
        Optional :class:`repro.obs.Telemetry` attached by
        ``Telemetry.for_simulator``/``bind_simulator``.  ``None`` by default;
        the kernel itself never reads it (spans observe ``now`` passively, so
        the hot loops stay telemetry-free), but subsystems that only hold a
        simulator handle (the storage hierarchy) find their tracer here.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[tuple[float, int, Event]] = []
        self._counter = 0
        #: tie-break sequence of the calendar entry being processed (with
        #: ``now``, its key); entries keyed below it have all been processed
        self._entry_seq = 0
        self._active_process: Optional[SimProcess] = None
        self._event_count = 0
        #: callbacks to run at the current time, before the next calendar event
        self._immediate: deque = deque()
        self.stats = SimStats()
        #: user-attachable bag of named objects (cluster, runtime, ...)
        self.context: Dict[str, Any] = {}
        #: optional telemetry handle (spans + metrics); off by default
        self.telemetry: Optional[Any] = None
        #: optional passive time-series sampler (obs.sampler.StateSampler);
        #: None keeps the hot loop at a single local None-check per event
        self._sampler: Optional[Any] = None

    # -- event factory helpers -----------------------------------------
    def event(self, name: EventName = None) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: EventName = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value=value, name=name)

    def fire_at(self, time: float, value: Any = None, name: EventName = None) -> Event:
        """An already-triggered event firing at *absolute* time ``time``.

        Unlike :meth:`timeout` (which schedules ``now + delay``), this places
        the event at an exact absolute timestamp.  The closed-form network
        fast path uses it to reproduce, bit-for-bit, the completion times the
        multi-yield coroutine model would compute through its chain of
        relative timeouts (floating-point addition is not associative, so
        ``now + (a + b)`` and ``(now + a) + b`` can differ in the last ulp).
        """
        if time < self.now:
            raise ValueError(f"cannot fire at {time} before the current time {self.now}")
        ev = Event(self, name=name)
        ev._triggered = True
        ev._value = value
        counter = self._counter + 1
        self._counter = counter
        _heappush(self._heap, (time, counter, ev))
        self.stats.heap_pushes += 1
        return ev

    def refire_at(self, event: Event, time: float) -> None:
        """Fire a :meth:`fire_at` event at the earlier absolute ``time`` instead.

        The calendar has no removal: the event's original entry stays and,
        when it pops, finds the event already processed and runs nothing —
        it still counts as one processed event.  Used when a cancelled
        network leg pulls a later leg's end forward.
        """
        self.push_reserved(time, self.reserve_seq(), event)

    def reserve_seq(self) -> int:
        """Take the calendar tie-break sequence number a push would take now.

        Together with :meth:`push_reserved` this splits :meth:`fire_at` in
        two: a fast path can fix an event's calendar key where the full
        model would have scheduled it, and push the event later — or never,
        when nobody turns out to wait for it (the entry is then *virtual*:
        :meth:`passed` still says when it would have been processed).
        """
        counter = self._counter + 1
        self._counter = counter
        return counter

    def push_reserved(self, time: float, seq: int, event: Event) -> None:
        """Put ``event`` on the calendar under the reserved key ``(time, seq)``."""
        if time < self.now:
            raise ValueError(f"cannot fire at {time} before the current time {self.now}")
        _heappush(self._heap, (time, seq, event))
        self.stats.heap_pushes += 1

    def passed(self, time: float, seq: int) -> bool:
        """Whether a calendar entry keyed ``(time, seq)`` is already processed.

        True for keys below the entry being processed: the calendar pops in
        key order, so such an entry would have popped before it.
        """
        now = self.now
        return time < now or (time == now and seq < self._entry_seq)

    def process(self, generator: ProcessGenerator, name: EventName = None) -> SimProcess:
        """Register ``generator`` as a simulation process starting now."""
        return SimProcess(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing once all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing once any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Place ``event`` on the calendar ``delay`` after the current time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        counter = self._counter + 1
        self._counter = counter
        _heappush(self._heap, (self.now + delay, counter, event))
        self.stats.heap_pushes += 1

    def call_soon(self, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``fn(arg)`` at the current time, before the next calendar event.

        Immediate callbacks run in FIFO order and may enqueue further
        immediate callbacks; no calendar event is allocated.
        """
        self.stats.immediate_calls += 1
        self._immediate.append((fn, arg))

    def _drain_immediate(self) -> None:
        imm = self._immediate
        while imm:
            fn, arg = imm.popleft()
            fn(arg)

    def peek(self) -> float:
        """Time of the next pending work item (``inf`` if the calendar is empty).

        Pending immediate callbacks count as work at the current time.
        """
        if self._immediate:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Run pending immediate callbacks, then process exactly one event."""
        if self._immediate:
            self._drain_immediate()
        if not self._heap:
            raise SimulationError("step() on an empty calendar")
        time, seq, event = heapq.heappop(self._heap)
        if time < self.now - 1e-12:  # pragma: no cover - defensive
            raise SimulationError("event scheduled in the past")
        self.now = time
        self._entry_seq = seq
        self._event_count += 1
        callbacks = event.callbacks
        event._processed = True
        event.callbacks = None
        if callbacks:
            for cb in callbacks:
                cb(event)
        if not event._ok and not event.defused:
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise SimulationError(f"unhandled failed event: {event!r}")

    def run(self, until: Optional[float] = None) -> float:
        """Run until no work remains or ``until`` is reached.

        Returns the final simulation time.
        """
        if until is not None and until < self.now:
            raise ValueError("'until' must not be before the current time")
        while True:
            if self._immediate:
                self._drain_immediate()
            if not self._heap:
                break
            if until is not None and self._heap[0][0] > until:
                self.now = until
                return self.now
            self.step()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> bool:
        """Run until ``event`` has been processed; the kernel's hot loop.

        Returns True when the event was processed, False when the next
        calendar entry lies beyond ``limit`` (simulated time then stops just
        before it, exactly like the step-by-step loop it replaces).  Raises
        :class:`SimulationError` on deadlock (no work left).  The loop body
        is inlined with locally bound state — this is what the MPI runtime
        drives whole applications through, so it avoids per-event method
        dispatch entirely.

        When a telemetry sampler is attached (``self._sampler``), the loop
        hands it the popped timestamp whenever a bin edge is crossed —
        *before* callbacks run, so the snapshot it reads is the state that
        held for the whole interval since the previous event.  The sampler
        never schedules events, so sampled runs stay bit-identical.
        """
        heap = self._heap
        imm = self._immediate
        pop = _heappop
        popleft = imm.popleft
        # the sampler's next bin edge is cached in a local so the unsampled
        # (and between-edges) cost is one float comparison per event
        sampler = self._sampler
        sample_edge = _INF if sampler is None else sampler.next_edge
        # The per-event counter is accumulated locally and written back in
        # the finally block: one attribute store per run instead of one per
        # event (exceptions included, so `processed_events` stays exact).
        count = 0
        try:
            while not event._processed:
                while imm:
                    fn, arg = popleft()
                    fn(arg)
                if not heap:
                    if event._processed:
                        break
                    raise SimulationError(
                        f"deadlock: event {event!r} never fired and no events remain"
                    )
                if limit is not None and heap[0][0] > limit:
                    return False
                time, seq, ev = pop(heap)
                self.now = time
                self._entry_seq = seq
                if time >= sample_edge:
                    sampler.observe(time)
                    sample_edge = sampler.next_edge
                count += 1
                callbacks = ev.callbacks
                ev._processed = True
                ev.callbacks = None
                if callbacks:
                    for cb in callbacks:
                        cb(ev)
                if not ev._ok and not ev.defused:
                    exc = ev._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise SimulationError(f"unhandled failed event: {ev!r}")
        finally:
            self._event_count += count
        return True

    def run_until_complete(self, process: SimProcess, limit: Optional[float] = None) -> Any:
        """Run until ``process`` finishes; return its value.

        Raises :class:`SimulationError` if the calendar drains (deadlock) or
        the time ``limit`` is exceeded before the process completes.
        """
        while not process._triggered:
            if self._immediate:
                self._drain_immediate()
                continue
            if not self._heap:
                raise SimulationError(
                    f"deadlock: process {process.name!r} never completed and no events remain"
                )
            if limit is not None and self._heap[0][0] > limit:
                raise SimulationError(f"time limit {limit} exceeded waiting for {process.name!r}")
            self.step()
        if not process.ok:
            exc = process.value
            if isinstance(exc, BaseException):
                raise exc
            raise SimulationError(str(exc))
        return process.value

    # -- introspection ---------------------------------------------------
    @property
    def processed_events(self) -> int:
        """Total number of calendar events processed so far."""
        return self._event_count

    @property
    def active_process(self) -> Optional[SimProcess]:
        """The process currently being stepped (None outside callbacks)."""
        return self._active_process

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={len(self._heap)}>"

"""Core discrete-event simulation loop.

Design notes
------------
* Events are totally ordered by ``(time, seq)``, which gives deterministic
  FIFO ordering for simultaneous events — essential for reproducibility of
  the experiment protocol (17 seeded repetitions, trim, average).  One
  binary heap realizes that order; DESIGN.md §9 records why no second
  scheduler is kept beside it.
* Events are *cancellable*: :meth:`Simulator.schedule` returns an
  :class:`EventHandle`; cancelled handles stay in the heap and are skipped
  on pop (the standard "lazy deletion" trick).  Re-scheduling a container's
  next-completion event on every allocation change relies on this being
  cheap.
* Handlers are plain callables ``fn(*args)``.  Coroutine-style processes are
  intentionally avoided in the hot path (per the profiling-first HPC guide:
  the event loop is the bottleneck, so it stays minimal); the convenience
  wrapper :class:`repro.sim.process.PeriodicProcess` covers the common
  "controller decision cycle" pattern.
* Handles are *recycled*: after an event fires (or a lazily-cancelled entry
  is dropped) the handle goes back on a free list and the next
  :meth:`Simulator.schedule` reuses it — but **only** when
  ``sys.getrefcount`` proves the run loop holds the last reference.  A
  handle someone kept (say, for a later ``cancel()``) is never recycled,
  which makes stale-handle corruption impossible by construction rather
  than by convention.
* The heap holds ``(time, seq, handle)`` tuples, so ``heapq`` orders
  entries with C-level float/int comparisons and never calls back into
  Python; ``seq`` is unique, so a comparison never reaches the handle.
  The refcount proof is unaffected: every pop discards its tuple before
  the ``getrefcount == 2`` check, so the check still sees only the
  loop's local and the call's argument.
"""

from __future__ import annotations

import math
import sys
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["EventHandle", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid use of the simulator (e.g. scheduling in the past)."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    Instances are created by :meth:`Simulator.schedule`; user code should
    only ever call :meth:`cancel` and read :attr:`time`.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "owner")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        #: The owning :class:`Simulator`, so cancellation can keep its
        #: lazily-cancelled-entry count (heap compaction trigger) honest.
        self.owner: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Cancel the event.  Idempotent; cancelling a fired event is a no-op."""
        owner = self.owner
        live = not self.cancelled and self.fn is not None
        self.cancelled = True
        # Drop references so a cancelled handle retained by user code does not
        # keep a whole object graph alive until the heap drains.
        self.fn = None
        self.args = ()
        self.owner = None
        # Notify last: a compaction triggered here must already see this
        # handle as dead, or it keeps the entry and then zeroes the count.
        if live and owner is not None:
            owner._note_cancel()

    @property
    def active(self) -> bool:
        """True while the event is scheduled and not yet fired or cancelled."""
        return not self.cancelled and self.fn is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        return f"<EventHandle t={self.time:.9f} seq={self.seq} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial simulated clock value (seconds).  Defaults to ``0.0``.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> h = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    __slots__ = (
        "_now",
        "_heap",
        "_seq",
        "_running",
        "_fired_count",
        "_cancelled_pending",
        "_free",
        "_handles_recycled",
        "trace_hook",
    )

    #: Compact the heap once this many lazily-cancelled entries pile up
    #: *and* they outnumber the live ones (see :meth:`_note_cancel`).
    _COMPACT_MIN = 512

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        #: ``(time, seq, handle)`` entries; see the module notes.
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._running = False
        self._fired_count = 0
        self._cancelled_pending = 0
        # Handle free list (``None`` = recycling off).  A fired/cancelled
        # handle is only appended when ``sys.getrefcount`` proves the
        # loop holds the sole remaining reference, so a handle retained
        # by user code (for a later ``cancel()``) is never reused under
        # it.  That proof is CPython-specific; other interpreters simply
        # allocate fresh handles.
        self._free: Optional[list[EventHandle]] = (
            [] if sys.implementation.name == "cpython" else None
        )
        self._handles_recycled = 0
        #: optional callable ``(time, fn, args)`` invoked before each event;
        #: used by tests and the debugging tracer, ``None`` in production runs.
        self.trace_hook: Optional[Callable[[float, Callable, tuple], None]] = None

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for engine benchmarks)."""
        return self._fired_count

    @property
    def events_pending(self) -> int:
        """Number of pending entries, *including* lazily-cancelled ones."""
        return len(self._heap)

    @property
    def handles_recycled(self) -> int:
        """Schedules served from the handle free list (allocation bench)."""
        return self._handles_recycled

    @property
    def handles_constructed(self) -> int:
        """Fresh :class:`EventHandle` allocations so far."""
        return self._seq - self._handles_recycled

    @property
    def live_events_pending(self) -> int:
        """Number of *live* (not lazily-cancelled) pending events.

        Exact: ``_cancelled_pending`` counts every cancelled entry still
        sitting in the heap.  The validation layer uses this to
        decide whether a run has fully drained (no in-flight work
        remains).
        """
        return self.events_pending - self._cancelled_pending

    def next_event_time(self) -> float:
        """Time of the earliest *live* pending event, or ``math.inf``.

        A caller that drives the loop itself with :meth:`step` peeks
        here to stop at an ``until`` horizon the way :meth:`run` does.
        Lazily-cancelled heads are dropped here exactly as the run loop
        would drop them — with the same bookkeeping and handle-recycling
        — so peeking never perturbs the counters a later run would have
        produced.
        """
        free = self._free
        getrefcount = sys.getrefcount
        heap = self._heap
        while heap:
            time, _, head = heap[0]
            if head.fn is not None:
                return time
            heappop(heap)
            if head.cancelled:
                self._cancelled_pending -= 1
                if free is not None and getrefcount(head) == 2:
                    free.append(head)
        return math.inf

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be finite and non-negative.  Returns a cancellable
        :class:`EventHandle`.

        Nearly every event comes through here, so the push is written out
        rather than delegated to :meth:`schedule_at`.
        """
        time = self._now + delay
        if delay < 0.0 or not math.isfinite(time):
            raise SimulationError(f"invalid event delay {delay!r}")
        seq = self._seq
        free = self._free
        if free:
            handle = free.pop()
            handle.time = time
            handle.seq = seq
            handle.fn = fn
            handle.args = args
            handle.cancelled = False
            handle.owner = self
            self._handles_recycled += 1
        else:
            handle = EventHandle(time, seq, fn, args)
            handle.owner = self
        self._seq = seq + 1
        heappush(self._heap, (time, seq, handle))
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now or not math.isfinite(time):
            raise SimulationError(
                f"cannot schedule at t={time!r} (now={self._now!r})"
            )
        seq = self._seq
        free = self._free
        if free:
            handle = free.pop()
            handle.time = time
            handle.seq = seq
            handle.fn = fn
            handle.args = args
            handle.cancelled = False
            handle.owner = self
            self._handles_recycled += 1
        else:
            handle = EventHandle(time, seq, fn, args)
            handle.owner = self
        self._seq = seq + 1
        heappush(self._heap, (time, seq, handle))
        return handle

    def _note_cancel(self) -> None:
        """Bookkeeping hook called by :meth:`EventHandle.cancel`.

        Once lazily-cancelled entries both exceed a fixed floor and make
        up over half the pending set, rebuild the heap without them: the
        container rescheduling pattern can otherwise leave it dominated
        by dead entries.
        """
        self._cancelled_pending += 1
        if self._cancelled_pending < self._COMPACT_MIN:
            return
        heap = self._heap
        if self._cancelled_pending * 2 > len(heap):
            # In-place so loops holding a reference to the list stay valid.
            heap[:] = [e for e in heap if e[2].fn is not None]
            heapify(heap)
            self._cancelled_pending = 0

    # ---------------------------------------------------------------- running
    def step(self) -> bool:
        """Execute the next pending event.  Returns ``False`` if none remain."""
        free = self._free
        getrefcount = sys.getrefcount
        heap = self._heap
        while heap:
            time, _, handle = heappop(heap)
            if handle.fn is None:  # fired is impossible here; this means cancelled
                if handle.cancelled:
                    self._cancelled_pending -= 1
                    if free is not None and getrefcount(handle) == 2:
                        free.append(handle)
                continue
            self._now = time
            fn, args = handle.fn, handle.args
            handle.fn = None  # mark fired
            # Cleared unconditionally, not only on the recycle path: a
            # fired handle someone retained must not pin the callback's
            # argument graph until GC.
            handle.args = ()
            handle.owner = None
            if self.trace_hook is not None:
                self.trace_hook(self._now, fn, args)
            self._fired_count += 1
            fn(*args)
            if free is not None and getrefcount(handle) == 2:
                free.append(handle)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given the clock is advanced to exactly ``until`` on
        return (even if the last event fired earlier), so back-to-back
        ``run(until=...)`` calls behave like a continuous timeline.

        This is the hot loop of every simulation: it is inlined (rather
        than delegating to :meth:`step`) so a fired event costs one heap
        pop plus the handler call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        budget = math.inf if max_events is None else max_events
        heap = self._heap
        free = self._free
        getrefcount = sys.getrefcount
        try:
            while heap and budget > 0:
                time, _, head = heap[0]
                if head.fn is None:  # lazily-cancelled entry: drop and rescan
                    heappop(heap)
                    if head.cancelled:
                        self._cancelled_pending -= 1
                        # ``cancel()`` already cleared fn/args/owner; a
                        # refcount of 2 (the local + getrefcount's arg)
                        # proves the canceller dropped its reference too.
                        if free is not None and getrefcount(head) == 2:
                            free.append(head)
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                self._now = time
                fn, args = head.fn, head.args
                head.fn = None  # mark fired
                head.args = ()  # unconditional: see step()
                head.owner = None
                if self.trace_hook is not None:
                    self.trace_hook(self._now, fn, args)
                self._fired_count += 1
                fn(*args)
                budget -= 1
                if free is not None and getrefcount(head) == 2:
                    free.append(head)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until

    def drain(self) -> None:
        """Discard all pending events without running them.

        Every dropped handle is marked dead (``fn``/``args``/``owner``
        cleared, exactly as after firing), so a handle someone kept reads
        ``active == False`` and a later ``cancel()`` on it is a no-op
        instead of counting an entry that is no longer in the heap.
        """
        for _, _, handle in self._heap:
            handle.fn = None
            handle.args = ()
            handle.owner = None
        self._heap.clear()
        self._cancelled_pending = 0

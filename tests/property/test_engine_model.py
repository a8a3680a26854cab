"""The heap :class:`~repro.sim.engine.Simulator` against a reference model.

The model keeps only the *live* entries, sorted by ``(time, seq)``, and
pops the smallest.  That is the engine's whole contract; everything the
heap adds (lazy cancellation, compaction, handle recycling) is
bookkeeping that must stay invisible.  Random programs of schedule,
cancel, respawn-from-callback, partial ``run`` / ``run(until=...)``,
``step``, ``drain`` and ``peek`` (``next_event_time``) run on both, and
after every op the fire log, the clock and ``live_events_pending`` must
agree exactly.  Since ``events_pending`` counts live plus
lazily-cancelled entries, an exact live count also pins the engine's
cancelled-entry ledger.  A peek must return the earliest live time (or
``math.inf``) and be read-only: the same program with its peeks removed
fires the same events and leaves the same per-op trace.

The same programs also run on a simulator that compacts on every
cancel that leaves cancelled entries in the majority, so the
compaction path and its ledger reset are checked on every draw rather
than only after hundreds of cancels.
"""

import bisect
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


class _ModelHandle:
    def __init__(self, model, entry):
        self._model, self._entry = model, entry

    def cancel(self):
        live = self._model.live
        i = bisect.bisect_left(live, self._entry)
        if i < len(live) and live[i] is self._entry:
            del live[i]


class _ModelSim:
    """Reference semantics: live ``(time, seq, fn)`` entries, kept sorted.

    ``seq`` is unique, so tuple comparison never reaches ``fn``.
    """

    def __init__(self):
        self.now = 0.0
        self.live = []
        self._seq = 0

    @property
    def live_events_pending(self):
        return len(self.live)

    def schedule(self, delay, fn):
        entry = (self.now + delay, self._seq, fn)
        self._seq += 1
        bisect.insort(self.live, entry)
        return _ModelHandle(self, entry)

    def run(self, until=None, max_events=None):
        budget = math.inf if max_events is None else max_events
        while self.live and budget > 0 and (until is None or self.live[0][0] <= until):
            self.step()
            budget -= 1
        if until is not None and self.now < until:
            self.now = until

    def step(self):
        if not self.live:
            return False
        self.now, _, fn = self.live.pop(0)
        fn()
        return True

    def drain(self):
        self.live.clear()

    def next_event_time(self):
        return self.live[0][0] if self.live else math.inf


# Quantized delays force timestamp ties (FIFO pops by seq); the
# continuous range exercises arbitrary orderings.
_delays = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _delays, st.integers(0, 2)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000), st.just(0)),
        st.tuples(st.just("run"), st.integers(1, 8), st.just(0)),
        st.tuples(st.just("until"), _delays, st.just(0)),
        st.tuples(st.just("step"), st.just(0), st.just(0)),
        st.tuples(st.just("drain"), st.just(0), st.just(0)),
        st.tuples(st.just("peek"), st.just(0), st.just(0)),
    ),
    max_size=60,
)


def _execute(ops, sim):
    """Run one op program; return the fire log, the per-op trace and
    the peeked times.  A peek adds no trace row, so a program and its
    peek-free copy yield comparable traces."""
    log = []
    handles = []
    trace = []
    peeks = []

    def make_cb(tag, respawn, delay):
        def cb():
            log.append((sim.now, tag))
            if respawn:
                child = (tag * 31 + 7) % 9973
                handles.append(
                    sim.schedule(delay * 0.5 + 1e-3, make_cb(child, respawn - 1, delay))
                )

        return cb

    for kind, a, b in ops:
        if kind == "schedule":
            handles.append(sim.schedule(a, make_cb(len(handles), b, a)))
        elif kind == "cancel":
            if handles:
                handles[a % len(handles)].cancel()
        elif kind == "run":
            sim.run(max_events=a)
        elif kind == "until":
            sim.run(until=sim.now + a)
        elif kind == "step":
            sim.step()
        elif kind == "peek":
            peeks.append(sim.next_event_time())
            continue
        else:
            sim.drain()
        trace.append((sim.now, sim.live_events_pending))
    sim.run()
    trace.append((sim.now, sim.live_events_pending))
    return log, trace, peeks


class _EagerCompactSimulator(Simulator):
    """Compacts as soon as cancelled entries outnumber live ones."""

    _COMPACT_MIN = 1


def _check_against_model(ops, make_sim):
    sim = make_sim()
    got_log, got_trace, got_peeks = _execute(ops, sim)
    want_log, want_trace, want_peeks = _execute(ops, _ModelSim())
    assert got_log == want_log
    assert got_trace == want_trace
    assert got_peeks == want_peeks
    assert sim.events_pending == 0
    unpeeked_log, unpeeked_trace, _ = _execute(
        [op for op in ops if op[0] != "peek"], make_sim()
    )
    assert unpeeked_log == got_log
    assert unpeeked_trace == got_trace


@given(_ops)
@settings(max_examples=200, deadline=None)
def test_heap_simulator_matches_reference_model(ops):
    _check_against_model(ops, Simulator)


@given(_ops)
@settings(max_examples=200, deadline=None)
def test_eager_compaction_matches_reference_model(ops):
    _check_against_model(ops, _EagerCompactSimulator)

"""The fused-pass :class:`~repro.cluster.container.Container` against the
three-pass model it replaced.

The reference below is the earlier update scheme, kept verbatim for this
test only: ``_advance`` subtracts the burned cycles from every job, then
``_reschedule`` collects the finished jobs in one scan and picks the
winner in another.  The production container charges the same cycles,
detects completions and picks the winner in a single pass, and adds a
new job after that pass.  Every job sees the same float subtractions in
the same order, so the two must agree *exactly*: random programs of
``submit`` (zero and sub-epsilon work included), ``set_cores``,
``set_frequency``, ``set_speed_factor``, ``crash``, ``sync`` and partial
``run(until=...)`` on two containers sharing one simulator must yield the
same completion log ``(time, container, jid)``, the same remaining work
per job, pending winner, ``completed_jobs`` and accounting integrals
after every op, and the same engine scheduled / fired / cancelled counts.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.container import _EPS_CYCLES, Container, _Job
from repro.cluster.frequency import DvfsModel
from repro.sim.engine import Simulator


class _ThreePassContainer(Container):
    """The update scheme before the fused pass (reference only)."""

    def submit(self, work_cycles, done):
        if work_cycles < 0:
            raise ValueError(f"negative work: {work_cycles!r}")
        self._advance()
        jid = next(self._jid)
        self._jobs[jid] = _Job(jid, max(work_cycles, 0.0), done)
        self._reschedule()
        return jid

    def _advance(self):
        now = self.sim.now
        dt = now - self._last_t
        self._last_t = now
        if dt == 0.0 or self.decommissioned:
            return
        n = len(self._jobs)
        self.alloc_core_seconds += self._cores * dt
        self.freq_seconds += self._freq * dt
        if n == 0:
            return
        busy = min(float(n), self._cores)
        self.busy_core_seconds += busy * dt
        self.busy_weighted_seconds += (
            busy * (self._freq / self.dvfs.f_max) ** 3 * dt
        )
        burned = self._freq * self._speed_factor * min(1.0, self._cores / n) * dt
        for job in self._jobs.values():
            job.remaining -= burned

    def _reschedule(self):
        jobs = self._jobs
        finished = [j for j in jobs.values() if j.remaining <= _EPS_CYCLES]
        if finished:
            for j in finished:
                del jobs[j.jid]
            self.completed_jobs += len(finished)
            for j in finished:
                self.sim.schedule(0.0, j.done)
        pending = self._next
        if not jobs:
            if pending is not None:
                pending.cancel()
                self._next = None
            return
        winner = None
        min_rem = math.inf
        for j in jobs.values():
            if j.remaining < min_rem:
                min_rem = j.remaining
                winner = j
        rate = self.rate_per_job
        if (
            pending is not None
            and pending.active
            and self._next_jid == winner.jid
            and self._next_rate == rate
        ):
            return
        if pending is not None:
            pending.cancel()
        self._next = self.sim.schedule(min_rem / rate, self._on_tick)
        self._next_jid = winner.jid
        self._next_rate = rate


# Quantized values force ties: equal remaining work (winner tie-breaks by
# jid), simultaneous completions, and updates at the same instant (zero
# burned cycles).  Sub-epsilon work finishes on submit.
_work = st.one_of(
    st.sampled_from([0.0, 1e-4, 4e5, 8e5, 1.6e6]),
    st.floats(0.0, 4e6, allow_nan=False, allow_infinity=False),
)
_cores = st.one_of(
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0]),
    st.floats(0.25, 8.0, allow_nan=False, allow_infinity=False),
)
_freq = st.floats(1.0e9, 3.0e9, allow_nan=False, allow_infinity=False)
_speed = st.one_of(
    st.sampled_from([0.5, 1.0]),
    st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False),
)
_dt = st.one_of(
    st.sampled_from([0.0, 2.5e-4, 5e-4, 1e-3]),
    st.floats(0.0, 4e-3, allow_nan=False, allow_infinity=False),
)
_target = st.integers(0, 1)

_submit = st.tuples(st.just("submit"), _target, _work, st.integers(0, 2))
_op = st.one_of(
    _submit,
    _submit,  # listed twice: programs need load to share cores
    st.tuples(st.just("cores"), _target, _cores, st.just(0)),
    st.tuples(st.just("freq"), _target, _freq, st.just(0)),
    st.tuples(st.just("speed"), _target, _speed, st.just(0)),
    st.tuples(st.just("crash"), _target, st.just(0.0), st.just(0)),
    st.tuples(st.just("sync"), _target, st.just(0.0), st.just(0)),
    st.tuples(st.just("run"), st.just(0), _dt, st.just(0)),
)
# Long programs: a rounding slip only shows once more jobs than cores
# share a container across a time step.
_ops = st.lists(_op, min_size=20, max_size=80)


def _execute(ops, cls):
    """Run one op program on two ``cls`` containers sharing a simulator;
    return the completion log, the per-op trace and the engine counts."""
    sim = Simulator()
    dvfs = DvfsModel()
    containers = [
        cls(sim, "a", dvfs, cores=2.0, frequency=1.6e9),
        cls(sim, "b", dvfs, cores=1.0, frequency=2.4e9),
    ]
    log = []
    trace = []

    def submit(k, work, respawn):
        c = containers[k]
        jid = []

        def done():
            log.append((sim.now, k, jid[0]))
            if respawn:
                # Continuation work re-enters from a zero-delay event, as
                # an invocation's next phase does.
                submit(1 - k, work * 0.5, respawn - 1)

        jid.append(c.submit(work, done))

    for kind, k, x, respawn in ops:
        c = containers[k]
        if kind == "submit":
            submit(k, x, respawn)
        elif kind == "cores":
            c.set_cores(x)
        elif kind == "freq":
            c.set_frequency(x)
        elif kind == "speed":
            c.set_speed_factor(x)
        elif kind == "crash":
            c.crash()
        elif kind == "sync":
            c.sync()
        else:
            sim.run(until=sim.now + x)
        trace.append((sim.now,) + tuple(_state(c) for c in containers))
    sim.run()
    for c in containers:
        c.sync()
    trace.append((sim.now,) + tuple(_state(c) for c in containers))
    scheduled = sim.handles_constructed + sim.handles_recycled
    fired = sim.events_fired
    counts = (scheduled, fired, scheduled - fired - sim.live_events_pending)
    return log, trace, counts


def _state(c):
    # Every public op ends in a full update, so each job's remaining work
    # is current in both schemes; comparing it catches a rounding change
    # too small to move a completion timestamp.  The pending winner pins
    # the tie-break among equal remaining work.
    return (
        [(j.jid, j.remaining) for j in c._jobs.values()],
        c._next_jid,
        c.completed_jobs,
        c.alloc_core_seconds,
        c.busy_core_seconds,
        c.busy_weighted_seconds,
        c.freq_seconds,
    )


@given(_ops)
@settings(max_examples=200, deadline=None)
def test_fused_pass_matches_three_pass_model(ops):
    got_log, got_trace, got_counts = _execute(ops, Container)
    want_log, want_trace, want_counts = _execute(ops, _ThreePassContainer)
    assert got_log == want_log
    assert got_trace == want_trace
    assert got_counts == want_counts

"""Processor-sharing container execution model.

A container (one service instance in its own cgroup, as in the paper's
Docker deployment) owns ``c`` allocated cores running at frequency ``f``.
Its active *compute phases* (request handler segments that are actually
on-CPU, not blocked on a downstream RPC or a connection pool) share the
cores in the classic egalitarian processor-sharing discipline: with ``n``
active phases each progresses at

    ``rate = f · min(1, c / n)``   [cycles / second]

This single rule produces all three phenomena the paper's design keys on:

* **load → latency contention** — more concurrent requests slow each one
  down, so a rate surge raises ``execMetric`` (Fig. 5a/5c);
* **diminishing-returns sensitivity curves** — once ``c ≥ n`` extra cores
  change nothing, giving the flat tails of Fig. 6 that sensitivity-based
  revocation exploits;
* **linear frequency scaling** — FirstResponder's fast-path boost shrinks
  service times proportionally.

The implementation is event-driven: job state is lazily advanced on every
event that can change the sharing rate (arrival, completion, allocation
or frequency change), and the single pending next-completion event is
cancelled and re-issued — unless the winning job and shared rate are
both unchanged, in which case the pending event is provably still exact
and is kept (the common case for arrivals under ``c ≥ n`` and for pure
accounting syncs).  All jobs progress at the same rate, so the next
finisher is simply the job with minimal remaining work.  Each update is
one fused O(n) pass over the jobs in jid order: it charges every job the
cycles burned since the last update, collects the finished ones and
picks the winner, with n rarely above a few dozen.  The per-job
subtraction is kept on purpose (rather than a virtual clock) so every
job sees the same sequence of float operations and completion times
stay bit-identical to the pinned goldens.

Energy bookkeeping (allocated core-seconds, busy core-seconds, and the
f³-weighted busy integral consumed by :class:`repro.cluster.energy.EnergyModel`)
is folded into the same lazy-advance step so it costs nothing extra.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.sim.engine import EventHandle, Simulator
from repro.cluster.frequency import DvfsModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["Container"]

#: Completion slop, in cycles.  Sub-nanosecond at GHz clock rates.
_EPS_CYCLES = 1e-3


class _Job:
    __slots__ = ("jid", "remaining", "done")

    def __init__(self, jid: int, remaining: float, done: Callable[[], None]):
        self.jid = jid
        self.remaining = remaining
        self.done = done


class Container:
    """One service instance with processor-shared cores and DVFS.

    Parameters
    ----------
    sim:
        The simulator.
    name:
        Container name, unique within the cluster (e.g.
        ``"user-timeline-service"``).
    dvfs:
        Shared DVFS model of the host node.
    cores:
        Initial core allocation (may be fractional: CaladanAlgo allocates
        hyperthread, i.e. 0.5-core, units).
    frequency:
        Initial frequency in Hz; clamped to the DVFS range.
    """

    _ids = itertools.count()

    def __init__(
        self,
        sim: Simulator,
        name: str,
        dvfs: DvfsModel,
        *,
        cores: float = 1.0,
        frequency: Optional[float] = None,
    ):
        if cores <= 0:
            raise ValueError(f"container {name!r}: cores must be positive")
        self.sim = sim
        self.name = name
        self.dvfs = dvfs
        self._cores = float(cores)
        self._freq = dvfs.clamp(dvfs.f_min if frequency is None else frequency)
        #: Execution-efficiency multiplier in (0, 1]: models interference
        #: from co-located work (cache/membw contention, noisy
        #: neighbours) — the "other disruptions" surge type.  1.0 = clean.
        self._speed_factor = 1.0
        self.node: Optional["Node"] = None  # set by Node.add_container

        self._jobs: Dict[int, _Job] = {}
        self._jid = itertools.count()
        self._last_t = sim.now
        #: Cycles every job has burned since ``_last_t`` moved, charged by
        #: the next :meth:`_reschedule` pass (see :meth:`_advance`).
        self._burned = 0.0
        self._next: Optional[EventHandle] = None
        #: A reaped replica's container stops accruing alloc/freq
        #: integrals (its cores are returned to the node) until revived.
        self.decommissioned = False
        # Winning job + rate behind the pending next-completion event, so
        # rescheduling can be skipped when neither changed (see
        # _reschedule): all jobs burn at the same rate, so an unchanged
        # (winner, rate) pair means the already-scheduled fire time is
        # still exact.
        self._next_jid = -1
        self._next_rate = 0.0

        # ---- cumulative integrals (energy / utilization accounting) ----
        self.alloc_core_seconds = 0.0
        self.busy_core_seconds = 0.0
        #: busy core-seconds weighted by (f/f_max)^3 — dynamic-energy integral.
        self.busy_weighted_seconds = 0.0
        #: ∫ frequency dt — lets controllers compute the mean frequency
        #: over a window (shFreq synchronization in the paper).
        self.freq_seconds = 0.0
        self.completed_jobs = 0
        #: Fault-injected crashes survived (see :meth:`crash`).
        self.crashes = 0

    # ----------------------------------------------------------- properties
    @property
    def cores(self) -> float:
        """Currently allocated cores (fractional allowed)."""
        return self._cores

    @property
    def frequency(self) -> float:
        """Current frequency in Hz."""
        return self._freq

    @property
    def active_jobs(self) -> int:
        """Number of on-CPU compute phases right now (runnable threads)."""
        return len(self._jobs)

    @property
    def speed_factor(self) -> float:
        """Current interference multiplier (1.0 = no interference)."""
        return self._speed_factor

    @property
    def rate_per_job(self) -> float:
        """Current per-phase progress rate in cycles/second."""
        n = len(self._jobs)
        if n == 0:
            return self._freq * self._speed_factor
        return self._freq * self._speed_factor * min(1.0, self._cores / n)

    # ------------------------------------------------------------- control
    def set_cores(self, cores: float) -> None:
        """Change the core allocation (controller-facing)."""
        if cores <= 0:
            raise ValueError(f"container {self.name!r}: cores must be positive")
        if cores == self._cores:
            return
        self._advance()
        self._cores = float(cores)
        self._reschedule()

    def set_frequency(self, frequency: float) -> None:
        """Change the DVFS level (controller- or FirstResponder-facing)."""
        f = self.dvfs.clamp(frequency)
        if f == self._freq:
            return
        self._advance()
        self._freq = f
        self._reschedule()

    def set_speed_factor(self, factor: float) -> None:
        """Apply or lift execution interference (environment-facing:
        injected by experiments, never by controllers — controllers only
        *observe* its latency effect through the runtime metrics)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"speed factor must be in (0, 1], got {factor!r}")
        if factor == self._speed_factor:
            return
        self._advance()
        self._speed_factor = factor
        self._reschedule()

    # ---------------------------------------------------------------- faults
    def crash(self) -> int:
        """Kill every in-progress compute phase (fault injection).

        Accounting integrals are brought up to now first (the cores were
        genuinely busy until the crash), then all jobs are discarded
        *without* firing their ``done`` callbacks and the pending
        next-completion event is cancelled.  Returns the number of jobs
        killed.  The container object itself survives — a restart is
        just new ``submit()`` traffic.
        """
        self._advance()
        killed = len(self._jobs)
        self._jobs.clear()
        self._burned = 0.0
        if self._next is not None:
            self._next.cancel()
            self._next = None
        self._next_jid = -1
        self._next_rate = 0.0
        self.crashes += 1
        return killed

    # ---------------------------------------------------------- replica ops
    def decommission(self) -> None:
        """Stop the accounting clock: the replica was reaped.

        The container must be idle (scale-in drains first); its pending
        completion event, if any, is cancelled and alloc/freq integrals
        freeze until :meth:`recommission`.
        """
        if self._jobs:
            raise RuntimeError(f"decommission of busy container {self.name!r}")
        self._advance()
        if self._next is not None:
            self._next.cancel()
            self._next = None
        self._next_jid = -1
        self._next_rate = 0.0
        self.decommissioned = True

    def recommission(self) -> None:
        """Restart the accounting clock for a revived replica."""
        if not self.decommissioned:
            raise RuntimeError(f"container {self.name!r} is not decommissioned")
        self.decommissioned = False
        self._last_t = self.sim.now

    # -------------------------------------------------------------- compute
    def submit(self, work_cycles: float, done: Callable[[], None]) -> int:
        """Start a compute phase of ``work_cycles``; ``done()`` fires on finish.

        Zero-work phases complete via a scheduled zero-delay event (never
        synchronously) so callers can rely on uniform re-entrancy rules.
        """
        if work_cycles < 0:
            raise ValueError(f"negative work: {work_cycles!r}")
        self._advance()
        jid = next(self._jid)
        self._reschedule(_Job(jid, max(work_cycles, 0.0), done))
        return jid

    def sync(self) -> None:
        """Bring the accounting integrals up to the current time.

        Called by the cluster before reading energy/utilization totals.
        """
        self._advance()
        self._reschedule()

    # ------------------------------------------------------------ internals
    def _advance(self) -> None:
        """Integrate accounting from ``_last_t`` to now.

        Job progress is only computed here: the cycles each job burned
        are stored in ``_burned`` and charged by the :meth:`_reschedule`
        pass that always follows, so the jobs are walked once per update.
        """
        now = self.sim.now
        dt = now - self._last_t
        if dt < 0:  # pragma: no cover - engine guarantees monotonic time
            raise RuntimeError("time went backwards")
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
        self._burned = self._freq * self._speed_factor * min(1.0, self._cores / n) * dt

    def _reschedule(self, new: Optional[_Job] = None) -> None:
        """Charge burned cycles, fire due completions, and (re-)issue the
        next-completion event after any state change.

        One pass over the jobs in jid order subtracts ``_burned`` from
        each, collects those within ``_EPS_CYCLES`` of done, and picks the
        first job with the least remaining work among the rest.  A newly
        submitted job ``new`` owes nothing for the elapsed interval and has
        the largest jid, so it joins after the pass.

        Cheap path: when a pending event exists and neither the winning
        job nor the shared progress rate changed (e.g. a new arrival with
        more work than the current winner while ``c ≥ n`` keeps the rate
        at ``f``, or a pure accounting :meth:`sync`), the already-scheduled
        event is still exact — keep it instead of cancel + re-push, which
        otherwise dominates heap churn under load.
        """
        jobs = self._jobs
        burned = self._burned
        self._burned = 0.0
        finished = []
        winner = None
        min_rem = math.inf
        for j in jobs.values():
            rem = j.remaining - burned
            j.remaining = rem
            if rem <= _EPS_CYCLES:
                finished.append(j)
            elif rem < min_rem:
                min_rem = rem
                winner = j
        if new is not None:
            rem = new.remaining
            if rem <= _EPS_CYCLES:
                finished.append(new)
            else:
                jobs[new.jid] = new
                if rem < min_rem:
                    min_rem = rem
                    winner = new
        if finished:
            for j in finished:
                jobs.pop(j.jid, None)  # a finished ``new`` was never added
            self.completed_jobs += len(finished)
            # Callbacks may re-enter submit()/set_cores(); schedule the
            # continuation work as zero-delay events to keep a single,
            # predictable re-entrancy discipline.
            for j in finished:
                self.sim.schedule(0.0, j.done)
        pending = self._next
        if not jobs:
            if pending is not None:
                pending.cancel()
                self._next = None
            return
        rate = self.rate_per_job
        if rate <= 0:  # pragma: no cover - cores/freq are validated positive
            if pending is not None:
                pending.cancel()
                self._next = None
            return
        if (
            pending is not None
            and pending.active
            and self._next_jid == winner.jid
            and self._next_rate == rate
        ):
            return  # the pending event's fire time is unchanged
        if pending is not None:
            pending.cancel()
        self._next = self.sim.schedule(min_rem / rate, self._on_tick)
        self._next_jid = winner.jid
        self._next_rate = rate

    def _on_tick(self) -> None:
        self._next = None
        self._advance()
        self._reschedule()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Container {self.name!r} cores={self._cores} "
            f"f={self._freq / 1e9:.1f}GHz jobs={len(self._jobs)}>"
        )

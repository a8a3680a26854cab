"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.timeseries import StepSeries
from repro.metrics.violation import violation_duration, violation_volume
from repro.sim.engine import Simulator
from repro.workload.arrivals import RateSchedule, Spike

# ---------------------------------------------------------------------------
# Violation volume
# ---------------------------------------------------------------------------

latency_traces = st.lists(
    st.tuples(
        st.floats(0.0, 100.0, allow_nan=False),
        st.floats(0.0, 10.0, allow_nan=False),
    ),
    min_size=2,
    max_size=60,
).map(lambda pts: sorted(pts, key=lambda p: p[0]))


@given(latency_traces, st.floats(0.0, 12.0, exclude_min=False, allow_nan=False))
def test_vv_nonnegative_and_bounded(trace, qos):
    t = np.array([p[0] for p in trace])
    y = np.array([p[1] for p in trace])
    vv = violation_volume(t, y, qos)
    assert vv >= 0.0
    # Upper bound: max excess × total span.
    span = t[-1] - t[0]
    assert vv <= max(0.0, y.max() - qos) * span + 1e-9


@given(latency_traces, st.floats(0.01, 12.0, allow_nan=False))
def test_vv_monotone_in_qos(trace, qos):
    t = np.array([p[0] for p in trace])
    y = np.array([p[1] for p in trace])
    assert violation_volume(t, y, qos) >= violation_volume(t, y, qos * 1.5) - 1e-12


@given(latency_traces, st.floats(0.0, 12.0, allow_nan=False))
def test_vv_zero_iff_never_above(trace, qos):
    t = np.array([p[0] for p in trace])
    y = np.array([p[1] for p in trace])
    vv = violation_volume(t, y, qos)
    if (y <= qos).all():
        assert vv == 0.0


@given(latency_traces, st.floats(0.0, 12.0, allow_nan=False))
def test_violation_duration_bounded_by_span(trace, qos):
    t = np.array([p[0] for p in trace])
    y = np.array([p[1] for p in trace])
    d = violation_duration(t, y, qos)
    assert -1e-12 <= d <= (t[-1] - t[0]) + 1e-9


@given(latency_traces, st.floats(0.0, 12.0, allow_nan=False), st.floats(0.1, 5.0))
def test_vv_scale_invariance(trace, qos, k):
    """Scaling latencies and qos by k scales VV by k."""
    t = np.array([p[0] for p in trace])
    y = np.array([p[1] for p in trace])
    vv1 = violation_volume(t, y, qos)
    vv2 = violation_volume(t, y * k, qos * k)
    assert vv2 == pytest.approx(k * vv1, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Rate schedules
# ---------------------------------------------------------------------------


@st.composite
def schedules(draw):
    base = draw(st.floats(1.0, 1000.0))
    n = draw(st.integers(0, 4))
    spikes = []
    t = 0.0
    for _ in range(n):
        gap = draw(st.floats(0.1, 5.0))
        length = draw(st.floats(0.01, 3.0))
        rate = draw(st.floats(0.0, 5000.0))
        spikes.append(Spike(t + gap, t + gap + length, rate))
        t += gap + length
    return RateSchedule(base, spikes)


@given(schedules(), st.floats(0.0, 20.0), st.floats(0.0, 500.0))
@settings(max_examples=60)
def test_advance_inverts_cumulative_rate(sched, t0, units):
    """∫_{t0}^{advance(t0,u)} rate dt == u whenever the result is finite."""
    t1 = sched.advance(t0, units)
    if np.isinf(t1):
        return
    assert t1 >= t0
    if t1 > t0:
        integral = sched.mean_rate(t0, t1) * (t1 - t0)
        assert integral == pytest.approx(units, rel=1e-6, abs=1e-6)


@given(schedules(), st.floats(0.0, 20.0), st.floats(0.0, 100.0), st.floats(0.0, 100.0))
@settings(max_examples=60)
def test_advance_additive(sched, t0, u1, u2):
    """advance(t0, u1+u2) and advance(advance(t0, u1), u2) reach the same
    cumulative rate ∫_{t0} rate dt.

    The times themselves may differ by a zero-rate gap: a one-ulp change
    in ``units`` at the gap's start decides whether the result stops
    there or jumps across it, and the integral is the same either way.
    """
    a = sched.advance(t0, u1 + u2)
    mid = sched.advance(t0, u1)
    b = sched.advance(mid, u2) if not np.isinf(mid) else float("inf")
    if np.isinf(a) or np.isinf(b):
        assert np.isinf(a) == np.isinf(b)
        return

    def cumulative(t):
        return sched.mean_rate(t0, t) * (t - t0) if t > t0 else 0.0

    assert cumulative(a) == pytest.approx(cumulative(b), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Step series
# ---------------------------------------------------------------------------

step_changes = st.lists(
    st.tuples(st.floats(0.001, 50.0), st.floats(0.0, 100.0)),
    min_size=0,
    max_size=20,
)


@given(st.floats(0.0, 100.0), step_changes)
def test_stepseries_integral_additive(v0, changes):
    s = StepSeries(0.0, v0)
    t = 0.0
    for dt, v in changes:
        t += dt
        s.append(t, v)
    end = t + 1.0
    mid = end / 2
    whole = s.integral(0.0, end)
    parts = s.integral(0.0, mid) + s.integral(mid, end)
    assert whole == pytest.approx(parts, rel=1e-9, abs=1e-9)


@given(st.floats(0.0, 100.0), step_changes)
def test_stepseries_average_between_min_max(v0, changes):
    s = StepSeries(0.0, v0)
    t = 0.0
    values = [v0]
    for dt, v in changes:
        t += dt
        s.append(t, v)
        values.append(v)
    avg = s.average(0.0, t + 1.0)
    assert min(values) - 1e-9 <= avg <= max(values) + 1e-9


# ---------------------------------------------------------------------------
# Processor-sharing container
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.floats(0.0, 0.5), st.floats(1e5, 5e7)),
        min_size=1,
        max_size=12,
    ),
    st.floats(0.5, 4.0),
)
@settings(max_examples=40, deadline=None)
def test_container_conserves_work(jobs, cores):
    """busy-core-seconds × frequency == total submitted cycles, for any
    arrival pattern, once everything completes (fixed frequency)."""
    from repro.cluster.container import Container
    from repro.cluster.frequency import DvfsModel

    sim = Simulator()
    dvfs = DvfsModel()
    c = Container(sim, "c", dvfs, cores=cores, frequency=1.6e9)
    done = []
    total = 0.0
    for t, work in jobs:
        total += work
        sim.schedule(t, c.submit, work, lambda: done.append(sim.now))
    sim.run()
    c.sync()
    assert len(done) == len(jobs)
    assert c.busy_core_seconds * 1.6e9 == pytest.approx(total, rel=1e-6)


@given(
    st.lists(st.floats(1e5, 2e7), min_size=2, max_size=8),
    st.floats(0.5, 2.0),
)
@settings(max_examples=40, deadline=None)
def test_container_completion_order_by_remaining_work(works, cores):
    """With simultaneous submission and equal sharing, jobs finish in
    increasing order of their work."""
    from repro.cluster.container import Container
    from repro.cluster.frequency import DvfsModel

    sim = Simulator()
    c = Container(sim, "c", DvfsModel(), cores=cores, frequency=1.6e9)
    order = []
    for i, w in enumerate(works):
        c.submit(w, lambda i=i: order.append(i))
    sim.run()
    finished_works = [works[i] for i in order]
    # Non-decreasing up to the completion epsilon (ties may fire in the
    # same event, in submission order).
    for a, b in zip(finished_works, finished_works[1:]):
        assert b >= a - 1e-2


# ---------------------------------------------------------------------------
# Sensitivity tracker
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=30),
    st.floats(0.05, 1.0),
)
def test_execavg_stays_within_observed_range(observations, alpha):
    from repro.core.sensitivity import SensitivityTracker

    tr = SensitivityTracker(alpha=alpha, step=0.5, max_cores=8.0)
    for x in observations:
        tr.observe("c", 2.0, x)
    avg = tr.exec_avg("c", 2.0)
    assert min(observations) - 1e-12 <= avg <= max(observations) + 1e-12


@given(st.floats(1e-4, 1.0), st.floats(1e-4, 1.0))
def test_sensitivity_always_in_unit_interval(a, b):
    from repro.core.sensitivity import SensitivityTracker

    tr = SensitivityTracker()
    tr.observe("c", 2.0, a)
    tr.observe("c", 2.5, b)  # one step above (step = 0.5)
    s = tr.sensitivity("c", 2.0)
    assert s is not None
    assert 0.0 <= s <= 1.0

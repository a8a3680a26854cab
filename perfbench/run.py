"""The repository benchmark: one SurgeGuard cell per workload, timed on the host.

    python3 perfbench/run.py --workload chain-surge --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: the cell is run again and
again until ``--seconds`` of host time are spent, and each metric is a
median over the repeats (or over all 50 ms slices of simulated time).
``--trace 1`` measures the same untraced repeats, then one traced cell
(see ``spans.py``), and reports the per-layer metrics.  Every run ends
with one cell under the validate layer's invariant monitors.  The metric
names and units are those of ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the host and the checks.  A run is correct when

* every cell of the run has the same scenario fingerprint (the slice
  sampler's own ticks taken out of the event counts), the exact work
  counters and the same modelled outcomes;
* the monitor-armed cell reports no invariant violation;
* every cell's client injected exactly ``Cluster.ingress_count`` requests;
* in a traced run, the traced counts equal the program's own counters
  and the spans account for the traced wall time.

``attempted`` counts requests injected over every cell of the run;
``failed`` counts errored and still-outstanding requests, or all of them
when the run is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Simulated seconds per host-timing slice.
SLICE = 0.05
#: Cold set-ups per run (``setup_s`` is their median).
SETUP_SAMPLES = 3
#: Timed repeats at least, whatever ``--seconds`` says.
MIN_REPEATS = 2
#: Least share of the traced wall time the spans must account for.
MIN_COVERAGE = 0.9
#: Switches that select other program paths; the benchmark measures defaults.
_SWITCH_PREFIX = "REPRO_"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class SliceSampler:
    """A no-op tick every ``SLICE`` of simulated time, armed through the
    harness's ``monitors`` hook; the host time between two ticks is one
    slice.  Every tick it schedules fires, so its own events are exactly
    ``ticks`` scheduled and fired."""

    def __init__(self, until: float):
        self.until = until
        self.stamps: List[float] = []

    def arm(self, sim, cluster, *, controller=None, client=None) -> None:
        self.sim = sim
        sim.schedule_at(sim.now, self._tick, 0)

    def _tick(self, k: int) -> None:
        self.stamps.append(time.perf_counter())
        nxt = (k + 1) * SLICE
        if nxt <= self.until:
            self.sim.schedule_at(nxt, self._tick, k + 1)

    def finalize(self) -> None:
        pass

    @property
    def ticks(self) -> int:
        return len(self.stamps)

    def slices_ms(self) -> List[float]:
        s = self.stamps
        return [(b - a) * 1e3 for a, b in zip(s, s[1:])]


class Cell:
    """One ``run_experiment`` call and what the checks read from it."""

    def __init__(self, cfg, targets, *, monitors=None):
        from repro.experiments.harness import run_experiment
        from repro.validate.fingerprint import scenario_fingerprint

        seen = {}

        def probe(sim, cluster):
            seen["sim"], seen["cluster"] = sim, cluster

        t0 = time.perf_counter()
        result = run_experiment(cfg, targets, monitors=monitors, probe=probe)
        self.wall = time.perf_counter() - t0
        sim, cluster = seen["sim"], seen["cluster"]
        self.result = result
        self.sim, self.cluster = sim, cluster
        n = monitors.ticks if isinstance(monitors, SliceSampler) else 0
        scheduled = sim.handles_constructed + sim.handles_recycled - n
        fired = sim.events_fired - n
        self.counters = {
            "events_fired": fired,
            "events_scheduled": scheduled,
            "events_cancelled": scheduled - fired - sim.live_events_pending,
            "packets_sent": cluster.network.packets_sent,
        }
        fp = scenario_fingerprint(result, sim, cluster)
        fp["events_fired"] = fired
        #: Everything that must repeat exactly across the run's cells.
        self.record = {
            "fingerprint": fp,
            "counters": dict(self.counters),
            "energy": result.energy,
            "p98": result.summary.p98,
            "avg_cores": result.avg_cores,
        }
        self.sent = result.requests_sent
        self.ingress_ok = result.requests_sent == cluster.ingress_count
        self.lost = result.errors + result.outstanding

    def release(self) -> None:
        """Drop the simulation graph once the checks have read it."""
        self.sim = self.cluster = None


def setup_times(workload: str, seed: int) -> List[float]:
    """Wall seconds of ``SETUP_SAMPLES`` cold set-ups, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            check=True,
            timeout=120,
        )
        out.append(time.perf_counter() - t0)
    return out


def timed_cells(cfg, targets, seconds: float) -> tuple:
    """Untraced repeats of the cell until ``seconds`` of host time are spent:
    ``(cells, slices, peak RSS in MB after the first repeat)``."""
    # Slices cover the injection window; the drain after it is idle.
    until = cfg.warmup + cfg.duration
    cells, slices = [], []
    spent = 0.0
    # Stop where the run ends nearest ``seconds``: before a repeat that
    # would overshoot by more than half a cell.
    while len(cells) < MIN_REPEATS or spent + spent / len(cells) / 2 < seconds:
        sampler = SliceSampler(until)
        cell = Cell(cfg, targets, monitors=sampler)
        cell.release()
        if not cells:
            # Later repeats only reuse the heap the first one grew.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cells.append(cell)
        slices.extend(sampler.slices_ms())
        spent += cell.wall
    return cells, slices, rss_mb


def end_to_end(cells, slices, rss_mb: float, setups) -> Dict[str, float]:
    return {
        "req_per_s": statistics.median(c.sent / c.wall for c in cells),
        "slice_ms_p50": float(np.percentile(slices, 50)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "sim_energy_j": cells[0].result.energy,
    }


def traced_cell(cfg, targets):
    """One cell with every span wrapper installed: ``(cell, tracer)``."""
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed():
        cell = Cell(cfg, targets)
    return cell, tracer


def exact_counters(cell, counts: Dict[str, int]) -> Dict[str, int]:
    """Work counters of a traced cell; identical on every host."""
    return dict(cell.counters, container_submits=counts.get("Container.submit", 0), requests=cell.sent)


def per_layer(cell, tracer, untraced_rps: float, slices, setup: Dict[str, float], checks: List[str]):
    """Per-layer metrics of one traced cell; appends failed checks."""
    cluster, result = cell.cluster, cell.result
    counts, self_s, least = tracer.tables()
    reqs = result.requests_sent
    fired = cell.counters["events_fired"]
    dispatched = tracer.dispatches(counts)
    sends = counts.get("Network.send", 0)
    inter, ingress = tracer.send_split(cluster.network)
    submits = counts.get("Container.submit", 0)
    acquires = counts.get("ConnectionPool.acquire", 0)
    inspected = counts.get("FirstResponder.on_packet", 0)
    decisions = counts.get("Escalator.decide", 0)
    frs = tracer.first_responders
    pool = cluster.network.pool
    covered = sum(self_s.values())

    if dispatched != fired:
        checks.append(f"traced dispatches {dispatched} != events_fired {fired}")
    if sends != cluster.network.packets_sent:
        checks.append(f"traced sends {sends} != packets_sent {cluster.network.packets_sent}")
    if ingress != cluster.ingress_count:
        checks.append(f"traced client sends {ingress} != ingress_count {cluster.ingress_count}")
    if inspected != sum(fr.packets_inspected for fr in frs):
        checks.append("traced FirstResponder inspections != packets_inspected")
    if least < -1e-6:
        checks.append(f"spans do not nest (least self time {least:.3g} s)")
    if not MIN_COVERAGE <= covered / cell.wall <= 1.0:
        checks.append(f"spans cover {covered / cell.wall:.3f} of the traced wall time")

    def s(layer: str) -> float:
        return self_s.get(layer, 0.0)

    metrics = {
        "sim.events_fired_per_req": fired / reqs,
        "sim.events_scheduled_per_req": cell.counters["events_scheduled"] / reqs,
        "sim.events_cancelled_per_req": cell.counters["events_cancelled"] / reqs,
        "sim.self_s": s("sim"),
        "sim.self_ns_per_event": s("sim") / fired * 1e9,
        "cluster.container.submits_per_req": submits / reqs,
        "cluster.container.jobs_per_submit": tracer.jobs_at_submit / max(submits, 1),
        "cluster.container.self_s": s("cluster.container"),
        "cluster.invocation.self_s": s("cluster.invocation"),
        "cluster.threadpool.queued_frac": tracer.acquires_queued / max(acquires, 1),
        "cluster.threadpool.self_s": s("cluster.threadpool"),
        "cluster.network.packets_per_req": sends / reqs,
        "cluster.network.inter_node_frac": inter / max(sends, 1),
        "cluster.network.self_s": s("cluster.network"),
        "cluster.packet.recycle_ratio": pool.recycled / max(pool.recycled + pool.constructed, 1),
        "cluster.loadbalancer.resolves_per_req": counts.get("ReplicaSet.resolve", 0) / reqs,
        "cluster.loadbalancer.self_s": s("cluster.loadbalancer"),
        "core.firstresponder.inspected_per_req": inspected / reqs,
        "core.firstresponder.violation_frac": sum(fr.violations_detected for fr in frs) / max(inspected, 1),
        "core.firstresponder.boosts": sum(fr.boosts_applied for fr in frs),
        "core.firstresponder.self_s": s("core.firstresponder"),
        "core.escalator.decisions": decisions,
        "core.escalator.actions": tracer.escalator_actions,
        "core.escalator.self_us_per_decision": s("core.escalator") / max(decisions, 1) * 1e6,
        "workload.self_s": s("workload"),
        "metrics.summarize_s": s("metrics"),
        "experiments.harness.profile_s": setup["profile_s"],
        "experiments.harness.build_s": setup["build_s"],
        "experiments.harness.self_s": cell.wall - covered + s("experiments.harness"),
        # The slowest slices are mostly host interference on a shared
        # host, too unsteady across runs to bound as an end-to-end metric.
        "slice_ms_p95": float(np.percentile(slices, 95)),
        "sim_violation_volume": result.violation_volume,
        "sim_p98_ms": result.summary.p98 * 1e3,
        "trace.req_per_s_ratio": (reqs / cell.wall) / untraced_rps,
        "trace.coverage": covered / cell.wall,
    }
    return metrics, exact_counters(cell, counts), self_s


def committed_counters(workload: str, seed: int) -> Optional[dict]:
    path = HERE / "counters.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def use_program() -> None:
    """Put the program source on the path, refusing switched program paths."""
    switches = sorted(k for k in os.environ if k.startswith(_SWITCH_PREFIX))
    if switches:
        _fail(f"refusing to run with program switches set: {', '.join(switches)}")
    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    use_program()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    from repro.experiments.harness import clear_profile_cache, profile_targets
    from repro.validate.monitors import MonitorSet
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    cfg = WORKLOADS[args.workload].make(args.seed)
    checks: List[str] = []
    info: Dict[str, object] = {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workload": args.workload,
        "seed": args.seed,
    }

    setup: Dict[str, float] = {}
    setups: List[float] = []
    if args.trace:
        clear_profile_cache()
        t0 = time.perf_counter()
        cfg.resolved_app()
        setup["build_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        targets = profile_targets(cfg)
        setup["profile_s"] = time.perf_counter() - t0
    else:
        setups = setup_times(args.workload, args.seed)
        targets = profile_targets(cfg)

    cells, slices, rss_mb = timed_cells(cfg, targets, args.seconds)
    info["repeats"] = len(cells)
    info["slices"] = len(slices)
    info["counters"] = cells[0].counters
    if not args.trace:
        metrics = end_to_end(cells, slices, rss_mb, setups)
        all_cells = list(cells)
    else:
        traced, tracer = traced_cell(cfg, targets)
        rps = statistics.median(c.sent / c.wall for c in cells)
        metrics, exact, self_s = per_layer(traced, tracer, rps, slices, setup, checks)
        info["exact_counters"] = exact
        info["self_s"] = self_s
        ref = committed_counters(args.workload, args.seed)
        if ref is not None:
            info["counters_match_committed"] = ref == exact
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"spans-{args.workload}.npz")
        traced.release()
        all_cells = cells + [traced]

    monitors = MonitorSet()
    watched = Cell(cfg, targets, monitors=monitors)
    watched.release()
    all_cells.append(watched)
    if not monitors.ok:
        checks.append(f"{len(monitors.all_violations)} invariant violations: {monitors.all_violations[:3]}")
    first = all_cells[0].record
    for i, c in enumerate(all_cells[1:], 1):
        if c.record != first:
            fields = sorted(k for k in first if c.record[k] != first[k])
            checks.append(f"cell {i} differs from cell 0 in {fields}")
    if not all(c.ingress_ok for c in all_cells):
        checks.append("client sent != Cluster.ingress_count")

    want = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(want):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(want))} disagree with BENCHMARK.json")
    attempted = sum(c.sent for c in all_cells)
    correct = not checks
    info["checks_failed"] = checks
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": sum(c.lost for c in all_cells) if correct else attempted,
                "metrics": {k: {"value": metrics[k], "unit": want[k]} for k in want},
            }
        )
    )


if __name__ == "__main__":
    main()

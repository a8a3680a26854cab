"""Scaling-strategy headline: vertical vs horizontal vs hybrid.

Not a numbered figure — the §VII Discussion claim, quantified as the
repo's headline replica experiment: the same periodic surge handled by

* **vertical** — SurgeGuard scaling cores/frequency of single
  containers (the paper's system, one replica per service);
* **horizontal** — an HPA-style autoscaler actuating replica counts
  behind the load-balancer tier, paying a realistic launch delay while
  a new replica warms;
* **hybrid** — both at once: HPA launches replicas, SurgeGuard holds
  QoS during the launch gap.

Reported per strategy: violation volume, P98, idle-subtracted energy,
and core-seconds actually allocated — the cost axis where horizontal
scaling's coarse replica-sized grants show up against vertical
scaling's fractional-core ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.exec.specs import spec
from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.experiments.scale import current_scale

__all__ = ["StrategyRow", "run_horizontal"]

#: Surge magnitude shared by every arm (the §VII bench's 1.75×).
_SPIKE_MAGNITUDE = 1.75

#: Replica spin-up latency charged to the horizontal/hybrid arms (s).
_LAUNCH_DELAY = 3.0

#: Workloads compared (one chain, one fan-out family).
_WORKLOADS = ("chain", "readUserTimeline")


@dataclass(frozen=True)
class StrategyRow:
    strategy: str
    workload: str
    violation_volume: float
    p98: float
    #: Idle-subtracted energy (J) over the measurement window.
    energy: float
    #: Allocated core-seconds over the measurement window.
    core_seconds: float
    avg_cores: float
    #: Core upscale actions (vertical grants or replica launches).
    upscale_actions: int
    downscale_actions: int


def _strategy_config(strategy: str, workload: str) -> ExperimentConfig:
    sc = current_scale()
    capacity: Optional[int] = None
    if strategy == "vertical":
        factory = spec("surgeguard")
    else:
        hpa = dict(interval=1.0, launch_delay=_LAUNCH_DELAY)
        factory = spec("hpa" if strategy == "horizontal" else "hybrid", **hpa)
        capacity = 3
    return ExperimentConfig(
        workload=workload,
        controller_factory=factory,
        spike_magnitude=_SPIKE_MAGNITUDE,
        spike_len=sc.spike_len,
        spike_period=sc.spike_period,
        spike_offset=sc.spike_offset,
        duration=sc.duration,
        warmup=sc.warmup,
        profile_duration=sc.profile_duration,
        replica_capacity=capacity,
    )


def run_horizontal() -> List[StrategyRow]:
    """Run the 3-strategy × workload grid and tabulate QoS vs cost."""
    rows: List[StrategyRow] = []
    for workload in _WORKLOADS:
        for strategy in ("vertical", "horizontal", "hybrid"):
            res = run_experiment(_strategy_config(strategy, workload))
            window = res.config.duration
            stats = res.controller_stats
            rows.append(
                StrategyRow(
                    strategy=strategy,
                    workload=workload,
                    violation_volume=res.summary.violation_volume,
                    p98=res.summary.p98,
                    energy=res.energy,
                    core_seconds=res.avg_cores * window,
                    avg_cores=res.avg_cores,
                    upscale_actions=stats.upscale_core_actions,
                    downscale_actions=stats.downscale_core_actions,
                )
            )
    return rows


def main() -> None:  # pragma: no cover - exercised via run_all
    from repro.analysis.render import format_table

    rows = run_horizontal()
    print(
        format_table(
            ["workload", "strategy", "viol-vol", "p98(ms)", "energy(J)",
             "core-s", "avg-cores", "up", "down"],
            [
                [
                    r.workload,
                    r.strategy,
                    f"{r.violation_volume:.4f}",
                    f"{r.p98 * 1e3:.1f}",
                    f"{r.energy:.1f}",
                    f"{r.core_seconds:.1f}",
                    f"{r.avg_cores:.2f}",
                    str(r.upscale_actions),
                    str(r.downscale_actions),
                ]
                for r in rows
            ],
        )
    )


if __name__ == "__main__":  # pragma: no cover
    main()

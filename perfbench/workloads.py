"""The benchmark's workloads: one full ``run_experiment`` cell each.

Every workload runs SurgeGuard behind a cold low-load profiling pass,
driven by the open-loop client (uniform pacing, so each request is
injected exactly at its due time and modelled latency is counted from
it).  The seed is the only input a run varies: it seeds the service
work draws and the network jitter of the measured cell.

Cells are kept short (a few host seconds) so that one measured run
repeats each cell several times and reports medians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.exec import spec
from repro.experiments.harness import ExperimentConfig

#: Seed held out of all tuning; confirm a later claim on it as well.
HELD_OUT_SEED = 90210


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: why the workload is in the set.
    why: str
    make: Callable[[int], ExperimentConfig]


def _chain_surge(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        workload="chain",
        controller_factory=spec("surgeguard"),
        spike_magnitude=1.75,
        spike_len=1.0,
        spike_period=5.0,
        warmup=2.0,
        duration=5.0,
        drain=0.5,
        seed=seed,
    )


def _hotel_overload(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        workload="searchHotel",
        controller_factory=spec("surgeguard"),
        spike_magnitude=2.5,
        spike_len=1.0,
        spike_period=4.0,
        warmup=2.0,
        duration=3.0,
        drain=1.0,
        seed=seed,
    )


def _social_replicas(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        workload="composePost",
        controller_factory=spec("surgeguard"),
        spike_magnitude=None,
        n_nodes=4,
        replicas=2,
        replica_capacity=2,
        lb_policy="least_loaded",
        # Two +2 ms/hop fabric surges inside the measured window [2, 5).
        latency_surges=((2.5, 3.0, 2e-3), (3.75, 4.25, 2e-3)),
        warmup=2.0,
        duration=3.0,
        drain=0.5,
        seed=seed,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "chain-surge",
            "paper headline cell: CHAIN, 1.75x rate surges on Thrift pools; "
            "FirstResponder boosts, Escalator and pool queueing",
            _chain_surge,
        ),
        Workload(
            "hotel-overload",
            "searchHotel gRPC 2.5x surges above capacity: no pool caps "
            "concurrency, so the container PS queue does the work",
            _hotel_overload,
        ),
        Workload(
            "social-replicas",
            "composePost on 4 nodes x 2 replicas behind least_loaded LB with "
            "fabric latency surges: inter-node hops and LB dispatch",
            _social_replicas,
        ),
    )
}

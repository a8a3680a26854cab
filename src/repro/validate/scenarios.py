"""The differential scenario matrix: workloads × controllers × scenarios.

One scaled representative per paper workload family ({CHAIN,
socialNetwork, hotelReservation}) runs in every cell family of
:data:`FAMILIES`; one builder, :func:`matrix`, crosses a family's
workloads, controllers and scenarios in that order.

* ``base`` — the null baseline, full SurgeGuard, and the two strongest
  baselines (Parties, CaladanAlgo) under three traffic shapes:
  ``steady`` (base rate only), ``rate-spike`` (the §VI-B periodic
  request-rate surges) and ``latency-surge`` (the abstract's second
  surge type, injected through
  :meth:`repro.cluster.network.Network.add_latency_surge` via the
  harness's ``latency_surges`` config);
* ``faults`` — fault plans with RPC resilience (chain only);
* ``horizontal`` — replicas behind the load balancer;
* ``zoo`` — the plugin controllers;
* ``multinode`` — 4 nodes at one replica per service, on a jitter-free
  fabric;
* ``standard`` — SurgeGuard under 1.75× surges at seeds 3–5 on one and
  two nodes, one cell per seed.

Every cell is one event loop in one process.

Durations are deliberately small (a cell runs in seconds) — this matrix
is a *differential* net, not a performance study: with monitors armed it
must produce zero invariant violations and fingerprints bit-identical to
the committed goldens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.network import NetworkConfig
from repro.exec.specs import spec
from repro.experiments.harness import ExperimentConfig
from repro.faults.plan import (
    ContainerCrash,
    ControllerStall,
    FaultPlan,
    LossWindow,
    RpcPolicy,
)

__all__ = ["FAMILIES", "WORKLOADS", "Family", "Scenario", "matrix"]

#: Matrix workloads: registry key per paper workload family.
WORKLOADS: Dict[str, str] = {
    "chain": "chain",
    "socialNetwork": "readUserTimeline",
    "hotelReservation": "searchHotel",
}

#: Shared cell timing: measurement [warmup, warmup+duration), then drain.
_BASE = dict(
    duration=2.0,
    warmup=1.0,
    profile_duration=1.0,
    drain=1.0,
    seed=11,
)

#: The periodic rate surge shared by every surge-shaped cell.
_SPIKE = dict(spike_magnitude=2.0, spike_len=0.5, spike_period=2.0, spike_offset=0.25)


@dataclass(frozen=True)
class Scenario:
    """One matrix cell: its identity plus the harness config to run."""

    workload_family: str
    workload_key: str
    controller: str
    scenario: str
    config: ExperimentConfig

    @property
    def key(self) -> str:
        """Stable golden-file key, ``family/controller/scenario``."""
        return f"{self.workload_family}/{self.controller}/{self.scenario}"


@dataclass(frozen=True)
class Family:
    """One cell family: the names it crosses and the config of a cell."""

    workloads: Tuple[str, ...]
    controllers: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    #: ``(workload_key, controller, scenario) -> ExperimentConfig``.
    config: Callable[[str, str, str], ExperimentConfig]
    #: Qualifier in unknown-name errors ("unknown fault scenario ...").
    label: str = ""


def _config(workload_key: str, controller: str, **overrides) -> ExperimentConfig:
    """A cell on the shared timing, steady unless ``overrides`` say otherwise."""
    fields = dict(
        _BASE, workload=workload_key, controller_factory=spec(controller), spike_magnitude=None
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def _base_cell_config(workload_key: str, controller: str, scenario: str) -> ExperimentConfig:
    if scenario == "steady":
        return _config(workload_key, controller)
    if scenario == "rate-spike":
        return _config(workload_key, controller, **_SPIKE)
    if scenario == "latency-surge":
        # 2 ms extra per hop for half a second, mid-measurement — an
        # order of magnitude over the base inter-node hop latency.
        t0 = _BASE["warmup"] + 0.5
        return _config(workload_key, controller, latency_surges=((t0, t0 + 0.5, 2e-3),))
    raise ValueError(f"unknown scenario {scenario!r}")


#: Shared fault-cell RPC policy.  The 250 ms timeout sits far above the
#: steady-state latency tail (~8 ms end-to-end) but inside the worst
#: congested tails (~700 ms) — a request that slow is deeply
#: QoS-violating either way, so the error rate becomes part of the
#: controller differential.  The retry budget is the storm brake: the
#: matrix runs near saturation, where unbudgeted timeout retries turn
#: one loss burst into a permanent metastable collapse that drowns any
#: controller signal.  Every cell uses ``drain=2.0`` so the worst-case
#: call resolution (~0.9 s after the last injection) lands inside the
#: run and the drained-ledger invariants stay checkable.
_FAULT_RPC = RpcPolicy(
    timeout=0.25,
    max_retries=2,
    backoff_base=20e-3,
    retry_budget=0.1,
    retry_burst=50.0,
)


def _fault_cell_config(workload_key: str, controller: str, scenario: str) -> ExperimentConfig:
    if scenario == "loss-burst":
        # 30% loss for the middle half-second of measurement, steady
        # rate: transport errors hit every controller identically; how
        # fast the post-burst backlog drains is the differential.
        plan = FaultPlan(loss_windows=(LossWindow(1.5, 2.0, 0.3),), rpc=_FAULT_RPC)
        return _config(workload_key, controller, drain=2.0, faults=plan)
    if scenario == "crash-during-surge":
        # The mid-chain service dies at the peak of the first surge and
        # comes back 300 ms later.
        plan = FaultPlan(crashes=(ContainerCrash("chain3", 1.4, 0.3),), rpc=_FAULT_RPC)
        return _config(workload_key, controller, drain=2.0, faults=plan, **_SPIKE)
    if scenario == "stalled-controller":
        # The decision loop is wedged across a full surge: reactive
        # controllers cannot respond for 1.2 s; SurgeGuard's data-plane
        # FirstResponder keeps running (it is not a decision cycle).
        plan = FaultPlan(stalls=(ControllerStall(1.0, 2.2),), rpc=_FAULT_RPC)
        return _config(workload_key, controller, drain=2.0, faults=plan, **_SPIKE)
    raise ValueError(f"unknown fault scenario {scenario!r}")


#: HPA knobs for the horizontal cells.  The tight interval and short
#: launch delay make the autoscaler actually fire inside a 2 s
#: measurement window; ``scale_in_patience`` is set beyond the cell
#: horizon so no replica is reaped mid-run (keeps every container in
#: the final-allocation fingerprint with positive cores).
_HPA_CELL = dict(
    interval=0.25,
    launch_delay=0.3,
    max_replicas=3,
    scale_in_patience=40,
)


def _horizontal_cell_config(workload_key: str, controller: str, scenario: str) -> ExperimentConfig:
    # Replicas are real here: start at 1 per service behind the LB,
    # with node budget sized to host the autoscaler's max.
    return _config(
        workload_key,
        controller,
        controller_factory=spec(controller, **_HPA_CELL),
        replicas=1,
        lb_policy="round_robin",
        replica_capacity=_HPA_CELL["max_replicas"],
        **_SPIKE,
    )


def _zoo_cell_config(workload_key: str, controller: str, scenario: str) -> ExperimentConfig:
    if scenario == "steady":
        return _config(workload_key, controller)
    if scenario == "spike":
        return _config(workload_key, controller, **_SPIKE)
    if scenario == "replica-surge":
        # Static 2-replica deployment behind the LB (no horizontal
        # controller): the zoo plugin sizes each replica endpoint
        # vertically while the surge runs.
        return _config(
            workload_key,
            controller,
            replicas=2,
            lb_policy="round_robin",
            replica_capacity=2,
            **_SPIKE,
        )
    raise ValueError(f"unknown zoo scenario {scenario!r}")


def _multinode_cell_config(workload_key: str, controller: str, scenario: str) -> ExperimentConfig:
    # jitter=0 is what these cells' committed fingerprints were recorded
    # under; turning jitter on would change every one of them.
    spike = _SPIKE if scenario == "multinode-spike" else {}
    return _config(
        workload_key, controller, n_nodes=4, network=NetworkConfig(jitter=0.0), **spike
    )


def _standard_cell_config(workload_key: str, controller: str, scenario: str) -> ExperimentConfig:
    # The shape the packet fast lane was pinned at: 1.75x surges and a
    # short drain, one cell per seed.  A 3-rep run_cell from seed 3 has
    # trim-1 means equal to the median of the seed 3/4/5 cells.
    return _config(
        workload_key,
        controller,
        **dict(_SPIKE, spike_magnitude=1.75),
        drain=0.5,
        seed=int(scenario.rsplit("-s", 1)[1]),
        n_nodes=2 if "-2nodes-" in scenario else 1,
    )


#: Every cell family, in matrix order.
FAMILIES: Dict[str, Family] = {
    "base": Family(
        workloads=tuple(WORKLOADS),
        controllers=("null", "surgeguard", "parties", "caladan"),
        scenarios=("steady", "rate-spike", "latency-surge"),
        config=_base_cell_config,
    ),
    # The resilience comparison set (no control, the paper's system, the
    # strongest reactive baseline), chain only: the crash target is a
    # mid-chain service, and one workload keeps the family cheap.
    "faults": Family(
        workloads=("chain",),
        controllers=("null", "surgeguard", "parties"),
        scenarios=("loss-burst", "crash-during-surge", "stalled-controller"),
        config=_fault_cell_config,
        label="fault",
    ),
    # The replica autoscaler alone and the §VII hybrid (HPA + SurgeGuard)
    # that bridges its launch gap, under the standard periodic surge.
    "horizontal": Family(
        workloads=tuple(WORKLOADS),
        controllers=("hpa", "hybrid"),
        scenarios=("replica-surge",),
        config=_horizontal_cell_config,
        label="horizontal",
    ),
    # The related-work plugins of DESIGN.md §11 under the vertical
    # shapes plus a two-replica surge on ``svc@k`` replica endpoints
    # (targets resolved through the replica fallback).
    "zoo": Family(
        workloads=tuple(WORKLOADS),
        controllers=("statuscale", "lsram"),
        scenarios=("steady", "spike", "replica-surge"),
        config=_zoo_cell_config,
        label="zoo",
    ),
    # The two strictly per-node controllers.  Scenario names are
    # distinct so keys never collide with ``family/controller/steady``.
    "multinode": Family(
        workloads=tuple(WORKLOADS),
        controllers=("null", "surgeguard"),
        scenarios=("multinode-steady", "multinode-spike"),
        config=_multinode_cell_config,
        label="multinode",
    ),
    # SurgeGuard at seeds 3-5 on one and two nodes: the reference runs
    # of the packet-path fast lane.
    "standard": Family(
        workloads=tuple(WORKLOADS),
        controllers=("surgeguard",),
        scenarios=tuple(
            f"standard{nodes}-s{seed}" for nodes in ("", "-2nodes") for seed in (3, 4, 5)
        ),
        config=_standard_cell_config,
        label="standard",
    ),
}


def _pick(
    names: Optional[Sequence[str]], known: Tuple[str, ...], what: str, shown: list
) -> List[str]:
    if names is None:
        return list(known)
    for name in names:
        if name not in known:
            raise KeyError(f"unknown {what} {name!r}; known: {shown}")
    return list(names)


def matrix(
    family: str,
    *,
    workloads: Optional[Sequence[str]] = None,
    controllers: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
) -> List[Scenario]:
    """Build one family's (optionally filtered) cells in stable order:
    workload, then controller, then scenario.  Unknown names raise
    :class:`KeyError`."""
    try:
        fam = FAMILIES[family]
    except KeyError:
        raise KeyError(f"unknown family {family!r}; known: {list(FAMILIES)}") from None
    kind = f"{fam.label} " if fam.label else ""
    wls = _pick(workloads, fam.workloads, "workload family", sorted(fam.workloads))
    ctrls = _pick(controllers, fam.controllers, f"{kind}controller", list(fam.controllers))
    shapes = _pick(scenarios, fam.scenarios, f"{kind}scenario", list(fam.scenarios))
    return [
        Scenario(w, WORKLOADS[w], c, s, fam.config(WORKLOADS[w], c, s))
        for w in wls
        for c in ctrls
        for s in shapes
    ]

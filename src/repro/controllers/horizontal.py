"""Horizontal autoscaling interaction (§VII "Interaction with
Autoscaling Algorithms").

The paper argues SurgeGuard complements horizontal autoscalers: scaling
out takes seconds (spin up a container, warm it, re-balance), and
SurgeGuard "manag[es] QoS and prevent[s] request buildup while the
autoscaler launches a new container".

:class:`HorizontalAutoscaler` models a Kubernetes-HPA-style scaler that
actuates *replica counts* through the cluster's replica sets (see
:mod:`repro.cluster.loadbalancer`): a scale-out launches a real replica
behind the load balancer, which spends ``launch_delay`` WARMING —
holding its cores but receiving no traffic — before the LB starts
routing to it.  That actuation gap is exactly what the hybrid's
SurgeGuard units bridge.  It reads only utilization (busy / allocated
cores over the READY replicas of a service), like the real HPA's CPU
metric, so it can run *concurrently* with SurgeGuard: the two never
contend for the runtime metric windows.

The hybrid is assembled by :class:`HybridController`, which owns both
and is what the §VII bench exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.loadbalancer import READY, WARMING
from repro.controllers.base import Controller
from repro.core.config import SurgeGuardConfig
from repro.core.surgeguard import SurgeGuardController
from repro.sim.process import PeriodicProcess

__all__ = ["HorizontalAutoscaler", "HpaParams", "HybridController"]


@dataclass(frozen=True)
class HpaParams:
    """Kubernetes-HPA-flavoured tunables."""

    #: Evaluation period (HPA default: 15 s; scaled down with the rest
    #: of the experiments).
    interval: float = 2.0
    #: Scale out when service utilization (busy / allocated over READY
    #: replicas) exceeds this.
    target_utilization: float = 0.7
    #: Replica launch + warm-up delay: the new replica holds its cores
    #: but receives no traffic until it lands.
    launch_delay: float = 3.0
    #: Scale-in when utilization stays below this.
    scale_in_utilization: float = 0.35
    #: Consecutive low-utilization periods before scale-in.
    scale_in_patience: int = 3
    #: Replica-count bounds per service.
    min_replicas: int = 1
    max_replicas: int = 4

    def __post_init__(self) -> None:
        if self.interval <= 0 or self.launch_delay < 0:
            raise ValueError("invalid timing parameters")
        if not 0 < self.scale_in_utilization < self.target_utilization < 1:
            raise ValueError("need 0 < scale_in < target < 1")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")


class HorizontalAutoscaler(Controller):
    """Utilization-triggered replica-count actuation with launch latency."""

    name = "hpa"

    def __init__(self, params: Optional[HpaParams] = None):
        super().__init__()
        self.params = params or HpaParams()
        self._proc: Optional[PeriodicProcess] = None
        #: Last seen busy-core integral per replica endpoint.
        self._last_busy: Dict[str, float] = {}
        self._low_streak: Dict[str, int] = {}
        self.scale_outs = 0
        self.scale_ins = 0

    def _on_start(self) -> None:
        assert self.sim is not None and self.cluster is not None
        self._last_busy = {
            n: c.busy_core_seconds for n, c in self.cluster.containers.items()
        }
        self._low_streak = {s: 0 for s in self.cluster.replica_sets}
        self._proc = PeriodicProcess(self.sim, self.params.interval, self._decide)

    def _on_stop(self) -> None:
        if self._proc is not None:
            self._proc.stop()

    # ------------------------------------------------------------- decision
    def _utilization(self, ready) -> float:
        """busy-delta / capacity over one interval, summed over ``ready``.

        The per-replica busy baseline starts at first sight, so a replica
        that just became READY contributes only its post-warm work.  The
        per-replica delta is clamped at >= 0: a container whose integral
        went backwards relative to the baseline (crash/restart fault
        plans reset runtime state mid-window) must read as idle, not as
        negative work cancelling the other replicas' utilization.
        """
        busy = 0.0
        cores = 0.0
        for r in ready:
            c = r.container
            c.sync()
            prev = self._last_busy.get(r.name, c.busy_core_seconds)
            self._last_busy[r.name] = c.busy_core_seconds
            busy += max(c.busy_core_seconds - prev, 0.0)
            cores += c.cores
        if cores <= 0:
            return 0.0
        return busy / (self.params.interval * cores)

    def _decide(self) -> None:
        assert self.cluster is not None and self.sim is not None
        self.stats.decision_cycles += 1
        p = self.params
        cluster = self.cluster
        cluster.reap_draining()
        for service, rset in cluster.replica_sets.items():
            # Evict busy baselines of replicas that left the READY set
            # (draining, reaped, or crashed out).  A drained replica keeps
            # accruing busy-seconds until it is reaped; comparing a later
            # revival against the stale pre-drain baseline would charge
            # all of that drain-time work to the revival's first interval
            # and wildly inflate utilization.  Evicting here restarts the
            # baseline at first sight after the replica becomes READY
            # again, exactly like a brand-new replica.
            for r in rset.replicas:
                if r.state != READY:
                    self._last_busy.pop(r.name, None)
            ready = [r for r in rset.replicas if r.state == READY]
            warming = any(r.state == WARMING for r in rset.replicas)
            util = self._utilization(ready)
            if warming:
                # Stabilization: no decisions while a launch is in flight
                # (mirrors HPA's readiness gating; prevents thrash from
                # utilization measured against not-yet-serving capacity).
                self._low_streak[service] = 0
                continue
            if util > p.target_utilization and len(ready) < p.max_replicas:
                self._low_streak[service] = 0
                if cluster.scale_out(service, ready_delay=p.launch_delay):
                    self.scale_outs += 1
                    self.stats.upscale_core_actions += 1
            elif util < p.scale_in_utilization and len(ready) > p.min_replicas:
                self._low_streak[service] += 1
                if self._low_streak[service] >= p.scale_in_patience:
                    self._low_streak[service] = 0
                    if cluster.scale_in(service):
                        self.scale_ins += 1
                        self.stats.downscale_core_actions += 1
            else:
                self._low_streak[service] = 0


class HybridController(Controller):
    """§VII hybrid: horizontal autoscaler + SurgeGuard side by side.

    The autoscaler owns capacity trends (utilization-driven, slow,
    replica-granular); the SurgeGuard units bridge the actuation gap
    (per-packet fast path + metric-window slow path, per replica).  They
    share nothing but the cluster.
    """

    name = "hpa+surgeguard"

    def __init__(
        self,
        hpa_params: Optional[HpaParams] = None,
        sg_config: Optional[SurgeGuardConfig] = None,
    ):
        super().__init__()
        self.hpa = HorizontalAutoscaler(hpa_params)
        self.surgeguard = SurgeGuardController(sg_config)

    def _on_attach(self) -> None:
        assert self.sim is not None and self.cluster is not None
        assert self.targets is not None
        self.hpa.attach(self.sim, self.cluster, self.targets)
        self.surgeguard.attach(self.sim, self.cluster, self.targets)
        # Aggregate both units' action counts into this controller's stats.
        self.hpa.stats = self.stats
        self.surgeguard.stats = self.stats
        for esc in self.surgeguard.escalators:
            esc.stats = self.stats
        for fr in self.surgeguard.firstresponders:
            fr.stats = self.stats

    def _on_start(self) -> None:
        self.hpa.start()
        self.surgeguard.start()

    def _on_stop(self) -> None:
        self.hpa.stop()
        self.surgeguard.stop()

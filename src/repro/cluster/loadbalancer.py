"""Replica sets and the load-balancer tier of the packet path.

Every service runs behind a :class:`ReplicaSet` of N >= 1 stateless
copies, each with its own container, runtime, connection pools, and
deterministic work stream.  Replica 0 keeps the bare service name
(``chain2``); replica ``k >= 1`` is named ``chain2@k``.  Keeping the
zeroth replica's name equal to the service name is the determinism
seam: with one replica per service every endpoint name, RNG stream,
placement entry, and packet address is the service's own, so vertical
scaling acts on the service and horizontal scaling only adds replicas.

The LB sits at the *top* of :meth:`Network.send` (see
``cluster/network.py``): REQUEST packets addressed to a virtual (service)
name are resolved to a concrete replica endpoint before routing.  RPC
retries re-resolve too — a ``clone_retry`` keeps its concrete
destination, but every replica endpoint is also aliased to its
:class:`ReplicaSet`, so a retry aimed at a crashed replica is re-routed
through the policy and lands on a survivor.

Lifecycle: ``WARMING -> READY -> DRAINING -> DOWN`` (and back, on
revival).  A warming replica holds its cores (that *is* the spin-up
cost, mirroring cold-start) but receives no traffic; a draining replica
finishes its in-flight work and is reaped once idle; a reaped replica's
slot can be revived by a later scale-out, which re-uses the registered
endpoint (the network rejects duplicate registration by design).

Policy selection is deliberately RNG-free — round-robin is a monotone
counter, least-loaded breaks ties by replica index, and consistent
hashing uses CRC-32 (never Python's salted ``hash()``) — so a replicated
run is exactly reproducible, and a single-replica set never consults its
policy at all.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cluster.container import Container
    from repro.cluster.invocation import ServiceInstance
    from repro.cluster.node import Node
    from repro.cluster.packet import RpcPacket

__all__ = [
    "REPLICA_SEP",
    "WARMING",
    "READY",
    "DRAINING",
    "DOWN",
    "replica_name",
    "service_of_name",
    "Replica",
    "ReplicaSet",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "ConsistentHashPolicy",
    "LB_POLICIES",
    "make_policy",
]

#: Separator between a service name and a replica index (``chain2@3``).
#: Service names come from the workload registry and never contain it.
REPLICA_SEP = "@"

# Replica lifecycle states.
WARMING = "warming"
READY = "ready"
DRAINING = "draining"
DOWN = "down"


def replica_name(service: str, idx: int) -> str:
    """Endpoint name of replica ``idx`` of ``service``.

    Replica 0 *is* the service name — the replicas=1 identity seam.
    """
    return service if idx == 0 else f"{service}{REPLICA_SEP}{idx}"


def service_of_name(name: str) -> str:
    """The service a replica endpoint name belongs to."""
    base, sep, idx = name.partition(REPLICA_SEP)
    return base if sep and idx.isdigit() else name


class Replica:
    """One deployed copy of a service: container + instance + lifecycle."""

    __slots__ = (
        "name",
        "service",
        "idx",
        "state",
        "container",
        "instance",
        "node",
        "dispatched",
        "draining_since",
        "ready_at",
    )

    def __init__(
        self,
        name: str,
        service: str,
        idx: int,
        state: str = READY,
        container: Optional["Container"] = None,
        instance: Optional["ServiceInstance"] = None,
        node: Optional["Node"] = None,
    ):
        self.name = name
        self.service = service
        self.idx = idx
        self.state = state
        self.container = container
        self.instance = instance
        self.node = node
        #: REQUEST packets the LB routed here (counted at dispatch).
        self.dispatched = 0
        self.draining_since = -1.0
        self.ready_at = -1.0

    @property
    def down(self) -> bool:
        """Health (crashed?) — orthogonal to the lifecycle state."""
        inst = self.instance
        return inst is not None and inst._down

    @property
    def inflight(self) -> int:
        inst = self.instance
        return 0 if inst is None else inst.inflight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Replica({self.name!r}, {self.state}, dispatched={self.dispatched})"


# ------------------------------------------------------------------ policies
class RoundRobinPolicy:
    """Cycle through the routable pool with a monotone counter.

    Over any prefix of dispatches against a fixed pool the per-replica
    counts differ by at most one (exact fairness — property-tested).
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, pool: List[Replica], pkt: "RpcPacket") -> Replica:
        r = pool[self._next % len(pool)]
        self._next += 1
        return r


class LeastLoadedPolicy:
    """Route to the replica with the fewest in-flight requests.

    Ties break by replica index, keeping selection deterministic.
    """

    name = "least_loaded"

    def select(self, pool: List[Replica], pkt: "RpcPacket") -> Replica:
        best = pool[0]
        best_load = best.inflight
        for r in pool[1:]:
            load = r.inflight
            if load < best_load:
                best, best_load = r, load
        return best


def _hash_key(key: int) -> int:
    """Deterministic 32-bit hash of a request id (CRC-32, never the
    process-salted builtin ``hash``)."""
    return zlib.crc32((key & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))


class ConsistentHashPolicy:
    """Classic ring hashing: ``vnodes`` virtual points per replica.

    The same request id maps to the same replica for as long as that
    replica is in the pool, and adding a replica only moves keys *onto*
    the new replica (minimal remap — property-tested).  The ring is
    rebuilt lazily and cached per pool composition.
    """

    name = "consistent_hash"

    def __init__(self, vnodes: int = 64) -> None:
        self.vnodes = vnodes
        self._ring_key: Optional[Tuple[str, ...]] = None
        self._ring_hashes: List[int] = []
        self._ring_replicas: List[Replica] = []

    def _rebuild(self, pool: List[Replica]) -> None:
        points = []
        for r in pool:
            for v in range(self.vnodes):
                points.append((zlib.crc32(f"{r.name}#{v}".encode()), r.name, r))
        # Secondary sort on name makes hash collisions deterministic.
        points.sort(key=lambda p: (p[0], p[1]))
        self._ring_hashes = [p[0] for p in points]
        self._ring_replicas = [p[2] for p in points]
        self._ring_key = tuple(r.name for r in pool)

    def select(self, pool: List[Replica], pkt: "RpcPacket") -> Replica:
        key = tuple(r.name for r in pool)
        if key != self._ring_key:
            self._rebuild(pool)
        h = _hash_key(pkt.request_id)
        i = bisect_right(self._ring_hashes, h) % len(self._ring_hashes)
        return self._ring_replicas[i]


LB_POLICIES = {
    "round_robin": RoundRobinPolicy,
    "least_loaded": LeastLoadedPolicy,
    "consistent_hash": ConsistentHashPolicy,
}


def make_policy(name: str):
    """Instantiate a load-balancing policy by registry name."""
    try:
        return LB_POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown lb policy {name!r}; choose from {sorted(LB_POLICIES)}"
        ) from None


# --------------------------------------------------------------- replica set
class ReplicaSet:
    """All replicas of one service plus the policy that picks among them.

    :meth:`resolve` is the only routing decision point: it filters to
    lifecycle-READY replicas, then to healthy (not crashed) ones —
    *failing open* to the ready pool when every ready replica is crashed,
    so a crashed sole replica behaves like a dead socket (packets still
    flow and are dropped at the down instance).
    """

    __slots__ = ("service", "policy", "replicas", "dispatched", "unroutable",
                 "nonready_dispatches")

    def __init__(self, service: str, policy) -> None:
        self.service = service
        self.policy = policy
        self.replicas: List[Replica] = []
        #: Total REQUESTs routed through this set.
        self.dispatched = 0
        #: REQUESTs with no READY replica to take them (packet discarded).
        self.unroutable = 0
        #: Dispatches to a non-READY replica — structurally impossible;
        #: asserted zero by ReplicaConservationMonitor.
        self.nonready_dispatches = 0

    def add(self, replica: Replica) -> None:
        self.replicas.append(replica)

    def ready(self) -> List[Replica]:
        return [r for r in self.replicas if r.state == READY]

    def by_name(self, name: str) -> Replica:
        for r in self.replicas:
            if r.name == name:
                return r
        raise KeyError(name)

    def resolve(self, pkt: "RpcPacket") -> Optional[str]:
        """Pick a concrete replica endpoint for ``pkt`` (or ``None``)."""
        replicas = self.replicas
        if len(replicas) == 1:
            # The default deployment: skip building the ready list.
            ready = replicas if replicas[0].state == READY else ()
        else:
            ready = [r for r in replicas if r.state == READY]
        if not ready:
            self.unroutable += 1
            return None
        if len(ready) == 1:
            r = ready[0]  # sole READY replica: no policy, no health filter
        else:
            pool = [r for r in ready if not r.down] or ready
            r = self.policy.select(pool, pkt) if len(pool) > 1 else pool[0]
        if r.state != READY:  # pragma: no cover - defensive
            self.nonready_dispatches += 1
        r.dispatched += 1
        self.dispatched += 1
        return r.name


def virtual_aliases(rset: ReplicaSet) -> Dict[str, ReplicaSet]:
    """Endpoint-name -> set map entries for one replica set.

    Covers the service name (replica 0's endpoint) *and* every numbered
    replica endpoint, so in-place retries addressed to a concrete replica
    re-resolve through the policy.
    """
    out = {rset.service: rset}
    for r in rset.replicas:
        out[r.name] = rset
    return out

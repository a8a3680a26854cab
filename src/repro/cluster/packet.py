"""RPC packets and the SurgeGuard metadata fields (paper Fig. 8).

Every inter-container message in the simulation is an :class:`RpcPacket`.
Two fields implement the paper's protocol extension:

* ``start_time`` — the timestamp at which the end-to-end job entered the
  application.  Set by the *first* container and propagated unchanged by
  every subsequent hop.  FirstResponder uses it for per-packet progress
  tracking (Eq. 4–5).
* ``upscale`` — a decentralized upscaling hint.  A container whose
  ``queueBuildup`` exceeds its threshold stamps outgoing *request*
  packets with a positive TTL; each downstream container propagates the
  hint decremented by one, bounding how far down the task graph a single
  upstream violation reaches (Table II, §IV "Metadata Fields").

Packets also carry plumbing for the simulation itself (routing ids and a
reference to the in-flight call record); controllers never read those.

**Allocation discipline.**  One packet per hop is the dominant hot-path
allocation, so the network owns a :class:`PacketPool`: packets built by
the pool are returned to a free list at explicit release points (central
response release after delivery, loss-window drop, server-side request
release at completion — see DESIGN.md §8) and reused by the next
acquire.  Pool management is tracked per object in ``_pool_state``, so
packets constructed directly (tests, the RPC retry layer, external
tooling) are simply never recycled; releasing one is a no-op and
double-releasing a pooled one always raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional

__all__ = ["PacketPool", "PoolError", "RpcPacket", "REQUEST", "RESPONSE"]

REQUEST = "request"
RESPONSE = "response"

# ``_pool_state`` values.
_UNMANAGED = 0  # directly constructed: never enters a free list
_LIVE = 1  # acquired from a pool, currently in flight
_FREED = 2  # sitting in a free list; any use is a bug


class PoolError(RuntimeError):
    """Raised on pool misuse: double release, or (in debug mode) any use
    of a packet after it was released."""


@dataclass(slots=True)
class RpcPacket:
    """A single RPC message travelling between two containers.

    Parameters mirror the wire format sketched in Fig. 8 of the paper:
    the application payload (not modeled), plus the two SurgeGuard
    metadata fields.
    """

    #: End-to-end request id (unique per user request).
    request_id: int
    #: ``REQUEST`` or ``RESPONSE``.
    kind: str
    #: Name of the sending container ("client" for ingress packets).
    src: str
    #: Name of the destination container (or "client" for the final reply).
    dst: str
    #: SurgeGuard metadata: job start timestamp (seconds). Propagated unchanged.
    start_time: float
    #: SurgeGuard metadata: downstream-upscale hint TTL (hops). 0 = no hint.
    upscale: int = 0
    #: Simulated send timestamp; filled in by the network.
    send_time: float = 0.0
    #: Response-only: the callee completed the request as a *failure*
    #: (a downstream call exhausted its retries, or the callee crashed).
    #: Error responses are terminal — callers propagate the failure
    #: instead of retrying, like a gRPC status error vs a transport loss.
    error: bool = False
    #: Opaque reference used by the invocation machinery to resume a caller.
    context: Optional[Any] = field(default=None, repr=False)
    #: Pool bookkeeping (``_UNMANAGED``/``_LIVE``/``_FREED``); simulation
    #: semantics never depend on it.
    _pool_state: int = field(default=0, init=False, repr=False, compare=False)

    def fork_downstream(self, dst: str, src: str, upscale: int) -> "RpcPacket":
        """Build the request packet for the next hop of the same job.

        ``start_time`` propagates unchanged; the ``upscale`` TTL is supplied
        by the caller (the container runtime applies the decrement/stamping
        rules — see :meth:`repro.cluster.runtime.ContainerRuntime.outgoing_upscale`).

        Built with :func:`dataclasses.replace` so a future field is
        *propagated by default* and has to be reset here deliberately
        (``tests/cluster/test_packet.py`` pins the full field ledger).
        """
        return replace(
            self,
            kind=REQUEST,
            src=src,
            dst=dst,
            upscale=upscale,
            send_time=0.0,
            error=False,
            context=None,
        )

    def make_response(self, src: str, *, error: bool = False) -> "RpcPacket":
        """Build the response packet back to this packet's sender."""
        return replace(
            self,
            kind=RESPONSE,
            src=src,
            dst=self.src,
            upscale=0,
            send_time=0.0,
            error=error,
        )

    def clone_retry(self) -> "RpcPacket":
        """Fresh copy of a request for an RPC retransmission.

        A new object on purpose: the network mutates ``send_time`` and
        the RPC layer rebinds ``context`` per attempt, so attempts must
        not share packet state.  Everything else — including ``error`` —
        propagates verbatim.
        """
        return replace(self, send_time=0.0, context=None)


def _poison_context(*_args: Any, **_kwargs: Any) -> None:
    """Installed as ``context`` on released packets in debug mode."""
    raise PoolError("use-after-release: context of a released RpcPacket called")


#: Debug-mode sentinel written into the string fields of released
#: packets: routes on it miss, ``handle_packet`` rejects it.
_POISON = "\x00released-packet\x00"


class PacketPool:
    """Free-list recycler for hot-path :class:`RpcPacket` objects.

    One pool per :class:`~repro.cluster.network.Network`.  With
    ``debug=True`` every released packet is *poisoned* (fields
    overwritten with sentinels that make any later use raise or
    misroute), so a use-after-release surfaces at the point of use
    instead of as silent state corruption.

    Ownership rules (the full release-point map is DESIGN.md §8):

    * Packets the pool hands out are ``_LIVE`` and must be released
      exactly once; a second :meth:`release` raises even outside debug
      mode (state corruption would otherwise be silent and seed-dependent).
    * Directly-constructed packets are ``_UNMANAGED``; releasing them is
      a no-op, so release points don't need to know how a packet was made.
    * A *missed* release merely leaks the object to the garbage
      collector — exactly the pre-pool behavior, never a correctness bug.
    """

    __slots__ = ("debug", "_free", "constructed", "recycled", "released")

    def __init__(self, *, debug: bool = False):
        self.debug = debug
        self._free: List[RpcPacket] = []
        #: Fresh ``RpcPacket`` constructions through this pool (the
        #: object-churn numerator of the allocation benchmark).
        self.constructed = 0
        #: Acquisitions served from the free list.
        self.recycled = 0
        #: Successful releases (``len(_free)`` at quiescence).
        self.released = 0

    # --------------------------------------------------------------- acquire
    def acquire(
        self,
        request_id: int,
        kind: str,
        src: str,
        dst: str,
        start_time: float,
        upscale: int = 0,
        *,
        error: bool = False,
        context: Optional[Any] = None,
    ) -> RpcPacket:
        """A packet with the given fields — recycled when possible."""
        free = self._free
        if free:
            pkt = free.pop()
            pkt.request_id = request_id
            pkt.kind = kind
            pkt.src = src
            pkt.dst = dst
            pkt.start_time = start_time
            pkt.upscale = upscale
            pkt.send_time = 0.0
            pkt.error = error
            pkt.context = context
            pkt._pool_state = _LIVE
            self.recycled += 1
            return pkt
        pkt = RpcPacket(
            request_id=request_id,
            kind=kind,
            src=src,
            dst=dst,
            start_time=start_time,
            upscale=upscale,
            error=error,
            context=context,
        )
        self.constructed += 1
        pkt._pool_state = _LIVE
        return pkt

    def fork_downstream(
        self, pkt: RpcPacket, *, dst: str, src: str, upscale: int
    ) -> RpcPacket:
        """Pooled :meth:`RpcPacket.fork_downstream` for the hot path."""
        return self.acquire(
            pkt.request_id, REQUEST, src, dst, pkt.start_time, upscale
        )

    def make_response(
        self, pkt: RpcPacket, *, src: str, error: bool = False
    ) -> RpcPacket:
        """Pooled :meth:`RpcPacket.make_response` for the hot path."""
        return self.acquire(
            pkt.request_id,
            RESPONSE,
            src,
            pkt.src,
            pkt.start_time,
            0,
            error=error,
            context=pkt.context,
        )

    # --------------------------------------------------------------- release
    def release(self, pkt: RpcPacket) -> None:
        """Return ``pkt`` to the free list (no-op for unmanaged packets)."""
        state = pkt._pool_state
        if state == _UNMANAGED:
            return
        if state == _FREED:
            raise PoolError(
                f"double release of pooled packet (request_id={pkt.request_id!r})"
            )
        pkt._pool_state = _FREED
        pkt.context = None  # never keep a continuation graph alive in the pool
        if self.debug:
            nan = float("nan")
            pkt.kind = _POISON
            pkt.src = _POISON
            pkt.dst = _POISON
            pkt.start_time = nan
            pkt.send_time = nan
            pkt.context = _poison_context
        self.released += 1
        self._free.append(pkt)

    # ------------------------------------------------------------ accounting
    @property
    def free(self) -> int:
        """Packets currently sitting in the free list."""
        return len(self._free)

    def stats(self) -> dict:
        """Picklable counter snapshot for the allocation benchmark."""
        return {
            "constructed": self.constructed,
            "recycled": self.recycled,
            "released": self.released,
            "free": len(self._free),
        }

"""Unit tests for the hot-path recyclers: PacketPool and the engine's
EventHandle free list.

The pool's safety story has three legs, each pinned here: a pooled
packet released twice *always* raises (even outside debug mode), a
released packet in debug mode is poisoned so any later use raises or
misroutes loudly, and the engine only ever recycles a handle when
``sys.getrefcount`` proves nobody else still holds it.  The payoff is
pinned too: on the real delivery path, steady state constructs nothing.
"""

import gc
import math

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.packet import (
    REQUEST,
    RESPONSE,
    PacketPool,
    PoolError,
    RpcPacket,
)
from repro.controllers.targets import TargetConfig
from repro.core.config import SurgeGuardConfig
from repro.core.firstresponder import FirstResponder
from repro.services.registry import get_workload
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def live_pool(**kw):
    kw.setdefault("enabled", True)
    kw.setdefault("debug", False)
    return PacketPool(**kw)


class TestAcquireRelease:
    def test_acquire_constructs_when_free_list_empty(self):
        pool = live_pool()
        pkt = pool.acquire(1, REQUEST, "a", "b", 0.5)
        assert isinstance(pkt, RpcPacket)
        assert pool.constructed == 1
        assert pool.recycled == 0

    def test_release_then_acquire_reuses_the_same_object(self):
        pool = live_pool()
        first = pool.acquire(1, REQUEST, "a", "b", 0.5, 3)
        pool.release(first)
        second = pool.acquire(2, RESPONSE, "c", "d", 1.5)
        assert second is first
        assert pool.recycled == 1
        # Every field was overwritten by the new acquisition.
        assert second.request_id == 2
        assert second.kind == RESPONSE
        assert second.src == "c" and second.dst == "d"
        assert second.start_time == 1.5
        assert second.upscale == 0
        assert second.send_time == 0.0
        assert second.error is False
        assert second.context is None

    def test_release_of_directly_constructed_packet_is_noop(self):
        pool = live_pool()
        pkt = RpcPacket(request_id=1, kind=REQUEST, src="a", dst="b", start_time=0.0)
        pool.release(pkt)
        pool.release(pkt)  # still a no-op, not a double release
        assert pool.free == 0
        assert pool.released == 0

    def test_double_release_raises_even_without_debug(self):
        pool = live_pool()
        pkt = pool.acquire(1, REQUEST, "a", "b", 0.0)
        pool.release(pkt)
        with pytest.raises(PoolError, match="double release"):
            pool.release(pkt)

    def test_release_drops_the_context_reference(self):
        pool = live_pool()
        pkt = pool.acquire(1, REQUEST, "a", "b", 0.0, context=lambda p: None)
        pool.release(pkt)
        assert not callable(pkt.context) or pkt.context.__name__ == "_poison_context"

    def test_disabled_pool_never_recycles(self):
        pool = PacketPool(enabled=False, debug=False)
        pkt = pool.acquire(1, REQUEST, "a", "b", 0.0)
        pool.release(pkt)  # unmanaged: no-op
        other = pool.acquire(2, REQUEST, "a", "b", 0.0)
        assert other is not pkt
        assert pool.recycled == 0
        assert pool.constructed == 2

    def test_stats_snapshot(self):
        pool = live_pool()
        pkt = pool.acquire(1, REQUEST, "a", "b", 0.0)
        pool.release(pkt)
        pool.acquire(2, REQUEST, "a", "b", 0.0)
        assert pool.stats() == {
            "constructed": 1,
            "recycled": 1,
            "released": 1,
            "free": 0,
        }


class TestPoisonDebugMode:
    def test_use_after_release_context_call_raises(self):
        pool = live_pool(debug=True)
        pkt = pool.acquire(1, RESPONSE, "a", "client", 0.0, context=lambda p: None)
        pool.release(pkt)
        with pytest.raises(PoolError, match="use-after-release"):
            pkt.context(pkt)  # a stale continuation firing

    def test_released_packet_fields_are_poisoned(self):
        pool = live_pool(debug=True)
        pkt = pool.acquire(1, REQUEST, "a", "b", 2.0)
        pool.release(pkt)
        # Stale routing on the poisoned packet cannot silently succeed:
        # the kind matches neither REQUEST nor RESPONSE and the names
        # match no container, so any dispatch on it fails loudly.
        assert pkt.kind not in (REQUEST, RESPONSE)
        assert pkt.src == pkt.kind and pkt.dst == pkt.kind
        assert math.isnan(pkt.start_time) and math.isnan(pkt.send_time)

    def test_reacquired_packet_is_fully_unpoisoned(self):
        pool = live_pool(debug=True)
        pkt = pool.acquire(1, REQUEST, "a", "b", 2.0)
        pool.release(pkt)
        again = pool.acquire(2, REQUEST, "x", "y", 3.0)
        assert again is pkt
        assert again.kind == REQUEST
        assert again.start_time == 3.0 and again.send_time == 0.0
        assert again.context is None


class TestPooledBuilders:
    """The pooled fork/response builders must match the RpcPacket methods
    field-for-field (the identity suite pins the end-to-end claim)."""

    def mk(self):
        pkt = RpcPacket(
            request_id=7, kind=REQUEST, src="client", dst="s0",
            start_time=1.25, upscale=2,
        )
        pkt.context = object()
        return pkt

    def test_fork_downstream_matches_method(self):
        pkt = self.mk()
        pool = live_pool()
        pooled = pool.fork_downstream(pkt, dst="s1", src="s0", upscale=1)
        plain = pkt.fork_downstream(dst="s1", src="s0", upscale=1)
        assert pooled == plain

    def test_make_response_matches_method(self):
        pkt = self.mk()
        pool = live_pool()
        pooled = pool.make_response(pkt, src="s0", error=True)
        plain = pkt.make_response(src="s0", error=True)
        assert pooled == plain
        assert pooled.context is pkt.context


class TestEnvSwitches:
    def test_pool_disabled_via_env_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL", "0")
        pool = PacketPool()
        assert not pool.enabled
        pkt = pool.acquire(1, REQUEST, "a", "b", 0.0)
        pool.release(pkt)
        assert pool.free == 0

    def test_debug_enabled_via_env_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_DEBUG", "1")
        pool = PacketPool()
        assert pool.enabled and pool.debug

    def test_default_is_pooled_non_debug(self, monkeypatch):
        monkeypatch.delenv("REPRO_POOL", raising=False)
        monkeypatch.delenv("REPRO_POOL_DEBUG", raising=False)
        pool = PacketPool()
        assert pool.enabled and not pool.debug


class TestHandleRecycling:
    """Engine EventHandle free list, guarded by ``sys.getrefcount``."""

    def test_chain_run_recycles_instead_of_constructing(self):
        sim = Simulator()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(1e-6, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert sim.events_fired == 10_000
        # The chain reuses one handle over and over; a tiny constant
        # number of fresh allocations (first link + heap warm-up), the
        # rest served from the free list.
        assert sim.handles_constructed <= 4
        assert sim.handles_recycled >= 9_000

    def test_retained_handle_is_never_recycled(self):
        sim = Simulator()
        kept = sim.schedule(0.0, lambda: None)
        sim.run()
        assert kept.fn is None  # fired
        fresh = sim.schedule(0.0, lambda: None)
        # Our live reference was visible to the refcount guard, so the
        # engine allocated a new handle rather than reusing ``kept``.
        assert fresh is not kept
        assert sim.handles_recycled == 0

    def test_unretained_fired_handle_is_recycled(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)  # handle reference dropped here
        sim.run()
        again = sim.schedule(0.0, lambda: None)
        assert sim.handles_recycled == 1
        assert again.seq == 1  # seq keeps counting across reuse
        sim.run()

    def test_cancelled_dropped_handle_is_recycled(self):
        sim = Simulator()
        decoy = sim.schedule(1.0, lambda: None)
        decoy.cancel()
        del decoy
        sim.schedule(2.0, lambda: None)
        sim.run()  # pops the cancelled entry, free-lists it
        sim.schedule(0.0, lambda: None)
        assert sim.handles_recycled >= 1
        sim.run()

    def test_retained_cancelled_handle_is_never_recycled(self):
        sim = Simulator()
        kept = sim.schedule(1.0, lambda: None)
        kept.cancel()
        sim.run()  # drops the cancelled entry; our reference blocks reuse
        fresh = sim.schedule(0.0, lambda: None)
        assert fresh is not kept
        assert sim.handles_recycled == 0

    def test_env_kill_switch_disables_recycling(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL", "0")
        sim = Simulator()
        remaining = [100]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(1e-6, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert sim.handles_recycled == 0
        assert sim.handles_constructed == 100

    def test_step_recycles_like_run(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        assert sim.step()
        sim.schedule(0.0, lambda: None)
        assert sim.handles_recycled == 1
        assert sim.step()


class TestSteadyStateChurn:
    """Both free lists on the real delivery path.

    A 1-node CHAIN cluster with FirstResponder's RX hook installed;
    packets ping-pong through a sink endpoint that releases each one, as
    a serving endpoint does.  Progress targets are loose enough that no
    boost fires, so this is the steady-state fast path.  Construction
    counts come from the recyclers themselves, so the bounds are exact.
    """

    WARMUP = 1_000
    PACKETS = 4_000

    def churn(self):
        """Pump ``WARMUP`` then ``PACKETS`` packets; report the second segment."""
        sim = Simulator()
        cluster = Cluster(
            sim, get_workload("chain").build(), ClusterConfig(n_nodes=1), RngRegistry(1)
        )
        names = [*cluster.containers, "sink"]
        targets = TargetConfig(
            expected_exec_metric=dict.fromkeys(names, 1.0),
            expected_exec_time=dict.fromkeys(names, 1.0),
            expected_time_from_start=dict.fromkeys(names, 1.0),
            qos_target=0.05,
        )
        responder = FirstResponder(
            sim, cluster.node_views[0], SurgeGuardConfig(), targets
        )
        responder.install()
        net = cluster.network
        delivered = 0
        stop_at = 0

        def fire():
            net.send(net.pool.acquire(delivered, REQUEST, "client", "sink", sim.now))

        def sink(pkt):
            nonlocal delivered
            delivered += 1
            net.pool.release(pkt)
            if delivered < stop_at:
                fire()

        net.register("sink", cluster.nodes[0], sink)

        def pump(n):
            nonlocal stop_at
            stop_at = delivered + n
            fire()
            sim.run()

        pump(self.WARMUP)
        packets, handles = net.pool.constructed, sim.handles_constructed
        gc.collect()
        gen2 = gc.get_stats()[2]["collections"]
        pump(self.PACKETS)
        assert delivered == self.WARMUP + self.PACKETS
        # Every delivery took the guarded path, not a shortcut around it.
        assert responder.packets_inspected == delivered
        return {
            "packets": net.pool.constructed - packets,
            "handles": sim.handles_constructed - handles,
            "gen2": gc.get_stats()[2]["collections"] - gen2,
        }

    def test_pooled_steady_state_constructs_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_POOL", raising=False)
        churn = self.churn()
        assert churn["packets"] == 0
        assert churn["handles"] == 0
        # Nothing is allocated, so the mature generation should not churn;
        # a couple are allowed for interpreter background noise.
        assert churn["gen2"] <= 2

    def test_unpooled_constructs_a_packet_and_a_handle_per_delivery(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_POOL", "0")
        churn = self.churn()
        assert churn["packets"] + churn["handles"] >= 2 * self.PACKETS

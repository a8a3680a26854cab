"""Fault injection × the replica/LB tier.

A crash takes down *one replica*, not the service: the LB's health
filter steers traffic to the survivors while the crashed replica is
down, only the crashed replica's in-flight work is killed, and the RPC
layer's retries land on a surviving replica — so a replicated service
rides out a crash that costs the single-replica deployment a visible
error burst.
"""

import dataclasses

from repro.faults import ContainerCrash, FaultInjector, FaultPlan, RpcPolicy
from repro.experiments.harness import clear_profile_cache, run_experiment
from repro.validate.scenarios import fault_matrix
from tests.conftest import drive_cluster, make_chain_app

RPC = RpcPolicy(timeout=20e-3, max_retries=1, backoff_base=2e-3)


class TestCrashOneReplicaDirect:
    def test_lb_routes_around_the_crashed_replica(self, sim, make_cluster):
        cluster = make_cluster(make_chain_app(3, work=5e6), replicas=2)
        rset = cluster.replica_sets["s1"]
        crashed, survivor = rset.by_name("s1"), rset.by_name("s1@1")

        # s1 (replica 0 keeps the bare name) dies at 0.2 for 0.1 s.
        inj = FaultInjector(
            FaultPlan(crashes=(ContainerCrash("s1", 0.2, 0.1),), rpc=RPC)
        )
        inj.arm(sim, cluster)

        snaps = {}

        def snap(label):
            def _take():
                snaps[label] = (crashed.dispatched, survivor.dispatched)

            return _take

        sim.schedule(0.21, snap("down_start"))  # just after the crash
        sim.schedule(0.29, snap("down_end"))  # just before the restart
        sim.schedule(0.45, snap("recovered"))

        client = drive_cluster(
            sim, cluster, rate=600.0, duration=0.5, run_until=3.0
        )
        assert inj.crashes_injected == 1 and inj.restarts_completed == 1

        # Only the crashed replica's in-flight work was killed.
        assert crashed.instance.inflight_killed > 0
        assert survivor.instance.inflight_killed == 0

        # While down, the LB dispatched nothing to the crashed replica
        # and kept the survivor serving.
        c0, s0 = snaps["down_start"]
        c1, s1 = snaps["down_end"]
        assert c1 == c0, "crashed replica kept receiving traffic while down"
        assert s1 > s0, "survivor stopped receiving traffic"

        # After the restart the LB resumed routing to it.
        c2, _ = snaps["recovered"]
        assert c2 > c1, "routing never resumed after restart"

        # The replica-level ledger still balances everywhere.
        for r in rset.replicas:
            inst = r.instance
            assert (
                inst.requests_started
                == inst.requests_completed
                + inst.requests_failed
                + inst.inflight_killed
            ), r.name
        assert client.stats.completed > 0


class TestCrashDuringSurgeReplicated:
    def test_retries_land_on_the_surviving_replica(self):
        """The matrix's crash-during-surge cell, one replica vs two
        replicas: with a survivor in the set, timed-out attempts retry
        onto it instead of dying against a dead socket."""
        (cell,) = fault_matrix(
            controllers=["surgeguard"], scenarios=["crash-during-surge"]
        )
        clear_profile_cache()
        single = run_experiment(cell.config)
        clear_profile_cache()
        replicated = run_experiment(
            dataclasses.replace(cell.config, replicas=2, replica_capacity=2)
        )

        for res in (single, replicated):
            assert res.fault_stats is not None
            assert res.fault_stats["crashes"] == 1

        # The single-replica run eats a real error burst; the replicated
        # one absorbs the same crash almost entirely.
        assert single.errors > 0
        assert replicated.errors < single.errors
        assert replicated.error_rate < 0.5 * single.error_rate
        assert replicated.summary.count > 0

"""FaultInjector wiring against a live cluster.

Covers the arm/disarm shadowing discipline (the disarmed object graph is
exactly the pre-arm one), loss-window draw accounting, crash/restart
semantics, stall gating, and the fault-free bit-identity guarantee.
"""

import dataclasses

import pytest

from repro.faults import (
    ContainerCrash,
    ControllerStall,
    FaultInjector,
    FaultPlan,
    LossWindow,
    RpcPolicy,
)
from repro.sim.rng import RngRegistry
from tests.conftest import drive_cluster, make_chain_app

RPC = RpcPolicy(timeout=20e-3, max_retries=1, backoff_base=2e-3)


class _RecordingEscalator:
    """Duck-typed stand-in for a per-node Escalator."""

    def __init__(self):
        self.decided = 0
        self.forgotten = []
        self.sensitivity = self  # .forget lives on the sensitivity model

    def decide(self):
        self.decided += 1

    def forget(self, name):
        self.forgotten.append(name)


class _CentralController:
    """Baseline shape: one centralized ``_decide``, no escalators."""

    def __init__(self):
        self.decided = 0

    def _decide(self):
        self.decided += 1


class TestArmDisarm:
    def test_rpc_installed_everywhere_and_removed(self, sim, small_cluster):
        inj = FaultInjector(FaultPlan(rpc=RPC))
        inj.arm(sim, small_cluster)
        assert small_cluster.rpc is inj.rpc is not None
        assert all(i.rpc is inj.rpc for i in small_cluster.instances.values())
        inj.disarm()
        assert small_cluster.rpc is None
        assert all(i.rpc is None for i in small_cluster.instances.values())

    def test_loss_shadow_is_instance_level_and_restored(self, sim, small_cluster):
        net = small_cluster.network
        plan = FaultPlan(loss_windows=(LossWindow(0.1, 0.2, 0.5),), rpc=RPC)
        inj = FaultInjector(plan)
        inj.arm(sim, small_cluster)
        assert "send" in net.__dict__  # shadow, not a class patch
        inj.disarm()
        assert "send" not in net.__dict__
        assert net.send.__func__ is type(net).send

    def test_double_arm_rejected(self, sim, small_cluster):
        inj = FaultInjector(FaultPlan(rpc=RPC))
        inj.arm(sim, small_cluster)
        with pytest.raises(RuntimeError):
            inj.arm(sim, small_cluster)

    def test_unknown_crash_target_rejected(self, sim, small_cluster):
        plan = FaultPlan(crashes=(ContainerCrash("nope", 0.1, 0.1),), rpc=RPC)
        with pytest.raises(KeyError, match="nope"):
            FaultInjector(plan).arm(sim, small_cluster)


class TestLoss:
    def test_no_draws_outside_windows(self, sim, small_cluster):
        """A window after the run's horizon must cost zero RNG draws —
        the loss stream is untouched, so every other stream (and hence
        the whole timeline) is bit-identical to a fault-free run."""
        plan = FaultPlan(loss_windows=(LossWindow(50.0, 51.0, 0.9),), rpc=RPC)
        inj = FaultInjector(plan)
        inj.arm(sim, small_cluster)
        client = drive_cluster(sim, small_cluster, rate=200.0, duration=0.2)
        assert small_cluster.network.packets_dropped == 0
        assert client.stats.errored == 0
        armed = small_cluster.rng.stream("faults.loss").bit_generator.state
        fresh = RngRegistry(42).stream("faults.loss").bit_generator.state
        assert armed == fresh

    def test_total_loss_errors_do_not_hang(self, sim, small_cluster):
        """Cluster-level ISSUE litmus: 100% loss over the whole run, the
        open-loop client still sees every request complete (as errors)."""
        plan = FaultPlan(loss_windows=(LossWindow(0.0, 60.0, 1.0),), rpc=RPC)
        inj = FaultInjector(plan)
        inj.arm(sim, small_cluster)
        client = drive_cluster(
            sim, small_cluster, rate=100.0, duration=0.2, run_until=5.0
        )
        assert client.stats.sent > 0
        assert client.stats.completed == 0
        assert client.stats.errored == client.stats.sent
        assert inj.rpc.open_calls == 0
        assert small_cluster.network.packets_dropped > 0
        assert inj.fault_stats()["rpc_errors"] == client.stats.sent

    def test_partial_window_drops_some_and_recovers(self, sim, small_cluster):
        plan = FaultPlan(loss_windows=(LossWindow(0.05, 0.15, 0.7),), rpc=RPC)
        inj = FaultInjector(plan)
        inj.arm(sim, small_cluster)
        client = drive_cluster(
            sim, small_cluster, rate=400.0, duration=0.3, run_until=2.0
        )
        assert small_cluster.network.packets_dropped > 0
        assert client.stats.completed > 0  # traffic outside the window lands
        assert client.stats.sent == client.stats.completed + client.stats.errored
        assert inj.rpc.open_calls == 0


class TestCrash:
    def test_crash_kills_inflight_and_restart_recovers(self, sim, make_cluster):
        cluster = make_cluster(make_chain_app(3, work=5e6))
        plan = FaultPlan(crashes=(ContainerCrash("s1", 0.2, 0.1),), rpc=RPC)
        inj = FaultInjector(plan)
        esc = _RecordingEscalator()

        class _Ctl:
            escalators = [esc]

        inj.arm(sim, cluster, controller=_Ctl())
        client = drive_cluster(sim, cluster, rate=600.0, duration=0.5, run_until=3.0)
        s1 = cluster.instances["s1"]
        assert inj.crashes_injected == 1
        assert inj.restarts_completed == 1
        assert s1.container.crashes == 1
        assert s1.inflight_killed == inj.inflight_failed > 0
        # No orphans: every live invocation either completed or was killed.
        for inst in cluster.instances.values():
            assert not inst._live, inst.spec.name
            assert (
                inst.requests_started
                == inst.requests_completed
                + inst.requests_failed
                + inst.inflight_killed
            ), inst.spec.name
        # The down window surfaced as client-visible errors, and traffic
        # after the restart completed normally again.
        assert client.stats.errored > 0
        assert client.stats.completed > 0
        assert client.stats.sent == client.stats.completed + client.stats.errored
        # Learned per-container controller state was reset on restart.
        assert esc.forgotten == ["s1"]
        stats = inj.fault_stats()
        assert stats["crashes"] == 1 and stats["inflight_failed"] > 0

    def test_restart_without_crash_rejected(self, small_cluster):
        with pytest.raises(RuntimeError, match="restart without crash"):
            small_cluster.instances["s0"].restart()


class TestStalls:
    def test_escalator_decides_gated_inside_windows(self, sim, small_cluster):
        escs = [_RecordingEscalator(), _RecordingEscalator()]

        class _Ctl:
            escalators = escs

        inj = FaultInjector(FaultPlan(stalls=(ControllerStall(1.0, 2.0),)))
        inj.arm(sim, small_cluster, controller=_Ctl())
        # Mimic PeriodicProcess: capture the (gated) bound method now.
        for t in (0.5, 1.5, 2.5):
            for esc in escs:
                sim.schedule_at(t, esc.decide)
        sim.run()
        assert [e.decided for e in escs] == [2, 2]
        assert inj.stalled_cycles == 2  # one suppressed cycle per escalator
        inj.disarm()
        assert all("decide" not in e.__dict__ for e in escs)

    def test_centralized_decide_gated(self, sim, small_cluster):
        ctl = _CentralController()
        inj = FaultInjector(FaultPlan(stalls=(ControllerStall(0.4, 0.8),)))
        inj.arm(sim, small_cluster, controller=ctl)
        for t in (0.2, 0.6, 1.0):
            sim.schedule_at(t, ctl._decide)
        sim.run()
        assert ctl.decided == 2 and inj.stalled_cycles == 1
        inj.disarm()
        assert "_decide" not in ctl.__dict__

    def test_null_controller_stall_is_noop(self, sim, small_cluster):
        inj = FaultInjector(FaultPlan(stalls=(ControllerStall(0.0, 1.0),)))
        inj.arm(sim, small_cluster, controller=None)  # nothing to gate
        assert inj._stall_targets == []
        inj.disarm()


class TestFaultFreeIdentity:
    def test_empty_plan_is_bit_identical_to_golden(self):
        """``FaultPlan()`` arms nothing: the committed (fault-free)
        golden fingerprint must be reproduced bit for bit."""
        from repro.experiments.harness import run_experiment
        from repro.validate.fingerprint import scenario_fingerprint
        from repro.validate.runner import load_goldens
        from repro.validate.scenarios import matrix

        (cell,) = matrix(
            "base", workloads=["chain"], controllers=["null"], scenarios=["steady"]
        )
        captured = {}

        def probe(sim, cluster):
            captured["sim"] = sim
            captured["cluster"] = cluster

        cfg = dataclasses.replace(cell.config, faults=FaultPlan())
        result = run_experiment(cfg, probe=probe)
        fp = scenario_fingerprint(result, captured["sim"], captured["cluster"])
        # The faults-present bookkeeping is inert...
        assert fp.pop("errors") == 0
        assert fp.pop("fault_stats") == {}
        # ...and everything else matches the faults=None golden exactly.
        assert fp == load_goldens()[cell.key]

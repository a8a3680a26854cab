"""Object recycling must not change simulation results at all.

Packet and event-handle pooling reuses *memory*, never *state*: every
acquired object has all fields overwritten, and release points only
touch objects nothing else retains.  These tests pin that claim the
hard way — full experiment cells run with the network's packet pool in
poison-debug mode (``PacketPool(debug=True)``, where any touch of a
released packet raises or misroutes loudly) must reproduce the
committed goldens bit-for-bit.

The fault cell matters most: packets die mid-flight there (loss drops,
crash-killed servers, superseded retries), which is exactly where a
wrong release point would recycle a still-referenced packet and corrupt
a later request.
"""

from functools import partial

import pytest

from repro.analysis.aggregate import run_cell
from repro.cluster import network
from repro.cluster.packet import PacketPool
from repro.experiments.harness import clear_profile_cache
from repro.validate.fingerprint import fingerprint_diff
from repro.validate.runner import load_goldens, run_cell_validated
from repro.validate.scenarios import fault_matrix
from tests.exec.test_packet_fastlane import GOLDEN, _cell_config


def _run_golden_cell(key: str) -> None:
    want = GOLDEN[key]
    workload = want.get("workload", key)
    clear_profile_cache()
    cell = run_cell(
        _cell_config(workload, **want.get("config", {})), jobs=1, keep_runs=True
    )
    assert cell.violation_volume == want["violation_volume"]
    assert cell.p98 == want["p98"]
    assert [
        r.summary.violation_volume for r in cell.runs
    ] == want["rep_violation_volumes"]


def _run_fault_cell(scenario: str) -> None:
    (cell,) = fault_matrix(controllers=["surgeguard"], scenarios=[scenario])
    clear_profile_cache()
    out = run_cell_validated(cell)
    assert not out.violations, out.violations
    golden = load_goldens()[cell.key]
    assert fingerprint_diff(golden, out.fingerprint) == []


class TestFastlaneGoldensModeIndependent:
    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(partial(_run_golden_cell, "chain"), id="chain"),
            pytest.param(
                partial(_run_fault_cell, "crash-during-surge"),
                id="crash-during-surge",
            ),
        ],
    )
    def test_goldens_hold_in_poison_debug_mode(self, run, monkeypatch):
        # Debug mode poisons every released packet, so this run doubles
        # as a proof that the production release points never give up a
        # packet something still reads: a use-after-release would raise
        # (context) or misroute (poisoned names) and break the golden.
        monkeypatch.setenv("REPRO_REPS", "3")
        monkeypatch.setattr(
            "repro.cluster.network.PacketPool", partial(PacketPool, debug=True)
        )
        assert network.PacketPool().debug
        run()

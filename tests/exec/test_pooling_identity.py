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

from repro.cluster import network
from repro.cluster.packet import PacketPool
from repro.experiments.harness import clear_profile_cache
from repro.validate.fingerprint import fingerprint_diff
from repro.validate.runner import load_goldens, run_cell_validated
from repro.validate.scenarios import matrix

#: The three chain seeds of the standard family plus the crash fault cell.
CELLS = matrix(
    "standard", workloads=["chain"], scenarios=["standard-s3", "standard-s4", "standard-s5"]
) + matrix("faults", controllers=["surgeguard"], scenarios=["crash-during-surge"])


class TestFastlaneGoldensModeIndependent:
    @pytest.mark.parametrize("cell", CELLS, ids=lambda c: c.key)
    def test_goldens_hold_in_poison_debug_mode(self, cell, monkeypatch):
        # Debug mode poisons every released packet, so this run doubles
        # as a proof that the production release points never give up a
        # packet something still reads: a use-after-release would raise
        # (context) or misroute (poisoned names) and break the golden.
        monkeypatch.setattr(
            "repro.cluster.network.PacketPool", partial(PacketPool, debug=True)
        )
        assert network.PacketPool().debug
        clear_profile_cache()
        out = run_cell_validated(cell)
        assert not out.violations, out.violations
        assert fingerprint_diff(load_goldens()[cell.key], out.fingerprint) == []

"""The differential scenario matrix against its committed goldens.

A single cheap cell runs in tier-1; the full matrix runs in its own CI
job (``python -m repro.validate``).
"""

import json

import pytest

from repro.validate.runner import (
    golden_path,
    load_goldens,
    run_matrix,
)
from repro.validate.scenarios import FAMILIES, matrix


def _keys(*families):
    return {c.key for family in families for c in matrix(family)}


class TestMatrixConstruction:
    def test_full_matrix_shape(self):
        for name, fam in FAMILIES.items():
            cells = matrix(name)
            assert len(cells) == (
                len(fam.workloads) * len(fam.controllers) * len(fam.scenarios)
            ), name
        # Keys are unique across the whole matrix.
        all_cells = [c for name in FAMILIES for c in matrix(name)]
        assert len(_keys(*FAMILIES)) == len(all_cells) == 99

    def test_filtering(self):
        cells = matrix("base", workloads=["chain"], controllers=["null", "surgeguard"])
        assert len(cells) == 2 * len(FAMILIES["base"].scenarios)
        assert {c.workload_family for c in cells} == {"chain"}

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError, match="unknown family"):
            matrix("nope")

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_filtering_and_rejection(self, family):
        fam = FAMILIES[family]
        workload, controller = fam.workloads[-1], fam.controllers[-1]
        cells = matrix(family, workloads=[workload], controllers=[controller])
        assert [c.key for c in cells] == [
            f"{workload}/{controller}/{s}" for s in fam.scenarios
        ]
        for axis in ("workloads", "controllers", "scenarios"):
            with pytest.raises(KeyError, match="'nope'"):
                matrix(family, **{axis: ["nope"]})
            # A name only other families own is just as unknown here.
            known = getattr(fam, axis)
            foreign = [
                n for f in FAMILIES.values() for n in getattr(f, axis) if n not in known
            ]
            if foreign:
                with pytest.raises(KeyError, match=repr(foreign[0])):
                    matrix(family, **{axis: foreign[:1]})

    def test_fault_matrix_shape(self):
        assert {c.workload_family for c in matrix("faults")} == {"chain"}
        # No other family carries faults.
        others = [c for f in FAMILIES if f != "faults" for c in matrix(f)]
        assert all(c.config.faults is None for c in others)

    def test_fault_cells_carry_plans_with_rpc(self):
        for cell in matrix("faults"):
            plan = cell.config.faults
            assert plan is not None and not plan.empty, cell.key
            assert plan.rpc is not None, cell.key
            if cell.scenario == "loss-burst":
                assert plan.loss_windows and not plan.crashes and not plan.stalls
            elif cell.scenario == "crash-during-surge":
                assert plan.crashes and not plan.loss_windows and not plan.stalls
            else:
                assert plan.stalls and not plan.loss_windows and not plan.crashes

    def test_horizontal_matrix_shape(self):
        for cell in matrix("horizontal"):
            cfg = cell.config
            assert cfg.replicas == 1, cell.key
            assert cfg.replica_capacity is not None and cfg.replica_capacity > 1
            assert cfg.lb_policy == "round_robin"
            assert cfg.spike_magnitude is not None  # surge-shaped traffic

    def test_zoo_matrix_shape(self):
        for cell in matrix("zoo"):
            cfg = cell.config
            if cell.scenario == "steady":
                assert cfg.spike_magnitude is None, cell.key
            else:
                assert cfg.spike_magnitude is not None, cell.key
            if cell.scenario == "replica-surge":
                assert cfg.replicas == 2, cell.key
                assert cfg.lb_policy == "round_robin", cell.key
            else:
                assert cfg.replicas == 1, cell.key

    def test_multinode_matrix_shape(self):
        for cell in matrix("multinode"):
            cfg = cell.config
            # jitter=0 is what the committed fingerprints were recorded at.
            assert cfg.network is not None and cfg.network.jitter == 0.0, cell.key
            assert cfg.n_nodes == 4, cell.key
            assert cfg.replicas == 1, cell.key
            if cell.scenario == "multinode-steady":
                assert cfg.spike_magnitude is None, cell.key
            else:
                assert cfg.spike_magnitude is not None, cell.key

    def test_standard_matrix_shape(self):
        cells = matrix("standard")
        assert len(cells) == 18
        for cell in cells:
            cfg = cell.config
            assert cell.controller == "surgeguard", cell.key
            assert cfg.seed == int(cell.scenario[-1]), cell.key
            assert cfg.n_nodes == (2 if "-2nodes-" in cell.scenario else 1), cell.key
            assert cfg.spike_magnitude == 1.75 and cfg.drain == 0.5, cell.key
        assert {c.config.seed for c in cells} == {3, 4, 5}
        assert {c.config.n_nodes for c in cells} == {1, 2}

    def test_scenario_shapes(self):
        by_key = {c.key: c for c in matrix("base", workloads=["chain"])}
        steady = by_key["chain/null/steady"].config
        spike = by_key["chain/null/rate-spike"].config
        surge = by_key["chain/null/latency-surge"].config
        assert steady.spike_magnitude is None and not steady.latency_surges
        assert spike.spike_magnitude == 2.0
        assert len(surge.latency_surges) == 1
        t0, t1, extra = surge.latency_surges[0]
        assert steady.warmup < t0 < t1 < steady.warmup + steady.duration
        assert extra > 0


class TestGoldenFile:
    def test_goldens_cover_the_full_matrix(self):
        assert set(load_goldens()) == _keys(*FAMILIES)

    def test_fault_goldens_record_fault_activity(self):
        goldens = load_goldens()
        for cell in matrix("faults"):
            fp = goldens[cell.key]
            stats = fp["fault_stats"]
            if cell.scenario == "loss-burst":
                assert stats["packets_dropped"] > 0, cell.key
            elif cell.scenario == "crash-during-surge":
                assert stats["crashes"] == 1, cell.key
            elif cell.controller != "null":
                # Stall cells: null has no decision loop to suppress.
                assert stats["stalled_cycles"] > 0, cell.key
        # Fault-free cells must NOT have grown fault keys (golden stability).
        for key in _keys(*FAMILIES) - _keys("faults"):
            assert "fault_stats" not in goldens[key], key
            assert "errors" not in goldens[key], key

    def test_horizontal_goldens_record_replica_scaling(self):
        goldens = load_goldens()
        for cell in matrix("horizontal"):
            fp = goldens[cell.key]
            # The autoscaler actually launched replicas inside the cell
            # (otherwise the family pins nothing about the LB tier)...
            assert fp["controller_actions"]["upscale_core"] > 0, cell.key
            # ...and the launched replicas appear as live endpoints.
            assert any("@" in name for name in fp["final_alloc"]), cell.key

    def test_zoo_goldens_record_controller_activity(self):
        goldens = load_goldens()
        for cell in matrix("zoo"):
            if cell.scenario != "steady":
                # Both plugins act on surge-shaped traffic in-cell —
                # otherwise the family pins nothing about the plugins.
                fp = goldens[cell.key]
                assert fp["controller_actions"]["upscale_core"] > 0, cell.key

    def test_goldens_report_zero_paper_invariant_breaks(self):
        # Structural sanity of the committed file itself: counts are
        # non-negative and conservation holds *within* each fingerprint.
        # (``completed`` counts only the measurement window, so it is
        # bounded by — not equal to — total ingress.)
        for key, fp in load_goldens().items():
            assert 0 < fp["completed"] <= fp["ingress"], key
            assert fp["outstanding"] >= 0, key
            assert fp["packets_delivered"] <= fp["packets_sent"], key
            assert fp["violation_volume"] >= 0.0, key
            assert fp["violation_duration"] >= 0.0, key
            assert 0.0 < fp["p98"] <= fp["p99"], key
            assert all(v > 0 for v in fp["final_alloc"].values()), key

    def test_golden_file_is_sorted_and_round_trips(self):
        text = golden_path().read_text()
        goldens = json.loads(text)
        assert list(goldens) == sorted(goldens)
        assert (
            json.dumps(goldens, indent=2, sort_keys=True) + "\n" == text
        ), "goldens.json not in canonical --update-golden format"


class TestMatrixTier1Cell:
    def test_one_cell_matches_golden(self):
        """Cheapest cell in tier-1: catches drift on every PR."""
        cells = matrix("base", workloads=["chain"], controllers=["null"], scenarios=["steady"])
        report = run_matrix(cells, verbose=False)
        assert report.ok, [
            (c.scenario.key, c.violations, c.diffs) for c in report.outcomes
        ]
        assert report.total_checks > 0


@pytest.mark.matrix
class TestGoldenUpdate:
    def test_update_golden_writes_filtered_set(self, tmp_path):
        cells = matrix("base", workloads=["chain"], controllers=["null"], scenarios=["steady"])
        out = tmp_path / "goldens.json"
        report = run_matrix(cells, update_golden=True, golden_file=out, verbose=False)
        assert report.updated_golden
        written = json.loads(out.read_text())
        assert list(written) == ["chain/null/steady"]
        # Comparing against the file we just wrote is clean.
        report2 = run_matrix(cells, golden_file=out, verbose=False)
        assert report2.ok

"""Determinism of the parallel repetition fan-out.

The acceptance bar for `repro.exec.pool`: ``run_cell(jobs=4)`` must be
**bit-identical** to ``run_cell(jobs=1)`` — same seeds, same trimmed
means — across workloads.  Exact ``==`` on floats is intentional;
``pytest.approx`` would hide scheduling-order divergence.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.aggregate import run_cell
from repro.exec.pool import ensure_picklable, run_reps
from repro.experiments.harness import clear_profile_cache, profile_targets
from repro.validate.scenarios import matrix

#: The two workload families of the determinism matrix: the registry
#: CHAIN app and a social-network fan-out topology.
WORKLOADS = ("chain", "socialNetwork")


def _cell_config(workload: str = "chain"):
    """The seed-3 standard cell: surges + SurgeGuard fast path."""
    (cell,) = matrix("standard", workloads=[workload], scenarios=["standard-s3"])
    return cell.config


@pytest.mark.slow
class TestBitIdenticalToSerial:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_jobs4_equals_jobs1_field_for_field(self, workload):
        cfg = _cell_config(workload)

        clear_profile_cache()
        serial = run_cell(cfg, reps=5, jobs=1, keep_runs=True)
        clear_profile_cache()
        parallel = run_cell(cfg, reps=5, jobs=4, keep_runs=True)

        assert serial.reps == parallel.reps == 5
        assert serial.controller == parallel.controller
        assert serial.violation_volume == parallel.violation_volume
        assert serial.p98 == parallel.p98
        assert serial.avg_cores == parallel.avg_cores
        assert serial.energy == parallel.energy
        for rs, rp in zip(serial.runs, parallel.runs):
            assert rs.config.seed == rp.config.seed
            assert rs.summary.violation_volume == rp.summary.violation_volume
            assert rs.avg_cores == rp.avg_cores
            assert rs.energy == rp.energy
            assert np.array_equal(rs.latency_trace, rp.latency_trace)


class TestRunReps:
    def test_seed_order_preserved(self):
        cfg = _cell_config()
        results = run_reps(cfg, 3, jobs=2)
        assert [r.config.seed for r in results] == [3, 4, 5]

    def test_explicit_targets_skip_worker_profiling(self):
        cfg = _cell_config()
        targets = profile_targets(cfg)
        results = run_reps(cfg, 2, jobs=2, targets=targets)
        for r in results:
            assert r.targets.qos_target == targets.qos_target

    def test_seed_count_mismatch_rejected(self):
        cfg = _cell_config()
        with pytest.raises(ValueError, match="seeds"):
            run_reps(cfg, 2, jobs=1, seeds=[1, 2, 3])

    def test_unpicklable_factory_fails_fast(self):
        cfg = dataclasses.replace(
            _cell_config(),
            controller_factory=lambda: None,  # closures cannot cross processes
        )
        with pytest.raises(TypeError, match="spec"):
            ensure_picklable(cfg)


class TestRunCellValidation:
    def test_trim_negative_rejected(self):
        cfg = _cell_config()
        with pytest.raises(ValueError, match="trim"):
            run_cell(cfg, reps=1, trim=-1)

    def test_high_trim_with_too_few_reps_rejected(self):
        cfg = _cell_config()
        with pytest.raises(ValueError, match="discard all"):
            run_cell(cfg, reps=4, trim=2)

    def test_default_trim_with_one_rep_still_allowed(self):
        # The fast one-rep path: trim=1 degrades to an untrimmed mean.
        cfg = _cell_config()
        cell = run_cell(cfg, reps=1)
        assert cell.reps == 1

    def test_jobs_zero_rejected(self):
        cfg = _cell_config()
        with pytest.raises(ValueError, match="jobs"):
            run_cell(cfg, reps=1, jobs=0)

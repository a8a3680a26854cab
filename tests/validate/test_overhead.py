"""Monitor overhead: armed runs must cost < 10 % wall time.

The monitors' design goal is "zero overhead disabled, provably cheap
enabled": disabled costs nothing because nothing is attached (class hot
paths are untouched — see ``test_disarm_restores_cluster_methods``), and
enabled cost rides only the network observer tap, the per-``set_cores``/
``set_frequency`` wrapper, and the per-window Escalator hook.

Timing tests are noisy, so this is marked ``bench`` (excluded from
tier-1, run in the CI bench job): the unarmed and armed variants run as
*interleaved pairs* and the gate is the **minimum paired ratio** —
background load can only inflate a pair's ratio, so the cleanest pair
is the honest estimate of monitor cost, while a real regression above
the ISSUE's 10 % budget inflates every pair and still fails.
"""

import time

import pytest

from repro.experiments.harness import clear_profile_cache, run_experiment
from repro.validate.monitors import MonitorSet
from repro.validate.scenarios import matrix

#: The seed-3 chain cell of the ``standard`` family.
_CFG = matrix("standard", workloads=["chain"], scenarios=["standard-s3"])[0].config

_REPS = 5


def _one_run(armed: bool) -> float:
    # Profiling is memoized per workload; clearing it every rep makes
    # both variants pay the identical full cost.
    clear_profile_cache()
    monitors = MonitorSet() if armed else None
    t0 = time.perf_counter()
    run_experiment(_CFG, monitors=monitors)
    elapsed = time.perf_counter() - t0
    if monitors is not None:
        assert monitors.ok
    return elapsed


@pytest.mark.bench
def test_armed_overhead_under_ten_percent():
    _one_run(armed=False)  # warm-up rep (import/alloc caches)
    ratios = []
    for _ in range(_REPS):
        baseline = _one_run(armed=False)
        armed = _one_run(armed=True)
        ratios.append(armed / baseline)
    ratio = min(ratios)
    print(
        "\nmonitor overhead: paired ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + f" — best {ratio:.3f}"
    )
    assert ratio <= 1.10, (
        f"every armed/unarmed pair ran >= {ratio:.3f}x the baseline "
        f"(pairs: {[round(r, 3) for r in ratios]}) — monitors exceed "
        f"the 10% budget"
    )

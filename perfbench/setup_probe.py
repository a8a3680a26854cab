"""One cold set-up of a workload, timed from outside by ``run.py``.

Runs in a fresh interpreter: imports, app build and the low-load
profiling pass on an empty profile cache.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.harness import profile_targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

cfg = WORKLOADS[sys.argv[1]].make(int(sys.argv[2]))
cfg.resolved_app()
profile_targets(cfg)

"""Rewrite ``counters.json``: the exact work counters of every workload's cell.

    python3 perfbench/counters.py

Events fired, scheduled and cancelled, packets sent and container
submits, per seed in ``SEEDS``.  They are identical on every host, so a
traced run (``run.py --trace 1``) whose seed is listed here reports
whether the program still does exactly this much work.  Rewrite the file
only in a change that means to alter the work per request.
"""

import json

import run

SEEDS = (1, 2, 3)


def main() -> None:
    run.use_program()
    from repro.experiments.harness import profile_targets
    from workloads import HELD_OUT_SEED, WORKLOADS

    out = {}
    for name, workload in WORKLOADS.items():
        out[name] = {}
        for seed in SEEDS + (HELD_OUT_SEED,):
            cfg = workload.make(seed)
            cell, tracer = run.traced_cell(cfg, profile_targets(cfg))
            counts, _, _ = tracer.tables()
            out[name][str(seed)] = run.exact_counters(cell, counts)
    (run.HERE / "counters.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

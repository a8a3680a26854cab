"""CLI: ``PYTHONPATH=src python -m repro.validate``.

Runs the differential scenario matrix with all invariant monitors armed
and compares fingerprints against the committed goldens.  Exit status 0
only when every invariant holds and every fingerprint matches; filters
that select no cell at all are an error (exit 2), never a vacuous pass.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Optional

from repro.validate.runner import run_matrix
from repro.validate.scenarios import (
    CONTROLLERS,
    FAULT_CONTROLLERS,
    FAULT_SCENARIOS,
    HORIZONTAL_CONTROLLERS,
    HORIZONTAL_SCENARIOS,
    MULTINODE_CONTROLLERS,
    MULTINODE_SCENARIOS,
    SCENARIOS,
    WORKLOADS,
    ZOO_CONTROLLERS,
    ZOO_SCENARIOS,
    fault_matrix,
    horizontal_matrix,
    multinode_matrix,
    scenario_matrix,
    zoo_matrix,
)

#: ``--family`` name -> (matrix builder, its controllers, its scenarios),
#: in matrix order.
_FAMILY_TABLE = {
    "base": (scenario_matrix, CONTROLLERS, SCENARIOS),
    "faults": (fault_matrix, FAULT_CONTROLLERS, FAULT_SCENARIOS),
    "horizontal": (horizontal_matrix, HORIZONTAL_CONTROLLERS, HORIZONTAL_SCENARIOS),
    "zoo": (zoo_matrix, ZOO_CONTROLLERS, ZOO_SCENARIOS),
    "multinode": (multinode_matrix, MULTINODE_CONTROLLERS, MULTINODE_SCENARIOS),
}

#: Cell-family names accepted by ``--family`` (in matrix order).
FAMILIES = tuple(_FAMILY_TABLE)


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description=(
            "Run the workload × controller × scenario validation matrix "
            "with runtime invariant monitors armed."
        ),
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="restrict to a workload family (repeatable)",
    )
    parser.add_argument(
        "--controller", action="append",
        choices=CONTROLLERS + HORIZONTAL_CONTROLLERS + ZOO_CONTROLLERS,
        help="restrict to a controller (repeatable)",
    )
    parser.add_argument(
        "--scenario", action="append",
        choices=tuple(
            dict.fromkeys(
                SCENARIOS
                + FAULT_SCENARIOS
                + HORIZONTAL_SCENARIOS
                + ZOO_SCENARIOS
                + MULTINODE_SCENARIOS
            )
        ),
        help="restrict to a traffic shape or fault scenario (repeatable)",
    )
    parser.add_argument(
        "--family", action="append", choices=FAMILIES,
        help="restrict to a cell family (repeatable)",
    )
    parser.add_argument(
        "--update-golden", action="store_true",
        help="rewrite the committed golden fingerprints from this run",
    )
    parser.add_argument(
        "--golden", type=Path, default=None,
        help="alternate golden file (default: the committed goldens.json)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list matrix cells and exit"
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    # The families share the filter flags: each family keeps the
    # controller / scenario names it recognises (a fault-only filter
    # yields no base cells and vice versa), and fault cells exist only
    # for the chain workload and its controller subset.
    families = FAMILIES if args.family is None else args.family
    cells = []
    empty = []  # why each selected family contributed no cell
    for family, (build, known_ctrls, known_shapes) in _FAMILY_TABLE.items():
        if family not in families:
            continue
        ctrls = shapes = None
        if args.controller is not None:
            ctrls = [c for c in args.controller if c in known_ctrls]
        if args.scenario is not None:
            shapes = [s for s in args.scenario if s in known_shapes]
        if family == "faults":
            if args.workload is not None and "chain" not in args.workload:
                empty.append("faults: cells exist only for --workload chain")
                continue
            got = build(controllers=ctrls, scenarios=shapes)
        else:
            got = build(workloads=args.workload, controllers=ctrls, scenarios=shapes)
        if not got:
            why = []
            if ctrls == []:
                why.append(
                    f"--controller {args.controller} names none of {list(known_ctrls)}"
                )
            if shapes == []:
                why.append(
                    f"--scenario {args.scenario} names none of {list(known_shapes)}"
                )
            empty.append(f"{family}: " + "; ".join(why))
        cells += got
    if not cells:
        print("no matrix cell matches the filters:", file=sys.stderr)
        for reason in empty:
            print(f"  {reason}", file=sys.stderr)
        return 2
    if args.list:
        for cell in cells:
            print(cell.key)
        return 0

    report = run_matrix(
        cells, update_golden=args.update_golden, golden_file=args.golden
    )
    return 0 if (report.ok or report.updated_golden) else 1


if __name__ == "__main__":
    sys.exit(main())

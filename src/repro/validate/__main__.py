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
from repro.validate.scenarios import FAMILIES, WORKLOADS, matrix


#: Filter flag of each :class:`~repro.validate.scenarios.Family` axis.
_FLAGS = {"workloads": "--workload", "controllers": "--controller", "scenarios": "--scenario"}


def _union(axis: str) -> tuple:
    """Every family's names on one axis, deduplicated, in matrix order."""
    return tuple(dict.fromkeys(n for fam in FAMILIES.values() for n in getattr(fam, axis)))


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
        "--controller", action="append", choices=_union("controllers"),
        help="restrict to a controller (repeatable)",
    )
    parser.add_argument(
        "--scenario", action="append", choices=_union("scenarios"),
        help="restrict to a traffic shape or fault scenario (repeatable)",
    )
    parser.add_argument(
        "--family", action="append", choices=tuple(FAMILIES),
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

    # The families share the filter flags: each family keeps the names
    # it recognises (a fault-only filter yields no base cells and vice
    # versa, and only chain has fault cells).
    filters = {
        "workloads": args.workload,
        "controllers": args.controller,
        "scenarios": args.scenario,
    }
    cells = []
    empty = []  # why each selected family contributed no cell
    for name, fam in FAMILIES.items():
        if args.family is not None and name not in args.family:
            continue
        picked = {
            axis: [n for n in given if n in getattr(fam, axis)]
            for axis, given in filters.items()
            if given is not None
        }
        got = matrix(name, **picked)
        if not got:
            why = [
                f"{_FLAGS[axis]} {filters[axis]} names none of {list(getattr(fam, axis))}"
                for axis, kept in picked.items()
                if not kept
            ]
            empty.append(f"{name}: " + "; ".join(why))
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

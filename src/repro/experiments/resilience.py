"""Resilience under injected faults: SurgeGuard vs Parties vs Null.

Not a paper figure — the companion experiment to :mod:`repro.faults`:
every fault scenario of the validation matrix (loss burst, mid-chain
crash during a surge, stalled decision loop) is run under the no-op
baseline, the strongest reactive baseline, and SurgeGuard, and the
violation volume is reported side by side with the *error rate* the RPC
resilience layer exposes.  The paper's qualitative claim transfers to
faults: the data-plane fast path keeps reacting when the control loop
is wedged, and faster backlog drain after a disruption shows up as both
fewer QoS violations and fewer timed-out requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.harness import run_experiment
from repro.validate.scenarios import matrix

__all__ = ["ResilienceRow", "run_resilience"]


@dataclass(frozen=True)
class ResilienceRow:
    scenario: str
    controller: str
    violation_volume: float
    #: Errored fraction of every injected request (whole run).
    error_rate: float
    errors: int
    completed: int
    p98: float
    rpc_retries: int
    #: Timeouts failed fast by the retry-budget storm brake.
    rpc_fail_fast: int


def run_resilience() -> List[ResilienceRow]:
    """Run the 3×3 fault grid and tabulate violations vs errors."""
    rows: List[ResilienceRow] = []
    for cell in matrix("faults"):
        res = run_experiment(cell.config)
        stats = res.fault_stats or {}
        rows.append(
            ResilienceRow(
                scenario=cell.scenario,
                controller=cell.controller,
                violation_volume=res.summary.violation_volume,
                error_rate=res.error_rate,
                errors=res.errors,
                completed=res.summary.count,
                p98=res.summary.p98,
                rpc_retries=stats.get("rpc_retries", 0),
                rpc_fail_fast=stats.get("rpc_fail_fast", 0),
            )
        )
    return rows


def main() -> None:  # pragma: no cover - exercised via run_all
    from repro.analysis.render import format_table

    rows = run_resilience()
    print(
        format_table(
            ["scenario", "controller", "viol-vol", "err-rate", "errors",
             "completed", "p98(ms)", "retries", "fail-fast"],
            [
                [
                    r.scenario,
                    r.controller,
                    f"{r.violation_volume:.4f}",
                    f"{r.error_rate:.3f}",
                    str(r.errors),
                    str(r.completed),
                    f"{r.p98 * 1e3:.1f}",
                    str(r.rpc_retries),
                    str(r.rpc_fail_fast),
                ]
                for r in rows
            ],
        )
    )


if __name__ == "__main__":  # pragma: no cover
    main()

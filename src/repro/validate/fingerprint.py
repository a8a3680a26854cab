"""Per-scenario metric fingerprints and their differential comparison.

A fingerprint is a small JSON-serializable dict capturing everything a
behavior-preserving refactor must keep bit-identical about one scenario
run: the headline metrics (violation volume, tail latency), the final
resource state (per-container allocations and frequencies), the event
and packet counts (any change in scheduling or RNG consumption shows up
here first), and the controller's action counters.

Comparison is **exact** — the simulator is deterministic and the fast
lane's contract is bit-identical results, so an ``==`` mismatch is
signal, not noise.  JSON round-trips float64 exactly via ``repr``, so
committed goldens compare clean.  When a cell does drift,
:func:`drift_summary` says whether only float rounding moved or a
discrete outcome (an event count, a controller action, an allocation)
changed with it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.harness import ExperimentResult

__all__ = ["drift_summary", "fingerprint_diff", "scenario_fingerprint"]


def scenario_fingerprint(result: ExperimentResult, sim, cluster) -> dict:
    """Extract the committed-golden fingerprint of one scenario run."""
    stats = result.controller_stats
    fp = {
        "violation_volume": result.summary.violation_volume,
        "violation_duration": result.summary.violation_duration,
        "p98": result.summary.p98,
        "p99": result.summary.p99,
        "completed": result.summary.count,
        "outstanding": result.outstanding,
        "ingress": cluster.ingress_count,
        "events_fired": sim.events_fired,
        "packets_sent": cluster.network.packets_sent,
        "packets_delivered": cluster.network.packets_delivered,
        "final_alloc": cluster.allocations(),
        "final_freq": cluster.frequencies(),
        "controller_actions": {
            "decision_cycles": stats.decision_cycles,
            "upscale_core": stats.upscale_core_actions,
            "downscale_core": stats.downscale_core_actions,
            "freq_up": stats.freq_up_actions,
            "freq_down": stats.freq_down_actions,
        },
        "fast_path_packets": result.fast_path_packets,
        "fast_path_violations": result.fast_path_violations,
    }
    if getattr(result.config, "faults", None) is not None:
        # Added only for fault cells so pre-faults goldens stay
        # byte-identical (fingerprint_diff flags absent keys).
        fp["errors"] = result.errors
        fp["fault_stats"] = dict(result.fault_stats or {})
    return fp


def _flatten(prefix: str, value) -> List[tuple]:
    if isinstance(value, dict):
        out: List[tuple] = []
        for k in sorted(value):
            out.extend(_flatten(f"{prefix}.{k}" if prefix else str(k), value[k]))
        return out
    return [(prefix, value)]


def fingerprint_diff(golden: dict, observed: dict) -> List[str]:
    """Field-by-field exact differences, as ``path: golden != observed``.

    Empty list = identical.  Both sides are flattened to dotted paths so
    a drifted allocation reads ``final_alloc.frontend: 2.0 != 3.0``
    instead of a whole-dict dump.
    """
    g = dict(_flatten("", golden))
    o = dict(_flatten("", observed))
    diffs = []
    for path in sorted(set(g) | set(o)):
        if path not in g:
            diffs.append(f"{path}: <absent in golden> != {o[path]!r}")
        elif path not in o:
            diffs.append(f"{path}: {g[path]!r} != <absent in run>")
        elif g[path] != o[path]:
            diffs.append(f"{path}: {g[path]!r} != {o[path]!r}")
    return diffs


def _is_discrete(path: str, value) -> bool:
    # Counts are ints; allocations and frequencies are floats, but each
    # one is a controller's setting, so any move is a decision.
    return isinstance(value, int) or path.startswith(("final_alloc.", "final_freq."))


def drift_summary(golden: dict, observed: dict) -> str:
    """One line sorting a drifted cell into rounding or decision drift.

    Gives the largest relative change among the float fields both sides
    hold, the names of the discrete fields that moved, and a verdict:
    ``rounding only`` when no discrete field moved, else ``decision
    changed``.  Fields present on one side only are left to
    :func:`fingerprint_diff`.
    """
    g = dict(_flatten("", golden))
    o = dict(_flatten("", observed))
    moved, rel = [], 0.0
    for path in sorted(set(g) & set(o)):
        a, b = g[path], o[path]
        if a == b:
            continue
        if _is_discrete(path, a) or _is_discrete(path, b):
            moved.append(path)
        else:
            rel = max(rel, abs(b - a) / abs(a) if a else float("inf"))
    verdict = "decision changed" if moved else "rounding only"
    return (
        f"max float rel change {rel:.3g}; "
        f"discrete fields moved: {', '.join(moved) or 'none'}; {verdict}"
    )

"""Declarative task-graph specifications.

An application is a DAG of services (paper Fig. 2).  Each service has a
pre-RPC compute phase, zero or more downstream edges (each with its own
connection pool, per §II-A), an optional post-RPC compute phase, and a
fan-out mode — ``sequential`` (Thrift-style synchronous calls, one after
another) or ``parallel`` (gRPC-async style, all children at once).

Work is expressed in **cycles** so DVFS has its physical meaning: a
300k-cycle handler takes 187.5 µs at 1.6 GHz and 93.75 µs at 3.2 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["AppSpec", "EdgeSpec", "ServiceSpec", "WorkDist"]

SEQUENTIAL = "sequential"
PARALLEL = "parallel"


@dataclass(frozen=True)
class WorkDist:
    """A per-request compute-work distribution, in cycles.

    Parameters
    ----------
    mean_cycles:
        Mean work per request.  Zero means the phase is skipped.
    dist:
        ``"deterministic"``, ``"exponential"``, or ``"lognormal"``.
    cv:
        Coefficient of variation for the lognormal shape (ignored
        otherwise).  Microservice handlers are fairly regular, so the
        workloads default to lognormal with cv≈0.25.
    """

    mean_cycles: float
    dist: str = "lognormal"
    cv: float = 0.25

    def __post_init__(self) -> None:
        if self.mean_cycles < 0:
            raise ValueError("mean_cycles must be non-negative")
        if self.dist not in ("deterministic", "exponential", "lognormal"):
            raise ValueError(f"unknown distribution {self.dist!r}")
        if self.cv < 0:
            raise ValueError("cv must be non-negative")
        if self.dist == "lognormal" and self.mean_cycles != 0.0:
            # Lognormal parameterized by mean and cv.  ``(mu, sigma)`` are
            # derived once here, not per draw; they are plain attributes,
            # not dataclass fields, so equality and repr are unchanged.
            cv = max(self.cv, 1e-9)
            sigma2 = np.log1p(cv * cv)
            object.__setattr__(self, "_mu", np.log(self.mean_cycles) - 0.5 * sigma2)
            object.__setattr__(self, "_sigma", np.sqrt(sigma2))

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one request's work in cycles."""
        m = self.mean_cycles
        if m == 0.0 or self.dist == "deterministic":
            return m
        if self.dist == "exponential":
            return float(rng.exponential(m))
        return float(rng.lognormal(self._mu, self._sigma))

    @property
    def mean_seconds_at(self) -> "WorkDist":  # pragma: no cover - doc helper
        return self

    def mean_time(self, frequency_hz: float) -> float:
        """Mean uncontended execution time at a given frequency."""
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.mean_cycles / frequency_hz


#: A zero-work phase (skipped entirely by the invocation machinery).
NO_WORK = WorkDist(0.0, "deterministic")


@dataclass(frozen=True)
class EdgeSpec:
    """A downstream RPC edge with its connection-pool size.

    ``pool_size=None`` selects the connection-per-request model.
    """

    child: str
    pool_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.pool_size is not None and self.pool_size < 1:
            raise ValueError("pool_size must be >= 1 or None")


@dataclass(frozen=True)
class ServiceSpec:
    """One service of an application."""

    name: str
    pre_work: WorkDist
    children: Tuple[EdgeSpec, ...] = ()
    post_work: WorkDist = NO_WORK
    fanout: str = SEQUENTIAL
    #: Initial core allocation (the paper searches for the steady-state
    #: optimum; workload modules embed the result of that search).
    initial_cores: float = 2.0

    def __post_init__(self) -> None:
        if self.fanout not in (SEQUENTIAL, PARALLEL):
            raise ValueError(f"unknown fanout mode {self.fanout!r}")
        if self.initial_cores <= 0:
            raise ValueError("initial_cores must be positive")
        seen = set()
        for e in self.children:
            if e.child in seen:
                raise ValueError(f"duplicate child {e.child!r} in {self.name!r}")
            seen.add(e.child)


@dataclass(frozen=True)
class AppSpec:
    """A complete application: services, entry point, and QoS target."""

    name: str
    action: str
    services: Tuple[ServiceSpec, ...]
    root: str
    #: End-to-end latency target in seconds (the wrk2 ``-qos`` knob; the
    #: harness may override it from profiling, like the artifact does).
    qos_target: float
    rpc_framework: str = "thrift"
    description: str = ""

    def __post_init__(self) -> None:
        names = [s.name for s in self.services]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate service names in app {self.name!r}")
        by_name = {s.name: s for s in self.services}
        if self.root not in by_name:
            raise ValueError(f"root {self.root!r} not among services")
        for s in self.services:
            for e in s.children:
                if e.child not in by_name:
                    raise ValueError(f"{s.name!r} references unknown child {e.child!r}")
        if self.qos_target <= 0:
            raise ValueError("qos_target must be positive")
        self._check_acyclic(by_name)

    def _check_acyclic(self, by_name: Dict[str, ServiceSpec]) -> None:
        state: Dict[str, int] = {}  # 0=visiting, 1=done

        def visit(name: str, stack: Tuple[str, ...]) -> None:
            st = state.get(name)
            if st == 1:
                return
            if st == 0:
                raise ValueError(f"task graph cycle through {name!r}: {stack}")
            state[name] = 0
            for e in by_name[name].children:
                visit(e.child, stack + (name,))
            state[name] = 1

        visit(self.root, ())

    # ------------------------------------------------------------- topology
    def service(self, name: str) -> ServiceSpec:
        """Look up a service by name."""
        for s in self.services:
            if s.name == name:
                return s
        raise KeyError(name)

    @property
    def service_names(self) -> List[str]:
        """Service names in declaration (roughly topological) order."""
        return [s.name for s in self.services]

    def depths(self) -> Dict[str, int]:
        """Depth of each *reachable* service (root = 1, like the paper)."""
        by_name = {s.name: s for s in self.services}
        depth = {self.root: 1}
        frontier = [self.root]
        while frontier:
            nxt: List[str] = []
            for name in frontier:
                for e in by_name[name].children:
                    d = depth[name] + 1
                    if e.child not in depth or d > depth[e.child]:
                        depth[e.child] = d
                        nxt.append(e.child)
            frontier = nxt
        return depth

    @property
    def depth(self) -> int:
        """Task-graph depth (longest root-to-leaf path, counted in services)."""
        return max(self.depths().values())

    def downstream_of(self, name: str) -> List[str]:
        """All services reachable strictly below ``name``."""
        by_name = {s.name: s for s in self.services}
        out: List[str] = []
        seen = {name}
        frontier = [name]
        while frontier:
            nxt: List[str] = []
            for n in frontier:
                for e in by_name[n].children:
                    if e.child not in seen:
                        seen.add(e.child)
                        out.append(e.child)
                        nxt.append(e.child)
            frontier = nxt
        return out

    @property
    def uses_fixed_pools(self) -> bool:
        """True if any edge uses a fixed-size threadpool."""
        return any(
            e.pool_size is not None for s in self.services for e in s.children
        )

    @property
    def threadpool_label(self) -> str:
        """Table III's "Threadpool Size" column value."""
        sizes = {e.pool_size for s in self.services for e in s.children}
        sizes.discard(None)
        if not sizes:
            return "inf"
        return str(max(sizes))  # type: ignore[arg-type]

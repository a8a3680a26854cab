"""Traced run: spans around each layer's public entry points.

Spans come from two sources, both outside the program:

* the engine's public ``Simulator.trace_hook``: each event dispatch is
  one span, named after the module of its callback.  While traced,
  ``Simulator.run`` is driven through the public ``next_event_time`` and
  ``step`` so a dispatch span ends when its callback returns; the time
  the loop spends between dispatches is the engine's own;
* class-level wrappers around ``Network.send``, ``Container.submit``,
  ``ServiceInstance.handle_packet``, ``ConnectionPool.acquire``,
  ``ReplicaSet.resolve``, ``FirstResponder.on_packet``,
  ``Escalator.decide`` and the harness's ``summarize``.

The wrappers must be installed before the cluster is built, because
``Cluster`` and ``FirstResponder`` capture bound methods at build and
attach time.  Spans stay in memory (compact arrays) until the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import math
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.experiments.harness as harness
from repro.cluster.cluster import CLIENT
from repro.cluster.container import Container
from repro.cluster.invocation import ServiceInstance
from repro.cluster.loadbalancer import ReplicaSet
from repro.cluster.network import Network
from repro.cluster.threadpool import ConnectionPool
from repro.core.escalator import Escalator
from repro.core.firstresponder import FirstResponder
from repro.sim.engine import Simulator

RUN = "Simulator.run"

#: Wrapped entry point -> (owner, attribute, layer).
ENTRY_POINTS: Dict[str, Tuple[object, str, str]] = {
    "Network.send": (Network, "send", "cluster.network"),
    "Container.submit": (Container, "submit", "cluster.container"),
    "ServiceInstance.handle_packet": (ServiceInstance, "handle_packet", "cluster.invocation"),
    "ConnectionPool.acquire": (ConnectionPool, "acquire", "cluster.threadpool"),
    "ReplicaSet.resolve": (ReplicaSet, "resolve", "cluster.loadbalancer"),
    "FirstResponder.on_packet": (FirstResponder, "on_packet", "core.firstresponder"),
    "Escalator.decide": (Escalator, "decide", "core.escalator"),
    "summarize": (harness, "summarize", "metrics"),
}

#: Packages whose layers are named by two module components.
_TWO_LEVEL = ("cluster", "core", "experiments")


def module_layer(module: str) -> str:
    """``repro.cluster.network`` -> ``cluster.network``; ``repro.sim.process`` -> ``sim``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return module
    depth = 2 if parts[1] in _TWO_LEVEL else 1
    return ".".join(parts[1 : 1 + depth])


def _action_total(stats) -> int:
    return (
        stats.upscale_core_actions
        + stats.downscale_core_actions
        + stats.freq_up_actions
        + stats.freq_down_actions
    )


class Tracer:
    """Span store plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # Counts taken at the wrapped boundaries.
        self.jobs_at_submit = 0
        self.acquires_queued = 0
        self.send_pairs: Dict[Tuple[str, str], int] = {}
        self.escalator_actions = 0
        self.first_responders: set = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # ------------------------------------------------------------ wrappers
    def _wrap(
        self,
        name: str,
        orig: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        nid = self.name_id(name)
        N, P, S, E, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        # Opening a span is inlined here and in the engine hook below: a
        # method call per span would add to the tracing overhead.
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(N)
            N.append(nid)
            P.append(stack[-1])
            E.append(0.0)
            stack.append(i)
            S.append(clock())
            try:
                return orig(*args, **kwargs)
            finally:
                E[i] = clock()
                stack.pop()
                if after is not None:
                    after(args)

        return wrapper

    def _before_submit(self, args) -> None:
        self.jobs_at_submit += args[0].active_jobs

    def _before_acquire(self, args) -> None:
        if args[0].free == 0:
            self.acquires_queued += 1

    def _after_send(self, args) -> None:
        pkt = args[1]
        key = (pkt.src, pkt.dst)
        pairs = self.send_pairs
        pairs[key] = pairs.get(key, 0) + 1

    def _before_on_packet(self, args) -> None:
        self.first_responders.add(args[0])

    def _before_decide(self, args) -> None:
        self.escalator_actions -= _action_total(args[0].stats)

    def _after_decide(self, args) -> None:
        self.escalator_actions += _action_total(args[0].stats)

    def _traced_run(self, orig_run: Callable) -> Callable:
        run_id = self.name_id(RUN)
        N, P, S, E, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        dispatch_ids: Dict[str, int] = {}

        def hook(_t, fn, _args):
            module = getattr(fn, "__module__", None) or type(fn).__module__
            nid = dispatch_ids.get(module)
            if nid is None:
                nid = dispatch_ids[module] = self.name_id("dispatch:" + module)
            i = len(N)
            N.append(nid)
            P.append(stack[-1])
            E.append(0.0)
            stack.append(i)
            S.append(clock())

        def run(sim, until=None, max_events=None):
            if max_events is not None:
                raise ValueError("the traced loop does not take max_events")
            limit = math.inf if until is None else until
            i = len(N)
            N.append(run_id)
            P.append(stack[-1])
            E.append(0.0)
            stack.append(i)
            S.append(clock())
            sim.trace_hook = hook
            try:
                next_time, step = sim.next_event_time, sim.step
                while True:
                    t = next_time()
                    if t > limit or t == math.inf:
                        break
                    step()
                    E[stack.pop()] = clock()
                # Nothing is due by ``until`` any more: the untraced loop
                # only advances the clock to it.
                orig_run(sim, until)
            finally:
                sim.trace_hook = None
                E[i] = clock()
                stack.pop()

        return run

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        hooks = {
            "Network.send": (None, self._after_send),
            "Container.submit": (self._before_submit, None),
            "ConnectionPool.acquire": (self._before_acquire, None),
            "FirstResponder.on_packet": (self._before_on_packet, None),
            "Escalator.decide": (self._before_decide, self._after_decide),
        }
        saved = [(Simulator, "run", Simulator.run)]
        Simulator.run = self._traced_run(Simulator.run)
        try:
            for name, (owner, attr, _layer) in ENTRY_POINTS.items():
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                before, after = hooks.get(name, (None, None))
                setattr(owner, attr, self._wrap(name, orig, before, after))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # ------------------------------------------------------------- results
    def layer_of(self, name: str) -> str:
        if name == RUN:
            return "sim"
        if name.startswith("dispatch:"):
            return module_layer(name[len("dispatch:") :])
        if name in ENTRY_POINTS:
            return ENTRY_POINTS[name][2]
        return name

    def tables(self) -> Tuple[Dict[str, int], Dict[str, float], float]:
        """(span count per name, self seconds per layer, least self time)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        counts = np.bincount(names, minlength=k)
        self_by_name = np.bincount(names, weights=self_t, minlength=k)
        per_layer: Dict[str, float] = {}
        for nid, name in enumerate(self.names):
            layer = self.layer_of(name)
            per_layer[layer] = per_layer.get(layer, 0.0) + float(self_by_name[nid])
        count_by_name = {name: int(counts[nid]) for nid, name in enumerate(self.names)}
        least = float(self_t.min()) if len(self_t) else 0.0
        return count_by_name, per_layer, least

    def dispatches(self, counts: Dict[str, int]) -> int:
        return sum(c for name, c in counts.items() if name.startswith("dispatch:"))

    def send_split(self, network: Network) -> Tuple[int, int]:
        """(inter-node sends, client ingress sends), by the network's own
        rule: a hop is intra-node only when both ends share a node."""
        inter = ingress = 0
        for (src, dst), n in self.send_pairs.items():
            a, b = network.endpoint_node(src), network.endpoint_node(dst)
            if a is None or a is not b:
                inter += n
            if src == CLIENT:
                ingress += n
        return inter, ingress

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

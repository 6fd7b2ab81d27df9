"""Per-layer spans recorded from outside the program.

A Tracer replaces public functions and methods of the etsgd layers with
wrappers that time each call.  Spans are aggregated in memory per name
(calls, total seconds, self seconds) rather than kept one by one: a
single run makes hundreds of thousands of calls.  A span's self time is
its duration minus the time of the spans it encloses, so summing self
time over a layer's spans splits a run's wall time between layers.  Time
a wrapper spends outside its own timer lands in the enclosing span's
self time; the traced run's wall time over the untraced one reports
that overhead.

Layers are the etsgd modules and a span name is "<layer>.<what>".
topology and rngs are not wrapped: they do set-up only, which falls
into the harness self time that calls them.
"""
from __future__ import annotations

import functools
import heapq
from time import perf_counter
from types import SimpleNamespace

LAYERS = ("objectives", "node", "baselines", "schedules", "simnet", "consistency", "harness")


class Tracer:
    """Install with install(), run the program, read the counters, then restore()."""

    def __init__(self):
        # name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.events = 0
        self._open: list[float] = []  # child seconds of each open span
        self._undo: list[tuple] = []

    def span(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - children

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str) -> None:
        self._replace(owner, attr, self.span(name, getattr(owner, attr)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self) -> None:
        from etsgd import baselines, consistency, harness, node, objectives, schedules, simnet

        for cls in (objectives.Logistic, objectives.MeanQuadratic):
            self.patch(cls, "grad", "objectives.grad")
            self.patch(cls, "loss", "objectives.eval")
        self.patch(objectives.Logistic, "accuracy", "objectives.eval")
        for fn in ("synthetic_blobs", "gaussian_cloud", "load_idx"):
            self.patch(harness, fn, "objectives.data")

        self.patch(node.ComputeNode, "advance", "node.advance")
        self.patch(node.ComputeNode, "check_sync", "node.check_sync")
        self.patch(node.ComputeNode, "on_receive", "node.receive")
        self.patch(baselines.ThresholdNode, "advance", "baselines.advance")
        self.patch(baselines.ThresholdNode, "check_sync", "baselines.check_sync")
        self.patch(baselines.ThresholdNode, "on_receive", "baselines.receive")

        for module in (schedules, baselines, harness):
            self.patch(module, "step_size", "schedules.step_size")

        self.patch(consistency, "verify_round_delay", "consistency.round_verify")

        for fn in ("run_experiment", "build_task", "build_topology", "planned_budgets"):
            self.patch(harness, fn, f"harness.{fn}")

        run = simnet.Simulation.run

        def run_with_traced_hook(sim, round_hook=None):
            if round_hook is not None:
                round_hook = self.span("harness.round_hook", round_hook)
            return run(sim, round_hook)

        self._replace(simnet.Simulation, "run", self.span("simnet.run", run_with_traced_hook))

        def heappop(heap):
            self.events += 1
            return heapq.heappop(heap)

        self._replace(simnet, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=heappop))

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def self_us_per_call(self, name: str) -> float:
        calls = self.calls(name)
        return self.self_s(name) / calls * 1e6 if calls else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for name, s in self.spans.items() if name.split(".")[0] == layer)

"""Deterministic discrete-event simulator for message-passing SGD nodes.

Virtual time is a float in milliseconds.  The event queue is a heap keyed
by (time, sequence number), so ties resolve by insertion order and a run
is a pure function of its seed.  Two event kinds exist: a node finishing
one gradient step, and a message delivery.  A node blocked at its
synchronization checkpoint waits without an event; it resumes within the
delivery that unblocks it, so waiting costs no virtual time.

Latencies are sampled per concern from independent streams: one uniform
draw per gradient step (scaled by the node's straggler factor) and one per
message per link.  Each stream is drawn in blocks (rngs.uniform_draws) and
consumed in event order, which gives the floats one numpy call per draw
would give.  Delivery is reliable but not ordered; a slow message can be
overtaken by a later fast one.

The engine steps anything that implements Driver; ComputeNode and the
threshold baseline's ThresholdNode both do.

Every event writes trace records, so the loop keeps their cost low.  A
record is built with tuple.__new__(TraceRecord, fields), one C call in
place of the NamedTuple constructor's Python frame.  Detail strings are
made once per run, one per sender ("from=i") and one per outbox size
("msgs=k"), and shared by every record that carries them.  run() binds
heapq's functions as locals when it starts, but heapq itself must stay a
module-level name looked up then: perfbench counts events by replacing
simnet.heapq.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Callable, NamedTuple, Protocol

from .node import Message
from .rngs import COMPUTE_STREAM, NETWORK_STREAM, stream, uniform_draws
from .topology import Topology, neighbors, read_text

STEP_DONE = 0
DELIVER = 1

# every record kind the engine writes; Trace.read rejects any other
EVENTS = frozenset(("grad", "round_end", "apply", "wait_enter", "wait_exit"))


class Driver(Protocol):
    """What the engine touches on a node; round_index and step_in_round also label the trace."""

    round_index: int
    step_in_round: int

    @property
    def finished(self) -> bool:
        """True once the node has no step left to take."""

    def check_sync(self) -> bool:
        """True when the node may step now; False parks it until a delivery."""

    def advance(self) -> tuple[int, int, bool, list[tuple[int, Message]]]:
        """Take one step: (round, step, round_closed, [(neighbor, message), ...]).

        The outbox holds at most one message per neighbor.
        """

    def on_receive(self, msg: Message) -> None:
        """Apply one delivered message."""


class SimError(ValueError):
    """Raised for invalid simulation parameters."""


class DeadlockError(RuntimeError):
    """Event queue drained while some node still had work left.

    The scheduled protocol cannot deadlock on a connected topology with a
    uniform round count, so this firing indicates a defect in a node
    implementation or a disconnected/partial setup.
    """

    def __init__(self, blocked):
        self.blocked = blocked
        parts = ", ".join(
            f"node {b['node']} at round {b['round']} step {b['step']} received={b['received']}"
            for b in blocked
        )
        super().__init__(f"no runnable events left; blocked: {parts}")


@dataclass
class DelayModel:
    """Uniform latency ranges in milliseconds: per gradient step and per message."""

    compute: tuple[float, float] = (0.1, 1.0)
    network: tuple[float, float] = (0.1, 1.5)

    def __post_init__(self):
        for lo, hi in (self.compute, self.network):
            if lo < 0 or hi < lo:
                raise SimError(f"bad latency range ({lo}, {hi})")


class TraceRecord(NamedTuple):
    """One simulator observation; step < 0 means the column is not applicable."""

    time: float
    node: int
    kind: str
    round_index: int
    step: int
    detail: str


@dataclass
class Trace:
    """Recorded run: topology summary plus records in processing order."""

    n: int
    edges: tuple[tuple[int, int], ...]
    records: list[TraceRecord] = field(default_factory=list)

    def topology(self) -> Topology:
        return Topology(self.n, frozenset(self.edges))

    def write(self, path: str | Path) -> None:
        lines = [f"# nodes {self.n}"]
        lines.extend(f"# edge {u} {v}" for u, v in sorted(self.edges))
        lines.append("time,node,event,round,h,detail")
        for r in self.records:
            step = str(r.step) if r.step >= 0 else ""
            lines.append(f"{r.time!r},{r.node},{r.kind},{r.round_index},{step},{r.detail}")
        Path(path).write_text("\n".join(lines) + "\n")

    @staticmethod
    def read(path: str | Path) -> "Trace":
        n = None
        edges = []
        records = []
        last = 0.0
        for lineno, raw in enumerate(read_text(path, SimError).splitlines(), start=1):
            if raw.startswith("# nodes "):
                if n is not None:
                    raise SimError(f"{path}:{lineno}: nodes: a second '# nodes' header")
                n = _number(path, lineno, "nodes", int, raw[len("# nodes "):].strip())
                if n < 1:
                    raise SimError(f"{path}:{lineno}: nodes: expected at least 1, got {n}")
            elif not raw or raw.startswith("time,") or (
                raw.startswith("#") and not raw.startswith("# edge ")
            ):
                continue
            elif n is None:
                raise SimError(f"{path}:{lineno}: nodes: the '# nodes' header must come first")
            elif raw.startswith("# edge "):
                ends = raw.split()[2:]
                if len(ends) != 2:
                    raise SimError(f"{path}:{lineno}: edge: expected two node ids, got {ends}")
                u, v = (_number(path, lineno, "edge", int, e) for e in ends)
                if not 0 <= u < v < n:
                    raise SimError(
                        f"{path}:{lineno}: edge: expected node ids u < v below {n}, got {u} {v}"
                    )
                edges.append((u, v))
            else:
                parts = raw.split(",", 5)
                if len(parts) != 6:
                    raise SimError(f"{path}:{lineno}: malformed trace line {raw!r}")
                t, node, kind, rnd, step, detail = parts
                if kind not in EVENTS:
                    raise SimError(f"{path}:{lineno}: event: unknown event {kind!r}")
                time = _number(path, lineno, "time", float, t)
                # virtual time starts at 0 and never goes back; NaN fails too
                if not last <= time < math.inf:
                    raise SimError(
                        f"{path}:{lineno}: time: expected a finite time not before {last!r}, "
                        f"got {t!r}"
                    )
                last = time
                node_id = _number(path, lineno, "node", int, node)
                if not 0 <= node_id < n:
                    raise SimError(
                        f"{path}:{lineno}: node: expected a node id below {n}, got {node!r}"
                    )
                records.append(
                    TraceRecord(
                        time,
                        node_id,
                        kind,
                        _number(path, lineno, "round", int, rnd),
                        _number(path, lineno, "h", int, step) if step else -1,
                        detail,
                    )
                )
        if n is None:
            raise SimError(f"{path}: missing '# nodes' header")
        return Trace(n, tuple(edges), records)


def _number(path, lineno: int, field: str, convert, text: str):
    """One numeric trace field, or a SimError naming its file, line and column."""
    try:
        return convert(text)
    except ValueError:
        raise SimError(
            f"{path}:{lineno}: {field}: expected {convert.__name__}, got {text!r}"
        ) from None


@dataclass
class SimResult:
    trace: Trace
    duration_ms: float
    node_finish_ms: list[float]
    rounds_completed: list[int]
    messages_sent: int

    @property
    def mean_finish_ms(self) -> float:
        return sum(self.node_finish_ms) / len(self.node_finish_ms)


class Simulation:
    """One configured run.  Build, optionally inject stragglers, then run() once."""

    def __init__(
        self,
        nodes: list[Driver],
        topo: Topology,
        delay_model: DelayModel | None = None,
        seed: int = 0,
    ):
        if len(nodes) != topo.n:
            raise SimError(f"{len(nodes)} nodes for a {topo.n}-node topology")
        self.nodes = list(nodes)
        self.topo = topo
        self.delays = delay_model if delay_model is not None else DelayModel()
        self._compute_rng = stream(seed, COMPUTE_STREAM)
        self._network_rng = stream(seed, NETWORK_STREAM)
        self._factors = {i: 1.0 for i in range(topo.n)}
        self._neighbors = {i: neighbors(topo, i) for i in range(topo.n)}
        self._ran = False

    def set_straggler(self, node: int, factor: float) -> None:
        """Scale every later compute-latency draw of one node."""
        if node not in self._factors:
            raise SimError(f"unknown node id {node}")
        if factor < 1.0:
            raise SimError(f"straggler factor must be >= 1, got {factor}")
        self._factors[node] = factor

    def run(self, round_hook: Callable | None = None) -> SimResult:
        """Drain the event queue and return the recorded run.

        round_hook(node, round_index, now) fires after each completed round,
        once that round's messages are already in flight.
        """
        if self._ran:
            raise SimError("a Simulation object runs only once")
        self._ran = True

        n = self.topo.n
        nodes = self.nodes
        factors = [self._factors[i] for i in range(n)]
        heap: list[tuple] = []
        # read from the module at each run: perfbench counts events by patching simnet.heapq
        heappush, heappop = heapq.heappush, heapq.heappop
        seq = count().__next__
        waiting = [False] * n
        finish = [0.0] * n
        sent = 0
        delivered = 0
        records: list[TraceRecord] = []
        append = records.append
        new = tuple.__new__
        # every apply from one sender, and every round_end of one outbox size, shares one
        # detail string; an outbox holds at most one message per neighbor
        applied_from = [f"from={i}" for i in range(n)]
        closed_with = [f"msgs={k}" for k in range(n)]
        now = 0.0
        compute_delay = uniform_draws(self._compute_rng, *self.delays.compute).__next__
        network_delay = uniform_draws(self._network_rng, *self.delays.network).__next__

        def start_or_wait(node_id, node, now):
            if node.finished:
                finish[node_id] = now
            elif node.check_sync():
                if waiting[node_id]:
                    waiting[node_id] = False
                    append(new(TraceRecord, (
                        now, node_id, "wait_exit", node.round_index, node.step_in_round, ""
                    )))
                heappush(heap, (now + compute_delay() * factors[node_id], seq(), STEP_DONE,
                                node_id, None))
            elif not waiting[node_id]:
                waiting[node_id] = True
                append(new(TraceRecord, (
                    now, node_id, "wait_enter", node.round_index, node.step_in_round, ""
                )))

        for node_id in range(n):
            start_or_wait(node_id, nodes[node_id], now)

        while heap:
            now, _, kind, node_id, msg = heappop(heap)
            node = nodes[node_id]

            if kind == STEP_DONE:
                rnd, step, completed, outbox = node.advance()
                if step >= 1:
                    append(new(TraceRecord, (now, node_id, "grad", rnd, step, "")))
                if completed:
                    append(new(TraceRecord, (
                        now, node_id, "round_end", rnd, step, closed_with[len(outbox)]
                    )))
                    for dest, out in outbox:
                        heappush(heap, (now + network_delay(), seq(), DELIVER, dest, out))
                    sent += len(outbox)
                    if round_hook is not None:
                        round_hook(node, rnd, now)
                start_or_wait(node_id, node, now)

            else:  # DELIVER
                node.on_receive(msg)
                delivered += 1
                append(new(TraceRecord, (
                    now, node_id, "apply", msg.round_index, -1, applied_from[msg.sender]
                )))
                if waiting[node_id]:
                    start_or_wait(node_id, node, now)

        if sent != delivered:
            raise RuntimeError(f"message conservation broken: sent {sent}, delivered {delivered}")
        # the queue is drained, so every round a neighbor closed has been delivered
        blocked = [
            {
                "node": i,
                "round": node.round_index,
                "step": node.step_in_round,
                "received": {e: self.nodes[e].round_index for e in self._neighbors[i]},
            }
            for i, node in enumerate(self.nodes)
            if not node.finished
        ]
        if blocked:
            raise DeadlockError(blocked)

        trace = Trace(n, tuple(sorted(self.topo.edges)), records)
        return SimResult(
            trace=trace,
            duration_ms=now,
            node_finish_ms=finish,
            rounds_completed=[node.round_index for node in self.nodes],
            messages_sent=sent,
        )

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

Every event writes a trace record, so a Trace keeps its records as typed
columns, one array per field, and the loop appends to them inline: about
25 bytes per record in place of a tuple and its objects.  An event's kind
is held as its index in EVENTS and its detail as an int peer: an apply's
sender, a round_end's message count, -1 for the other events.
Trace.records is a row view (TraceRecord tuples) built on each read.
Written, the detail is "from=<sender>" on an apply, "msgs=<count>" on a
round_end and empty otherwise, each int a canonical decimal below n;
Trace.read accepts exactly these.  run() binds heapq's
functions as locals when it starts, but heapq itself must stay a
module-level name looked up then: perfbench counts events by replacing
simnet.heapq.
"""
from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Callable, NamedTuple, Protocol

from .node import Message
from .rngs import COMPUTE_STREAM, NETWORK_STREAM, stream, uniform_draws
from .topology import Topology, neighbors, read_text

STEP_DONE = 0
DELIVER = 1

# every record kind the engine writes, indexed by the code a trace's events column holds;
# Trace.read rejects any other
EVENTS = ("grad", "round_end", "apply", "wait_enter", "wait_exit")
GRAD, ROUND_END, APPLY, WAIT_ENTER, WAIT_EXIT = range(len(EVENTS))
_CODES = {kind: code for code, kind in enumerate(EVENTS)}
# the detail of a record is this prefix and its peer, or empty where the prefix is
_PREFIX = ("", "msgs=", "from=", "", "")
# the int columns are 32-bit
_INT_RANGE = range(-2**31, 2**31)


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
        for name, (lo, hi) in (("compute", self.compute), ("network", self.network)):
            if not 0 <= lo <= hi < math.inf:  # NaN fails too
                raise SimError(
                    f"{name} latency range must have 0 <= lo <= hi < inf, got ({lo}, {hi})"
                )


class TraceRecord(NamedTuple):
    """One simulator observation as a row; step < 0 means the column is not applicable."""

    time: float
    node: int
    kind: str
    round_index: int
    step: int
    detail: str


class Trace:
    """Recorded run: topology summary plus records in processing order, as columns.

    The columns are parallel arrays: times (float64), then 32-bit nodes,
    rounds, steps (-1 where not applicable) and peers, and events as bytes.
    A new Trace holds no records; the engine and Trace.read append to them.
    """

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = tuple(edges)
        self.times = array("d")
        self.nodes = array("i")
        self.events = array("B")
        self.rounds = array("i")
        self.steps = array("i")
        self.peers = array("i")

    @property
    def columns(self) -> tuple[array, ...]:
        return self.times, self.nodes, self.events, self.rounds, self.steps, self.peers

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.n, self.edges, self.columns) == (other.n, other.edges, other.columns)

    @property
    def records(self) -> list[TraceRecord]:
        """The records as rows, built from the columns on each read."""
        new = tuple.__new__
        return [
            new(TraceRecord, (time, node, EVENTS[code], rnd, step, _detail(code, peer)))
            for time, node, code, rnd, step, peer in zip(*self.columns)
        ]

    def topology(self) -> Topology:
        return Topology(self.n, frozenset(self.edges))

    def write(self, path: str | Path) -> None:
        lines = [f"# nodes {self.n}"]
        lines.extend(f"# edge {u} {v}" for u, v in sorted(self.edges))
        lines.append("time,node,event,round,h,detail")
        lines.extend(
            f"{time!r},{node},{EVENTS[code]},{rnd},{step if step >= 0 else ''},"
            f"{_detail(code, peer)}"
            for time, node, code, rnd, step, peer in zip(*self.columns)
        )
        Path(path).write_text("\n".join(lines) + "\n")

    @staticmethod
    def read(path: str | Path) -> "Trace":
        trace = None
        edges = []
        # the peer of every detail string met so far, per event code
        peers: list[dict[str, int]] = [{} for _ in EVENTS]
        last = 0.0
        for lineno, raw in enumerate(read_text(path, SimError).splitlines(), start=1):
            if raw.startswith("# nodes "):
                if trace is not None:
                    raise SimError(f"{path}:{lineno}: nodes: a second '# nodes' header")
                n = _number(path, lineno, "nodes", int, raw[len("# nodes "):].strip())
                if n < 1:
                    raise SimError(f"{path}:{lineno}: nodes: expected at least 1, got {n}")
                trace = Trace(n, ())
                at, an, ae, ar, ah, ap = (column.append for column in trace.columns)
            elif not raw or raw.startswith("time,") or (
                raw.startswith("#") and not raw.startswith("# edge ")
            ):
                continue
            elif trace is None:
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
                code = _CODES.get(kind)
                if code is None:
                    raise SimError(f"{path}:{lineno}: event: unknown event {kind!r}")
                try:
                    time, node_id, rnd_i = float(t), int(node), int(rnd)
                    step_i = int(step) if step else -1
                except ValueError:  # name the first field that does not parse
                    for field, convert, text in (
                        ("time", float, t), ("node", int, node), ("round", int, rnd),
                        ("h", int, step or "0"),
                    ):
                        _number(path, lineno, field, convert, text)
                # virtual time starts at 0 and never goes back; NaN fails too
                if not last <= time < math.inf:
                    raise SimError(
                        f"{path}:{lineno}: time: expected a finite time not before {last!r}, "
                        f"got {t!r}"
                    )
                last = time
                if not 0 <= node_id < n:
                    raise SimError(
                        f"{path}:{lineno}: node: expected a node id below {n}, got {node!r}"
                    )
                peer = peers[code].get(detail)
                if peer is None:
                    try:
                        peer = peers[code][detail] = _peer(code, detail, n)
                    except ValueError as exc:
                        raise SimError(f"{path}:{lineno}: detail: {exc}") from None
                try:
                    an(node_id)
                    ar(rnd_i)
                    ah(step_i)
                    ap(peer)
                except OverflowError:  # name the first field outside the 32-bit columns
                    for field, value, text in (
                        ("node", node_id, node), ("round", rnd_i, rnd), ("h", step_i, step),
                        ("detail", peer, detail),
                    ):
                        if value not in _INT_RANGE:
                            raise SimError(
                                f"{path}:{lineno}: {field}: expected a 32-bit int, got {text!r}"
                            ) from None
                at(time)
                ae(code)
        if trace is None:
            raise SimError(f"{path}: missing '# nodes' header")
        trace.edges = tuple(edges)
        return trace


def _detail(code: int, peer: int) -> str:
    prefix = _PREFIX[code]
    return f"{prefix}{peer}" if prefix else ""


def _peer(code: int, detail: str, n: int) -> int:
    """The peer a detail string names: from=<node id> on an apply, msgs=<count> on a
    round_end, -1 for the empty detail of the other events; ValueError otherwise."""
    prefix = _PREFIX[code]
    if not prefix:
        if detail:
            raise ValueError(f"expected no detail on a {EVENTS[code]}, got {detail!r}")
        return -1
    digits = detail[len(prefix):]
    # one canonical decimal below n, as the engine writes it
    if not (
        detail.startswith(prefix) and digits.isdecimal() and str(int(digits)) == digits
        and int(digits) < n
    ):
        raise ValueError(
            f"expected {prefix}<int below {n}> on a {EVENTS[code]}, got {detail!r}"
        )
    return int(digits)


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
        if not 1 <= factor < math.inf:  # NaN fails too
            raise SimError(f"straggler factor must be a finite number >= 1, got {factor}")
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
        trace = Trace(n, sorted(self.topo.edges))
        at, an, ae, ar, ah, ap = (column.append for column in trace.columns)
        now = 0.0
        compute_delay = uniform_draws(self._compute_rng, *self.delays.compute).__next__
        network_delay = uniform_draws(self._network_rng, *self.delays.network).__next__

        def start_or_wait(node_id, node, now):
            if node.finished:
                finish[node_id] = now
            elif node.check_sync():
                if waiting[node_id]:
                    waiting[node_id] = False
                    at(now)
                    an(node_id)
                    ae(WAIT_EXIT)
                    ar(node.round_index)
                    ah(node.step_in_round)
                    ap(-1)
                heappush(heap, (now + compute_delay() * factors[node_id], seq(), STEP_DONE,
                                node_id, None))
            elif not waiting[node_id]:
                waiting[node_id] = True
                at(now)
                an(node_id)
                ae(WAIT_ENTER)
                ar(node.round_index)
                ah(node.step_in_round)
                ap(-1)

        for node_id in range(n):
            start_or_wait(node_id, nodes[node_id], now)

        while heap:
            now, _, kind, node_id, msg = heappop(heap)
            node = nodes[node_id]

            if kind == STEP_DONE:
                rnd, step, completed, outbox = node.advance()
                if step >= 1:
                    at(now)
                    an(node_id)
                    ae(GRAD)
                    ar(rnd)
                    ah(step)
                    ap(-1)
                if completed:
                    at(now)
                    an(node_id)
                    ae(ROUND_END)
                    ar(rnd)
                    ah(step)
                    ap(len(outbox))
                    for dest, out in outbox:
                        heappush(heap, (now + network_delay(), seq(), DELIVER, dest, out))
                    sent += len(outbox)
                    if round_hook is not None:
                        round_hook(node, rnd, now)
                # a node that just stepped is never waiting, so its usual case needs no call
                if not node.finished and node.check_sync():
                    heappush(heap, (now + compute_delay() * factors[node_id], seq(), STEP_DONE,
                                    node_id, None))
                else:
                    start_or_wait(node_id, node, now)

            else:  # DELIVER
                node.on_receive(msg)
                delivered += 1
                at(now)
                an(node_id)
                ae(APPLY)
                ar(msg.round_index)
                ah(-1)
                ap(msg.sender)
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

        return SimResult(
            trace=trace,
            duration_ms=now,
            node_finish_ms=finish,
            rounds_completed=[node.round_index for node in self.nodes],
            messages_sent=sent,
        )

"""Post-hoc verification that a recorded run respected its staleness contracts.

The protocol promises two things.  First, a node in round k never computes
while a neighbor's applied-round count trails by more than the configured
lag.  Second, once local steps are laid out on the shared serial timeline,
the information each iteration may be missing is bounded by a staleness
window.  Both checks replay a trace in its recorded processing order,
which is the authoritative event order of the run.

TimelineMap is the bridge between the two views: it assigns every
(node, round, step) a global iteration index and inverts that mapping.
iteration_bound_from_round_lag converts a round-lag cap into the widest
staleness window it can induce on that timeline, so a run verified at the
round level can be re-verified at the iteration level against the
implied window.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .node import Assignment
from .simnet import Trace
from .topology import neighbors


class ConsistencyError(ValueError):
    """Raised when a trace cannot be interpreted against the given layout."""


class TimelineMap:
    """Bijection between (node, round, step) triples and global iterations.

    Round k occupies a contiguous block of the global timeline; within the
    block, slots name which node owns each iteration.  A node's own steps
    therefore appear on the timeline in their local execution order.  Step
    counters are one-based, matching the per-round counter a node carries:
    its first step of a round is step 1, the same value a trace records.
    round_starts[node] lists (global index, round) of the node's first
    step in each round it owns slots in, in timeline order.
    """

    def __init__(self, assignment: Assignment):
        self.assignment = assignment
        self._forward: dict[tuple[int, int, int], int] = {}
        self._inverse: list[tuple[int, int, int]] = []
        self.round_starts: list[list[tuple[int, int]]] = [[] for _ in range(assignment.n)]
        t = 0
        for k, row in enumerate(assignment.slots):
            seen: dict[int, int] = {}
            for node in row:
                step = seen.get(node, 0) + 1
                seen[node] = step
                self._forward[(node, k, step)] = t
                self._inverse.append((node, k, step))
                if step == 1:
                    self.round_starts[node].append((t, k))
                t += 1

    @property
    def total(self) -> int:
        return len(self._inverse)

    def global_index(self, node: int, round_index: int, step_in_round: int) -> int:
        try:
            return self._forward[(node, round_index, step_in_round)]
        except KeyError:
            raise ConsistencyError(
                f"no slot for node {node} at round {round_index} step {step_in_round}"
            ) from None

    def locate(self, t: int) -> tuple[int, int, int]:
        if not 0 <= t < len(self._inverse):
            raise ConsistencyError(f"global iteration {t} out of range")
        return self._inverse[t]


@dataclass
class Violation:
    time: float
    node: int
    round_index: int
    peer: int
    lag: float
    message: str


@dataclass
class Report:
    ok: bool
    checked: int
    violations: list[Violation] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def verify_round_delay(trace: Trace, max_lag: int) -> Report:
    """Check every recorded gradient step against the round-lag cap.

    Replays apply records to reconstruct each node's per-neighbor
    applied-round counters, then asserts at each grad that no neighbor's
    counter trails the stepping node's round by more than max_lag.
    Counters only grow, so a step that was admitted legally can never
    appear violated later in the replay.  As ComputeNode.floor does, the
    replay keeps each node's smallest counter, so a grad scans its
    neighbors only when that floor trails by more than max_lag.
    """
    if max_lag < 0:
        raise ConsistencyError(f"max_lag must be >= 0, got {max_lag}")
    # counters of the nodes with an edge only, so the header's node count costs nothing;
    # sorted edges insert each node's neighbors in ascending order
    h: dict[int, dict[int, int]] = {}
    for u, v in sorted(trace.topology().edges):
        h.setdefault(u, {})[v] = 0
        h.setdefault(v, {})[u] = 0
    floor = dict.fromkeys(h, 0)  # a node without neighbors has an infinite floor
    no_counts: dict[int, int] = {}
    senders: dict[str, int] = {}
    violations: list[Violation] = []
    checked = 0
    applies = 0

    for rec in trace.records:
        kind = rec.kind
        if kind == "grad":
            checked += 1
            node, rnd = rec.node, rec.round_index
            if rnd - floor.get(node, math.inf) <= max_lag:
                continue
            for e, count in h[node].items():
                lag = rnd - count
                if lag > max_lag:
                    violations.append(
                        Violation(
                            rec.time,
                            node,
                            rnd,
                            e,
                            lag,
                            f"step ran with neighbor {e} lagging {lag} rounds (cap {max_lag})",
                        )
                    )
        elif kind == "apply":
            sender = senders.get(rec.detail)
            if sender is None:
                sender = senders[rec.detail] = _sender_of(rec.detail)
            counts = h.get(rec.node, no_counts)
            count = counts.get(sender)
            if count is None:
                raise ConsistencyError(
                    f"trace applies a message from {sender} to non-neighbor {rec.node}"
                )
            counts[sender] = count + 1
            if count == floor[rec.node]:
                floor[rec.node] = min(counts.values())
            applies += 1

    return Report(
        ok=not violations,
        checked=checked,
        violations=violations,
        info={"applies": applies, "max_lag": max_lag},
    )


def verify_iteration_delay(trace: Trace, timeline: TimelineMap, staleness) -> Report:
    """Check each step's incorporated information against a staleness window.

    staleness is a callable, a per-iteration list or a constant giving the
    window tau(t); the step at global iteration t must already incorporate
    every iteration j < t - tau(t).  A node's own past always qualifies.  A
    neighbor's iteration qualifies once the round containing it has been
    applied, tracked as a set per (receiver, sender) because deliveries are
    not ordered; a counter per pair keeps how many of the sender's leading
    rounds are all applied, so a step scans only the rounds after them.
    Iterations owned by non-neighbors are never directly received; they are
    tallied separately as indirect_only rather than flagged, since the
    window argument for them routes through multi-hop relays that a single
    trace cannot certify.
    """
    if isinstance(staleness, (list, tuple)):
        tau = staleness.__getitem__
    elif callable(staleness):
        tau = staleness
    else:
        tau = lambda t, _v=float(staleness): _v
    if trace.n != timeline.assignment.n:
        raise ConsistencyError(f"trace has {trace.n} nodes, timeline {timeline.assignment.n}")
    topo = trace.topology()
    nbrs = {i: set(neighbors(topo, i)) for i in range(trace.n)}
    applied: dict[int, dict[int, set[int]]] = {
        i: {e: set() for e in nbrs[i]} for i in range(trace.n)
    }
    prefix = {i: {e: 0 for e in nbrs[i]} for i in range(trace.n)}
    violations: list[Violation] = []
    checked = 0
    indirect_only = 0

    for rec in trace.records:
        if rec.kind == "apply":
            sender = _sender_of(rec.detail)
            if sender in applied[rec.node]:
                applied[rec.node][sender].add(rec.round_index)
            continue
        if rec.kind != "grad":
            continue
        checked += 1
        t = timeline.global_index(rec.node, rec.round_index, rec.step)
        wlim = t - tau(t)
        if wlim <= 0:
            continue
        for peer in range(trace.n):
            if peer == rec.node:
                continue
            firsts = timeline.round_starts[peer]
            cut = bisect_left(firsts, (wlim, -1))
            if peer not in nbrs[rec.node]:
                indirect_only += cut
                continue
            seen = applied[rec.node][peer]
            done = prefix[rec.node][peer]
            while done < cut and firsts[done][1] in seen:
                done += 1
            prefix[rec.node][peer] = done
            for _, k in firsts[done:cut]:
                if k in seen:
                    continue
                violations.append(
                    Violation(
                        rec.time,
                        rec.node,
                        rec.round_index,
                        peer,
                        t - wlim,
                        f"iteration {t} requires round {k} of neighbor {peer} "
                        f"(window limit {wlim:.3f}) but it was not yet applied",
                    )
                )

    return Report(
        ok=not violations,
        checked=checked,
        violations=violations,
        info={"indirect_only": indirect_only},
    )


def iteration_bound_from_round_lag(assignment: Assignment, max_lag: int) -> list[float]:
    """Widest per-iteration staleness a round-lag cap can induce.

    A step in round k is guaranteed to have applied every neighbor round
    below k - max_lag, and those rounds cover exactly the timeline prefix
    before that round's first iteration.  The window at iteration t is
    therefore t minus the start of round max(round(t) - max_lag, 0).
    Index the returned list by global iteration.
    """
    if max_lag < 0:
        raise ConsistencyError(f"max_lag must be >= 0, got {max_lag}")
    starts = assignment.starts
    sizes = assignment.round_sizes
    bound: list[float] = []
    for k, (start, size) in enumerate(zip(starts, sizes)):
        anchor = starts[max(k - max_lag, 0)]
        bound.extend(float(start + j - anchor) for j in range(size))
    return bound


def _sender_of(detail: str) -> int:
    for part in detail.split():
        if part.startswith("from="):
            try:
                return int(part[5:])
            except ValueError:
                break
    raise ConsistencyError(f"apply record without sender: {detail!r}")

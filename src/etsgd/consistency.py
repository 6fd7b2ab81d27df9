"""Post-hoc verification that a recorded run respected its staleness contracts.

The protocol promises two things.  First, a node in round k never computes
while a neighbor's applied-round count trails by more than the configured
lag.  Second, once local steps are laid out on the shared serial timeline,
the information each iteration may be missing is bounded by a staleness
window.  Both checks replay a trace in its recorded processing order,
which is the authoritative event order of the run.

verify_round_delay reads the trace columns as numpy arrays and works on
per-link positions.  A link is one (receiver, sender) pair of an edge.
One sort of group * records + position keys lists, ascending, the record
positions of each link's applies and of each receiver's grads.  The
receiver's counter for that sender at a grad is the number of the link's
apply positions below the grad's, so one searchsorted of the receiver's
grad positions into the link's apply positions gives every counter, and
lag = round - counter.  The contiguous-prefix rule of ROADMAP item 1 maps
onto the same arrays: index a link's apply positions by the round each
apply carries, and np.maximum.accumulate over them gives the positions at
which the link's applied prefix grew, which then replace the apply
positions in the searchsorted.  Applies are keyed, and grads counted,
BLOCK records at a time, so the temporaries keep one size; the keys take
4 bytes per apply and grad while every key is below 2**31, 8 otherwise.

TimelineMap is the bridge between the two views: it assigns every
(node, round, step) a global iteration index and inverts that mapping:
node i's step h of round k is iteration starts[k], plus the slots of nodes
below i in round k, plus h - 1, one prefix-sum row per round.
iteration_bound_from_round_lag converts a round-lag cap into the widest
staleness window it can induce on that timeline, so a run verified at the
round level can be re-verified at the iteration level against the
implied window.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, repeat

import numpy as np

from .node import Assignment
from .simnet import APPLY, GRAD, MAX_NODES, Trace
from .topology import neighbors


# verify_round_delay reads the trace this many records at a time
BLOCK = 1 << 10


class ConsistencyError(ValueError):
    """Raised when a trace cannot be interpreted against the given layout."""


class TimelineMap:
    """Bijection between (node, round, step) triples and global iterations.

    Rounds follow one another on the timeline, each laid out node by node,
    so a node's own steps appear in their local execution order.  Step
    counters are one-based, as in a node and its trace: a round's first
    step is step 1.  round_starts[node] lists (global index, round) of the
    node's first step in each round it owns slots in, in timeline order.
    """

    def __init__(self, assignment: Assignment):
        self.assignment = assignment
        # _offsets[k][i] is node i's first iteration in round k; _offsets[k][n] ends the round
        self._offsets = [
            list(accumulate(counts, initial=start))
            for start, counts in zip(assignment.starts, zip(*assignment.budgets))
        ]
        self.total = self._offsets[-1][-1] if self._offsets else 0
        self.round_starts = [
            [(row[i], k) for k, row in enumerate(self._offsets) if counts[k]]
            for i, counts in enumerate(assignment.budgets)
        ]

    def global_index(self, node: int, round_index: int, step_in_round: int) -> int:
        budgets = self.assignment.budgets
        if 0 <= node < len(budgets) and 0 <= round_index < len(self._offsets):
            if 0 < step_in_round <= budgets[node][round_index]:
                return self._offsets[round_index][node] + step_in_round - 1
        raise ConsistencyError(
            f"no slot for node {node} at round {round_index} step {step_in_round}"
        )

    def locate(self, t: int) -> tuple[int, int, int]:
        if not 0 <= t < self.total:
            raise ConsistencyError(f"global iteration {t} out of range")
        k = bisect_right(self.assignment.starts, t) - 1
        row = self._offsets[k]
        node = bisect_right(row, t) - 1
        return node, k, t - row[node] + 1


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

    A node's counter for a neighbor is the number of that neighbor's
    messages it applied before the step; a step in round k violates the cap
    on each neighbor whose counter trails k by more than max_lag.  Each
    link counts its receiver's steps with one searchsorted (see the module
    docstring).  Violations come in record order, and a step's in ascending
    neighbor order.
    """
    if not max_lag >= 0:
        raise ConsistencyError(f"max_lag must be >= 0, got {max_lag}")
    pairs = sorted({(u, v) for a, b in trace.edges for u, v in ((a, b), (b, a))})
    kinds = np.frombuffer(trace.events, np.uint8)
    applies, checked = (int(np.count_nonzero(kinds == kind)) for kind in (APPLY, GRAD))
    if applies and not pairs:  # _sorted_keys looks each apply's link up in pairs
        raise _non_neighbor(trace, int((kinds == APPLY).argmax()))
    keys = _sorted_keys(trace, pairs, applies + checked)
    records = len(trace.times)
    rounds = np.frombuffer(trace.rounds, np.intc)

    # (position, neighbor, lag) of each step that broke the cap on that neighbor
    found: list[tuple[int, int, int]] = []
    for link, (u, v) in enumerate(pairs):
        grads = len(pairs) + u
        # in the keys' dtype, which searchsorted would otherwise convert the keys to
        bounds = np.array([link, link + 1, grads, grads + 1], keys.dtype) * records
        first, last, lo, hi = keys.searchsorted(bounds).tolist()
        applied = keys[first:last] - link * records
        for start in range(lo, hi, BLOCK):
            at = keys[start:min(start + BLOCK, hi)] - grads * records
            lag = rounds[at] - applied.searchsorted(at)
            late = lag > max_lag
            if late.any():
                found.extend(zip(at[late].tolist(), repeat(v), lag[late].tolist()))
    found.sort()

    violations = [
        Violation(
            trace.times[p],
            trace.nodes[p],
            trace.rounds[p],
            e,
            lag,
            f"step ran with neighbor {e} lagging {lag} rounds (cap {max_lag})",
        )
        for p, e, lag in found
    ]
    return Report(
        ok=not violations,
        checked=checked,
        violations=violations,
        info={"applies": applies, "max_lag": max_lag},
    )


def _sorted_keys(trace: Trace, pairs, size: int) -> np.ndarray:
    """The keys of the trace's applies and grads, ascending.

    A record's key is group * records + position, records being the
    trace's length, where an apply's group is the index of its link in pairs
    and a grad's is len(pairs) plus its node.  The keys of a group are therefore contiguous, in record
    order.  size is the number of applies and grads.
    """
    records = len(trace.times)
    kinds = np.frombuffer(trace.events, np.uint8)
    nodes = np.frombuffer(trace.nodes, np.intc)
    peers = np.frombuffer(trace.peers, np.intc)
    codes = np.array([u * MAX_NODES + v for u, v in pairs], np.int64)
    groups = len(pairs) + trace.n
    keys = np.empty(size, np.int32 if groups * records < 2**31 else np.int64)
    filled = 0
    for start in range(0, records, BLOCK):
        (applies,) = (kinds[start:start + BLOCK] == APPLY).nonzero()
        applies += start
        code = np.multiply(nodes[applies], MAX_NODES, dtype=np.int64)
        code += peers[applies]
        link = codes.searchsorted(code)
        np.minimum(link, len(pairs) - 1, out=link)
        alien = codes[link] != code
        if alien.any():
            raise _non_neighbor(trace, int(applies[alien.argmax()]))
        (grads,) = (kinds[start:start + BLOCK] == GRAD).nonzero()
        grads += start
        steps = np.add(nodes[grads], len(pairs), dtype=np.int64)
        for group, at in ((link, applies), (steps, grads)):
            group *= records
            group += at
            keys[filled:filled + len(at)] = group
            filled += len(at)
    keys.sort()
    return keys


def _non_neighbor(trace: Trace, p: int) -> ConsistencyError:
    return ConsistencyError(
        f"trace applies a message from {trace.peers[p]} to non-neighbor {trace.nodes[p]}"
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
    nodes = len(timeline.assignment.budgets)
    if trace.n != nodes:
        raise ConsistencyError(f"trace has {trace.n} nodes, timeline {nodes}")
    topo = trace.topology()
    nbrs = {i: set(neighbors(topo, i)) for i in range(trace.n)}
    applied: dict[int, dict[int, set[int]]] = {
        i: {e: set() for e in nbrs[i]} for i in range(trace.n)
    }
    prefix = {i: {e: 0 for e in nbrs[i]} for i in range(trace.n)}
    violations: list[Violation] = []
    checked = 0
    indirect_only = 0

    for time, node, code, rnd, step, sender in zip(*trace.columns):
        if code == APPLY:
            if sender in applied[node]:
                applied[node][sender].add(rnd)
            continue
        if code != GRAD:
            continue
        checked += 1
        t = timeline.global_index(node, rnd, step)
        wlim = t - tau(t)
        if wlim <= 0:
            continue
        for peer in range(trace.n):
            if peer == node:
                continue
            firsts = timeline.round_starts[peer]
            cut = bisect_left(firsts, (wlim, -1))
            if peer not in nbrs[node]:
                indirect_only += cut
                continue
            seen = applied[node][peer]
            done = prefix[node][peer]
            while done < cut and firsts[done][1] in seen:
                done += 1
            prefix[node][peer] = done
            for _, k in firsts[done:cut]:
                if k in seen:
                    continue
                violations.append(
                    Violation(
                        time,
                        node,
                        rnd,
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
    therefore t minus the start of round max(round(t) - max_lag, 0).  A
    finite cap counts as its floor, as verify_round_delay's whole lags see
    it.  Index the returned list by global iteration.
    """
    if not max_lag >= 0:
        raise ConsistencyError(f"max_lag must be >= 0, got {max_lag}")
    starts = assignment.starts
    sizes = assignment.round_sizes
    lag = int(min(max_lag, len(starts)))
    bound: list[float] = []
    for k, (start, size) in enumerate(zip(starts, sizes)):
        anchor = starts[max(k - lag, 0)]
        bound.extend(float(start + j - anchor) for j in range(size))
    return bound


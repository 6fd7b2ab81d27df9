"""Post-hoc verification that a recorded run respected its staleness contracts.

The protocol promises two things.  First, a node in round k never computes
while a neighbor's applied-round count trails by more than the configured
lag.  Second, once local steps are laid out on the shared serial timeline,
the information each iteration may be missing is bounded by a staleness
window.  Both checks replay a trace in its recorded processing order,
which is the authoritative event order of the run.

verify_round_delay reads the trace columns as numpy arrays and works on
per-link apply positions.  A link is one (receiver, sender) pair of an
edge, and its apply positions are the record positions of the applies on
it, ascending; one sort of link * records + position groups them.  The
receiver's counter for that sender just before record p is the number of
the link's positions below p, one searchsorted.  A node's floor is its
smallest counter, and its floor table holds, for each count k, the
position at which the floor reached k: the largest k-th position over its
links.  A step in round r can break the cap only if the entry for
k = r - max_lag is not before it.  The contiguous-prefix rule of ROADMAP
item 1 maps onto the same arrays: index a link's apply positions by the
round each apply carries, and np.maximum.accumulate over them gives the
position at which the link's applied prefix reached each length, which
then replaces the k-th position in the floor table.  Applies and grads
are read BLOCK records at a time, so the temporaries keep one size.

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
from itertools import accumulate

import numpy as np

from .node import Assignment
from .simnet import APPLY, GRAD, Trace
from .topology import neighbors


# verify_round_delay reads the trace this many records at a time
BLOCK = 1 << 10
# node ids and apply senders are 32-bit; no (receiver, sender) code equals _NO_CODE
_I32 = 2**31
_NO_CODE = 2**63 - 1


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

    A node's counter for a neighbor is the number of that neighbor's
    messages it applied before the step; a step in round k violates the cap
    on each neighbor whose counter trails k by more than max_lag.  As
    ComputeNode.floor does, a step scans its neighbors only when its node's
    smallest counter trails, which the floor table (see the module
    docstring) tells in one lookup.  Violations come in record order, and a
    step's in ascending neighbor order.
    """
    if not max_lag >= 0:
        raise ConsistencyError(f"max_lag must be >= 0, got {max_lag}")
    links = _Links(trace)
    kinds = np.frombuffer(trace.events, np.uint8)
    checked = int(np.count_nonzero(kinds == GRAD))
    trailing: list[int] = []
    # a step trails when its node's floor is below k = rnd - floor(max_lag); no step
    # trails an infinite cap, nor a lag of 2**32 or more, which 32-bit rounds cannot hold
    if links.receivers and math.isfinite(max_lag):
        slack = min(math.floor(max_lag), 2 * _I32)
        nodes = np.frombuffer(trace.nodes, np.intc)
        rounds = np.frombuffer(trace.rounds, np.intc)
        ids = np.array(links.receivers, np.intc)
        for start in range(0, len(kinds), BLOCK):
            (at,) = (kinds[start:start + BLOCK] == GRAD).nonzero()
            at += start
            node = nodes[at]
            c = ids.searchsorted(node)
            np.minimum(c, len(ids) - 1, out=c)
            k = np.subtract(rounds[at], slack, dtype=np.int64)
            np.maximum(k, 0, out=k)
            np.minimum(k, links.top[c], out=k)
            k += links.offset[c]
            behind = links.floor_at[k] > at
            behind &= ids[c] == node
            trailing.extend(at[behind].tolist())

    violations: list[Violation] = []
    for p in trailing:
        time, node, rnd = trace.times[p], trace.nodes[p], trace.rounds[p]
        for e, link in links.neighbors[node]:
            lag = rnd - links.count(link, p)
            if lag > max_lag:
                violations.append(
                    Violation(
                        time,
                        node,
                        rnd,
                        e,
                        lag,
                        f"step ran with neighbor {e} lagging {lag} rounds (cap {max_lag})",
                    )
                )

    return Report(
        ok=not violations,
        checked=checked,
        violations=violations,
        info={"applies": len(links.positions), "max_lag": max_lag},
    )


class _Links:
    """A trace's applies grouped per link, and each receiver's floor table.

    A link is one (receiver, sender) pair of an edge.  neighbors[u] lists
    u's (sender, link) pairs in ascending sender order.  Link j's apply
    positions are positions[bounds[j]:bounds[j + 1]], ascending.  The node
    columns are 32-bit, so only nodes below 2**31 receive or send: links
    from larger senders are numbered after the others, and have no apply.

    Receiver c = receivers.index(u) has the floor table
    floor_at[offset[c]:offset[c] + top[c] + 1]: -1 for count 0, then the
    position at which u's floor reached each count up to top[c] - 1, and
    last the trace's length, a position past every record, for the count
    its floor never reaches.
    """

    def __init__(self, trace: Trace):
        size = len(trace.times)
        edges = trace.topology().edges
        pairs = {(u, v) for a, b in edges for u, v in ((a, b), (b, a)) if u < _I32}
        named = sorted(p for p in pairs if p[1] < _I32)
        self.neighbors: dict[int, list[tuple[int, int]]] = {}
        for link, (u, v) in enumerate(named + sorted(pairs.difference(named))):
            self.neighbors.setdefault(u, []).append((v, link))
        self.receivers = sorted(self.neighbors)

        # an apply's key is link * size + position, so one sort groups the applies by
        # link and keeps each link's positions ascending; 32-bit where the keys fit
        kinds = np.frombuffer(trace.events, np.uint8)
        nodes = np.frombuffer(trace.nodes, np.intc)
        peers = np.frombuffer(trace.peers, np.intc)
        codes = np.array([u * _I32 + v for u, v in named] + [_NO_CODE], dtype=np.int64)
        keys = np.empty(
            np.count_nonzero(kinds == APPLY),
            np.int32 if (len(named) + 1) * size < _I32 else np.int64,
        )
        filled = 0
        for start in range(0, size, BLOCK):
            (at,) = (kinds[start:start + BLOCK] == APPLY).nonzero()
            at += start
            code = np.multiply(nodes[at], _I32, dtype=np.int64)
            code += peers[at]
            link = codes.searchsorted(code)
            alien = codes[link] != code
            if alien.any():
                p = int(at[alien.argmax()])
                raise ConsistencyError(
                    f"trace applies a message from {trace.peers[p]} "
                    f"to non-neighbor {trace.nodes[p]}"
                )
            link *= size
            link += at
            keys[filled:filled + len(at)] = link
            filled += len(at)
        keys.sort()
        starts = np.arange(len(named) + 1, dtype=keys.dtype) * size
        self.bounds = np.searchsorted(keys, starts).tolist()
        for link in range(len(named)):
            keys[self.bounds[link]:self.bounds[link + 1]] -= link * size
        self.positions = keys
        self.bounds += [self.bounds[-1]] * (len(pairs) - len(named))

        # u's floor reaches r, the fewest applies of its links, and each count k <= r at the
        # latest of its links' k-th applies
        reach = [
            min(self.bounds[j + 1] - self.bounds[j] for _, j in self.neighbors[u])
            for u in self.receivers
        ]
        offset = list(accumulate((r + 2 for r in reach), initial=0))
        self.floor_at = floor_at = np.full(offset[-1], -1, keys.dtype)
        for u, r, base in zip(self.receivers, reach, offset):
            floor_at[base + r + 1] = size
            reached = floor_at[base + 1:base + r + 1]
            for _, j in self.neighbors[u]:
                np.maximum(reached, keys[self.bounds[j]:self.bounds[j] + r], out=reached)
        self.offset = np.array(offset[:-1], keys.dtype)
        self.top = np.array(reach, keys.dtype) + 1

    def count(self, link: int, position: int) -> int:
        """How many of the link's applies come before the record at position."""
        applied = self.positions[self.bounds[link]:self.bounds[link + 1]]
        return int(np.searchsorted(applied, position))


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
    therefore t minus the start of round max(round(t) - max_lag, 0).
    Index the returned list by global iteration.
    """
    if not max_lag >= 0:
        raise ConsistencyError(f"max_lag must be >= 0, got {max_lag}")
    starts = assignment.starts
    sizes = assignment.round_sizes
    bound: list[float] = []
    for k, (start, size) in enumerate(zip(starts, sizes)):
        anchor = starts[max(k - max_lag, 0)]
        bound.extend(float(start + j - anchor) for j in range(size))
    return bound


"""Compute-node state machine for scheduled gossip SGD.

Each node runs rounds of local SGD steps, accumulates the round's gradient
sum, and broadcasts that sum to its neighbors when the round's budget is
spent.  A received sum is applied with the step size of the round it came
from.  Before every local step the node checks how far its own round index
runs ahead of the rounds received from each neighbor; past the configured
lag bound it must wait.

The slot assignment lives here too: it splits each round's global step
budget across nodes at random, which both drives heterogeneous-budget runs
and underpins the global iteration labeling used by the consistency
checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rngs import SETUP_STREAM, stream
from .schedules import SampleSchedule, sample_size


class ProtocolError(RuntimeError):
    """Raised when a node operation is driven outside its contract."""


class AssignmentError(ValueError):
    """Raised for invalid slot-assignment parameters."""


@dataclass(frozen=True)
class Message:
    """Gradient sum broadcast at the end of a round.  Treated as immutable."""

    sender: int
    payload: np.ndarray
    round_index: int


@dataclass(frozen=True)
class Assignment:
    """Owner of every step slot: slots[i][t] names the node that runs slot t of round i."""

    n: int
    slots: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise AssignmentError(f"need n >= 1, got {self.n}")
        for i, rnd in enumerate(self.slots):
            for owner in rnd:
                if not (0 <= owner < self.n):
                    raise AssignmentError(f"round {i}: owner {owner} out of range for n={self.n}")

    @property
    def rounds(self) -> int:
        return len(self.slots)

    @cached_property
    def round_sizes(self) -> tuple[int, ...]:
        return tuple(len(rnd) for rnd in self.slots)

    @cached_property
    def starts(self) -> tuple[int, ...]:
        """Global iteration index at which each round begins."""
        out = []
        total = 0
        for size in self.round_sizes:
            out.append(total)
            total += size
        return tuple(out)

    @property
    def total_slots(self) -> int:
        return sum(self.round_sizes)

    def count(self, round_index: int, node: int) -> int:
        """The node's step budget in one round."""
        return self.slots[round_index].count(node)

    def node_budgets(self, node: int) -> list[int]:
        return [self.count(i, node) for i in range(self.rounds)]


def setup(n: int, sched: SampleSchedule, p, seed: int, rounds: int) -> Assignment:
    """Draw the per-round slot owners; node c wins each slot with probability p[c]."""
    if n < 1:
        raise AssignmentError(f"need n >= 1, got {n}")
    if rounds < 0:
        raise AssignmentError(f"need rounds >= 0, got {rounds}")
    probs = np.asarray(p, dtype=float)
    if probs.shape != (n,):
        raise AssignmentError(f"probability vector must have length {n}, got shape {probs.shape}")
    if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-12:
        raise AssignmentError("probabilities must be non-negative and sum to 1")
    rng = stream(seed, SETUP_STREAM)
    slots = tuple(
        tuple(int(c) for c in rng.choice(n, size=sample_size(sched, i), p=probs))
        for i in range(rounds)
    )
    return Assignment(n, slots)


def uniform_assignment(n: int, sched: SampleSchedule, rounds: int) -> Assignment:
    """Deterministic round-robin split: round i holds n*s_i slots, one s_i share per node.

    This is the assignment that matches a run where every node executes the
    schedule's full budget each round.
    """
    if n < 1:
        raise AssignmentError(f"need n >= 1, got {n}")
    slots = tuple(
        tuple(t % n for t in range(n * sample_size(sched, i))) for i in range(rounds)
    )
    return Assignment(n, slots)


def assignment_from_budgets(budgets_by_node) -> Assignment:
    """Slot layout matching known per-node round budgets, interleaved round-robin.

    Any interleaving is a valid global labeling as long as each node's own
    slots keep their local order within a round, which the cycling below
    guarantees.  Shorter budget lists are padded with empty rounds.
    """
    n = len(budgets_by_node)
    if n < 1:
        raise AssignmentError("need at least one node")
    rounds = max((len(b) for b in budgets_by_node), default=0)
    slots = []
    for k in range(rounds):
        remaining = [b[k] if k < len(b) else 0 for b in budgets_by_node]
        if any(r < 0 for r in remaining):
            raise AssignmentError(f"round {k}: negative budget in {remaining}")
        row = []
        while any(remaining):
            for c in range(n):
                if remaining[c]:
                    row.append(c)
                    remaining[c] -= 1
        slots.append(tuple(row))
    return Assignment(n, tuple(slots))


class ComputeNode:
    """One peer of the scheduled protocol.

    The node owns its model, its round/step counters, the gradient sum of
    the current round, and one received-round counter per neighbor.  All
    mutation happens through the methods below, driven by the simulator.
    """

    def __init__(
        self,
        node_id: int,
        objective,
        data,
        indices: np.ndarray,
        budgets,
        etas,
        neighbors,
        max_lag: float,
        rng: np.random.Generator,
        w0: np.ndarray | None = None,
    ):
        if len(budgets) != len(etas):
            raise ProtocolError("budgets and etas must cover the same rounds")
        if max_lag < 0:
            raise ProtocolError(f"max_lag must be >= 0, got {max_lag}")
        if len(indices) == 0:
            raise ProtocolError(f"node {node_id} has an empty sample pool")
        self.node_id = node_id
        self.objective = objective
        self.data = data
        self.indices = np.asarray(indices)
        self.budgets = list(budgets)
        self.etas = list(etas)
        self.max_lag = max_lag
        self.rng = rng
        self.w = np.zeros(objective.dim) if w0 is None else np.array(w0, dtype=float)
        self.round_index = 0
        self.step_in_round = 0
        self.grad_sum = np.zeros(objective.dim)
        self.received = {int(e): 0 for e in neighbors}
        self.rounds_total = len(self.budgets)

    @property
    def finished(self) -> bool:
        return self.round_index >= self.rounds_total

    @property
    def round_complete(self) -> bool:
        return not self.finished and self.step_in_round == self.budgets[self.round_index]

    def lag(self) -> int:
        """How many rounds this node runs ahead of its slowest neighbor."""
        if not self.received:
            return 0
        return self.round_index - min(self.received.values())

    def check_sync(self) -> bool:
        """True when the node may take a step now; False means wait for messages."""
        return self.lag() <= self.max_lag

    def on_receive(self, msg: Message) -> None:
        """Apply a neighbor's round gradient sum and bump its received counter."""
        if msg.sender not in self.received:
            raise ProtocolError(f"node {self.node_id}: message from non-neighbor {msg.sender}")
        self.w -= self.etas[msg.round_index] * msg.payload
        self.received[msg.sender] += 1

    def local_step(self) -> None:
        """One SGD step on a uniformly drawn sample; accumulates the gradient sum."""
        if self.finished:
            raise ProtocolError(f"node {self.node_id}: stepping after the final round")
        if self.step_in_round >= self.budgets[self.round_index]:
            raise ProtocolError(f"node {self.node_id}: round {self.round_index} budget spent")
        if not self.check_sync():
            raise ProtocolError(
                f"node {self.node_id}: stepping while {self.lag()} rounds ahead (bound {self.max_lag})"
            )
        idx = int(self.indices[self.rng.integers(len(self.indices))])
        g = self.objective.grad(self.w, self.data, idx)
        self.w -= self.etas[self.round_index] * g
        self.grad_sum += g
        self.step_in_round += 1

    def end_of_round(self) -> list[tuple[int, Message]]:
        """Close the round: emit (neighbor, message) pairs and advance to the next round.

        Every neighbor gets the same payload: the round's gradient sum itself,
        handed over rather than copied.  The node starts the next round on a
        fresh zero array, so later local steps cannot alter messages in flight.
        """
        if self.finished:
            raise ProtocolError(f"node {self.node_id}: no round in progress")
        if self.step_in_round != self.budgets[self.round_index]:
            raise ProtocolError(
                f"node {self.node_id}: round {self.round_index} has "
                f"{self.step_in_round}/{self.budgets[self.round_index]} steps done"
            )
        msg = Message(self.node_id, self.grad_sum, self.round_index)
        outbox = [(dest, msg) for dest in sorted(self.received)]
        self.round_index += 1
        self.step_in_round = 0
        self.grad_sum = np.zeros(self.objective.dim)
        return outbox

    def advance(self) -> tuple[int, int, bool, list[tuple[int, Message]]]:
        """Driver hook: take one step; on round completion also broadcast.

        Returns (round_index, step_in_round, round_completed, outbox) for the
        step just taken.  A round with a zero budget closes without a step,
        reported with step_in_round 0.
        """
        if self.round_complete:
            rnd = self.round_index
            return rnd, 0, True, self.end_of_round()
        self.local_step()
        rnd, step = self.round_index, self.step_in_round
        if self.round_complete:
            return rnd, step, True, self.end_of_round()
        return rnd, step, False, []

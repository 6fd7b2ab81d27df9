"""Compute-node state machine for scheduled gossip SGD.

Each node runs rounds of local SGD steps, accumulates the round's gradient
sum, and broadcasts that sum to its neighbors when the round's budget is
spent.  A received sum is applied with the step size of the round it came
from.  Before every local step the node checks how far its own round index
runs ahead of the rounds received from each neighbor; past the configured
lag bound it must wait.

The slot assignment lives here too: it names the node that runs each
step slot of each round, which is the global iteration labeling the
consistency checks use.  assignment_from_budgets lays out the per-node
round budgets of a harness run; setup draws the paper's randomized
assignment, in which node c wins each slot with probability p[c].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .rngs import SETUP_STREAM, sample_draws, stream
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

    @cached_property
    def round_sizes(self) -> tuple[int, ...]:
        return tuple(len(rnd) for rnd in self.slots)

    @cached_property
    def starts(self) -> tuple[int, ...]:
        """Global iteration index at which each round begins."""
        return tuple(accumulate(self.round_sizes, initial=0))[:-1]

    def count(self, round_index: int, node: int) -> int:
        """The node's step budget in one round."""
        return self.slots[round_index].count(node)


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
    """One peer of the scheduled protocol; the engine drives it as a simnet.Driver.

    The node owns its model, its round/step counters, the gradient sum of
    the current round, and one received-round counter per neighbor.  t
    counts the local steps taken over all rounds.  floor is the smallest
    received counter (infinite without neighbors); on_receive keeps it, so
    the lag gate is one compare.  Sample indices come from rng in blocks
    (rngs.sample_draws) that give the values one draw per step would give.
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
        self.w = np.zeros(objective.dim) if w0 is None else np.array(w0, dtype=float)
        self.t = 0
        self.round_index = 0
        self.step_in_round = 0
        self.grad_sum = np.zeros(objective.dim)
        self.received = {int(e): 0 for e in neighbors}
        self._dests = sorted(self.received)
        self.floor = min(self.received.values(), default=math.inf)
        self.rounds_total = len(self.budgets)
        self._samples = sample_draws(rng, self.indices, sum(self.budgets))

    @property
    def finished(self) -> bool:
        return self.round_index >= self.rounds_total

    def lag(self) -> int:
        """How many rounds this node runs ahead of its slowest neighbor."""
        return self.round_index - self.floor if self.received else 0

    def check_sync(self) -> bool:
        """True when the node may take a step now; False means wait for messages."""
        return self.round_index - self.floor <= self.max_lag

    def on_receive(self, msg: Message) -> None:
        """Apply a neighbor's round gradient sum and bump its received counter."""
        sender, rnd = msg.sender, msg.round_index
        count = self.received.get(sender)
        if count is None:
            raise ProtocolError(f"node {self.node_id}: message from non-neighbor {sender}")
        # etas holds the step size of every round this node knows
        if not 0 <= rnd < len(self.etas):
            raise ProtocolError(
                f"node {self.node_id}: message from node {sender} for round {rnd}, "
                f"outside its rounds 0..{len(self.etas) - 1}"
            )
        self.w -= self.etas[rnd] * msg.payload
        self.received[sender] = count + 1
        if count == self.floor:
            self.floor = min(self.received.values())

    def advance(self) -> tuple[int, int, bool, list[tuple[int, Message]]]:
        """One SGD step on a uniformly drawn sample; closes the round it spends.

        Returns (round_index, step_in_round, round_closed, outbox) for the
        step just taken.  When the step spends the round's budget, every
        neighbor gets the round's gradient sum, handed over rather than
        copied, and the next round starts on a fresh zero array, so later
        steps cannot alter messages in flight.  A round with a zero budget
        closes without a step, reported with step_in_round 0.
        """
        if self.finished:
            raise ProtocolError(f"node {self.node_id}: stepping after the final round")
        if self.round_index - self.floor > self.max_lag:
            raise ProtocolError(
                f"node {self.node_id}: stepping while {self.lag()} rounds ahead (bound {self.max_lag})"
            )
        rnd = self.round_index
        budget = self.budgets[rnd]
        if budget:
            g = self.objective.grad(self.w, self.data, next(self._samples))
            self.w -= self.etas[rnd] * g
            self.grad_sum += g
            self.step_in_round += 1
            self.t += 1
        step = self.step_in_round
        if step < budget:
            return rnd, step, False, []
        msg = Message(self.node_id, self.grad_sum, rnd)
        outbox = [(dest, msg) for dest in self._dests]
        self.round_index += 1
        self.step_in_round = 0
        self.grad_sum = np.zeros(self.objective.dim)
        return rnd, step, True, outbox

"""Compute-node state machine for scheduled gossip SGD.

Each node runs rounds of local SGD steps, accumulates the round's gradient
sum, and broadcasts the round's update, that sum times the round's step
size, to its neighbors when the round's budget is spent.  A received update
is subtracted as it is; every node of a run shares the same step sizes, so
this is the sum applied with the step size of the round it came from.
Before every local step the node checks how far its own round index
runs ahead of the rounds received from each neighbor; past the configured
lag bound it must wait.

The steps run in the objective's stepper, which holds the node's model,
gradient sum and data.  A Logistic stepper lands its steps a block of
objectives.STEP_BLOCK at a time, so the node flushes it when it closes a
round, before the broadcast, the round snapshot and the final model read
them, and before it subtracts a delivery, so no block spans a payload.
Summed in that order, Logistic weights differ from one-step-at-a-time
updates in the last bits; the trace does not, since virtual time and the
lag gate never read model values.

The slot assignment lives here too.  An Assignment holds per-node slot
counts, budgets[i][k] being how many step slots of round k node i owns;
each round's slots are laid out node by node, which is the global
iteration labeling the consistency checks use.  A harness run's Layout is
its Assignment plus each node's step sizes; the nodes take their budgets
and step sizes from it.  setup draws the paper's randomized assignment, in
which node c wins each slot with probability p[c], for round sizes that
schedules.round_plan gives, and returns the per-node counts of its draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .rngs import SETUP_STREAM, sample_draws, stream


class ProtocolError(RuntimeError):
    """Raised when a node operation is driven outside its contract."""


class AssignmentError(ValueError):
    """Raised for invalid slot-assignment parameters."""


@dataclass(frozen=True)
class Message:
    """What a node broadcasts when it closes a round.  Treated as immutable.

    From a ComputeNode the payload is the round's update, its gradient sum
    times its step size; the threshold baseline sends its model instead.
    """

    sender: int
    payload: np.ndarray
    round_index: int


@dataclass(frozen=True)
class Assignment:
    """Per-node slot counts: budgets[i][k] is how many slots of round k node i owns.

    Every node lists the same rounds.  Round k runs from global iteration
    starts[k] for round_sizes[k] slots, node 0's first, then node 1's, and so on.
    """

    budgets: tuple[list[int], ...]

    def __post_init__(self):
        if len({len(row) for row in self.budgets}) != 1:
            raise AssignmentError("need at least one node, every node with the same rounds")
        for i, row in enumerate(self.budgets):
            if row and min(row) < 0:
                raise AssignmentError(f"node {i}: negative budget in round {row.index(min(row))}")

    @cached_property
    def round_sizes(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.budgets)))

    @cached_property
    def starts(self) -> tuple[int, ...]:
        """Global iteration index at which each round begins."""
        return tuple(accumulate(self.round_sizes, initial=0))[:-1]


@dataclass(frozen=True)
class Layout(Assignment):
    """One scheduled run's plan: its slot counts, and etas[i], node i's per-round step sizes."""

    etas: tuple[list[float], ...]


def setup(n: int, sizes, p, seed: int) -> Assignment:
    """Draw each slot's owner, node c with probability p[c], and count each node's slots per round."""
    if n < 1:
        raise AssignmentError(f"need n >= 1, got {n}")
    probs = np.asarray(p, dtype=float)
    if probs.shape != (n,):
        raise AssignmentError(f"probability vector must have length {n}, got shape {probs.shape}")
    if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-12:
        raise AssignmentError("probabilities must be non-negative and sum to 1")
    rng = stream(seed, SETUP_STREAM)
    counts = np.zeros((n, len(sizes)), dtype=int)
    for k, size in enumerate(sizes):
        if size < 0:
            raise AssignmentError(f"round {k}: negative size {size}")
        counts[:, k] = np.bincount(rng.choice(n, size=size, p=probs), minlength=n)
    return Assignment(tuple(counts.tolist()))


class ComputeNode:
    """One peer of the scheduled protocol; the engine drives it as a simnet.Driver.

    The node owns its model, its round/step counters, the gradient sum of
    the current round, and one received-round counter per neighbor.  t
    counts the local steps taken over all rounds.  floor is the smallest
    received counter (infinite without neighbors); on_receive keeps it, so
    the lag gate is one compare.  The model starts at zero.  Each step
    samples uniformly from the whole dataset, with indices drawn from rng
    in blocks (rngs.sample_draws) that give the values one draw per step
    would give.
    """

    def __init__(
        self,
        node_id: int,
        objective,
        data,
        budgets,
        etas,
        neighbors,
        max_lag: float,
        rng: np.random.Generator,
    ):
        if len(budgets) != len(etas):
            raise ProtocolError("budgets and etas must cover the same rounds")
        if not max_lag >= 0:
            raise ProtocolError(f"max_lag must be >= 0, got {max_lag}")
        self.node_id = node_id
        self.budgets = list(budgets)
        self.etas = list(etas)
        self.max_lag = max_lag
        self.w = np.zeros(objective.dim)
        self.t = 0
        self.round_index = 0
        self.step_in_round = 0
        self.grad_sum = np.zeros(objective.dim)
        self._stepper = objective.stepper(self.w, self.grad_sum, data)
        self.received = {int(e): 0 for e in neighbors}
        self._dests = sorted(self.received)
        self.floor = min(self.received.values(), default=math.inf)
        self.rounds_total = len(self.budgets)
        self._samples = sample_draws(rng, data.m, sum(self.budgets))

    @property
    def finished(self) -> bool:
        return self.round_index >= self.rounds_total

    def check_sync(self) -> bool:
        """True when the node may take a step now; False means wait for messages."""
        return self.round_index - self.floor <= self.max_lag

    def on_receive(self, msg: Message) -> None:
        """Subtract a neighbor's round update and bump its received counter."""
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
        self._stepper.flush()
        self.w -= msg.payload
        self.received[sender] = count + 1
        if count == self.floor:
            self.floor = min(self.received.values())

    def advance(self) -> tuple[int, int, bool, list[tuple[int, Message]]]:
        """One SGD step on a uniformly drawn sample; closes the round it spends.

        Returns (round_index, step_in_round, round_closed, outbox) for the
        step just taken.  When the step spends the round's budget, every
        neighbor gets the round's update, computed once and shared by the
        messages.  The update is an array of its own, so the next round
        resets the gradient sum in place and later steps cannot alter
        messages in flight.  A round with a zero budget closes without a
        step, reported with step_in_round 0.  Closing a round flushes the
        stepper, so w and grad_sum show every step; between closes, w may
        still lack the steps of the round's open block.
        """
        rnd = self.round_index
        if rnd >= self.rounds_total:
            raise ProtocolError(f"node {self.node_id}: stepping after the final round")
        if rnd - self.floor > self.max_lag:
            raise ProtocolError(
                f"node {self.node_id}: stepping while {rnd - self.floor} rounds ahead "
                f"(bound {self.max_lag})"
            )
        budget = self.budgets[rnd]
        if budget:
            self._stepper.step(next(self._samples), self.etas[rnd])
            self.step_in_round += 1
            self.t += 1
        step = self.step_in_round
        if step < budget:
            return rnd, step, False, []
        self._stepper.flush()
        msg = Message(self.node_id, self.grad_sum * self.etas[rnd], rnd)
        outbox = [(dest, msg) for dest in self._dests]
        self.round_index += 1
        self.step_in_round = 0
        self.grad_sum.fill(0.0)
        return rnd, step, True, outbox

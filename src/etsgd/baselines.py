"""The drift-threshold gossip baseline to compare the scheduled protocol against.

ThresholdNode is a norm-triggered gossip worker: it mixes neighbor models
into every step and broadcasts its full model whenever the drift since
the last broadcast crosses a step-size-scaled threshold.  It drives the
same simulator as the scheduled nodes.

A step is one in-place update of the model w through the objective's
stepper, w <- (1 - deg * beta - alpha * a) * w + beta * S - alpha * V,
where the sample gradient is g = a * w + V (Logistic: a = l2 and V the
rank-1 p x^T; MeanQuadratic: a = 1 and V = -x), deg is the neighbor count
and S the sum of the neighbor models held, recomputed on every receive.
In exact arithmetic this is w - alpha * g(w) + beta * sum_e (w_e - w); in
floating point the weights move in the last bits against that form, and
with a Logistic objective they depend on the C library's exp and on the
rank-1 product, as the stepper's do.
"""
from __future__ import annotations

import math

import numpy as np

from .node import Message, ProtocolError
from .objectives import Dataset
from .rngs import sample_draws
from .schedules import DampedInverseTime, InverseTime, StepSchedule, step_size


class ThresholdNode:
    """Gossip SGD worker that broadcasts its model on a drift threshold.

    Each step applies the gradient and a consensus pull toward the last
    models received from the neighbors, as one in-place update of w
    through the objective's stepper (objectives.*Stepper.mix_step):

        w <- (1 - deg * beta) * w + beta * S - alpha * g(w),

    in exact arithmetic w - alpha * g(w) + beta * sum_e (w_e - w), with deg
    the neighbor count and S the sum of the neighbor models held.  S is
    recomputed from the held models on every receive, never updated by a
    difference, so no rounding builds up over a run.  After the step the
    node compares how far it has drifted (l1) from the model it last sent;
    crossing step_size(t) * coeff * dim triggers a broadcast of the full
    model.  round_index counts broadcasts, step_in_round the steps since
    the last one.  The engine drives it as a simnet.Driver, like
    ComputeNode.  The model starts at zero.  The gate's step_size(t + 1)
    is kept as the next step's alpha, and each step samples uniformly from
    the whole dataset, with indices drawn from rng in blocks
    (rngs.sample_draws) that give the values one draw per step would give.
    """

    def __init__(
        self,
        node_id: int,
        objective,
        data: Dataset,
        total_steps: int,
        step_sched: StepSchedule,
        mix_sched: StepSchedule,
        neighbor_ids,
        rng: np.random.Generator,
        coeff: float = 0.2,
    ):
        if total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {total_steps}")
        if not 0 < coeff < math.inf:  # NaN fails too
            raise ValueError(f"coeff must be a finite number > 0, got {coeff}")
        self.node_id = node_id
        self.total_steps = total_steps
        self.step_sched = step_sched
        self.mix_sched = mix_sched
        self.coeff = coeff
        self.w = np.zeros(objective.dim)
        # mix_step leaves the stepper's gradient sum alone, so nothing reads it
        self._stepper = objective.stepper(self.w, np.zeros(objective.dim), data)
        self.last_sent = self.w.copy()
        self.neighbor_models = {int(e): self.w.copy() for e in neighbor_ids}
        self._degree = len(self.neighbor_models)
        self._models_sum = np.zeros(objective.dim)
        self._diff = np.empty(objective.dim)
        self.t = 0
        self.round_index = 0
        self.step_in_round = 0
        self._alpha = step_size(step_sched, 0)
        self._samples = sample_draws(rng, data.m, total_steps)

    @property
    def finished(self) -> bool:
        return self.t >= self.total_steps

    def check_sync(self) -> bool:
        # the threshold protocol never blocks
        return True

    def on_receive(self, msg: Message) -> None:
        if msg.sender not in self.neighbor_models:
            raise ProtocolError(
                f"node {self.node_id} got a message from non-neighbor {msg.sender}"
            )
        # a payload is the sender's private copy and is never mutated, so it is kept as is
        self.neighbor_models[msg.sender] = msg.payload
        total = self._models_sum
        total.fill(0.0)
        for wm in self.neighbor_models.values():
            total += wm

    def advance(self):
        if self.finished:
            raise ProtocolError(f"node {self.node_id} advanced past its step budget")
        beta = step_size(self.mix_sched, self.t)
        self._stepper.mix_step(next(self._samples), self._alpha, 1.0 - self._degree * beta,
                               beta * self._models_sum)
        self.t += 1
        self.step_in_round += 1

        rnd, step = self.round_index, self.step_in_round
        diff = self._diff
        np.subtract(self.w, self.last_sent, diff)
        np.abs(diff, diff)
        # the ufunc reduction np.sum wraps, without the wrapper's cost
        drift = float(np.add.reduce(diff))
        self._alpha = step_size(self.step_sched, self.t)
        gate = self._alpha * self.coeff * self.w.size
        outbox = []
        fired = drift > gate
        if fired:
            # later steps write into self.w, not into this snapshot, so it
            # serves as both the drift reference and the payload
            self.last_sent = self.w.copy()
            out = Message(self.node_id, self.last_sent, self.round_index)
            outbox = [(dest, out) for dest in sorted(self.neighbor_models)]
            self.round_index += 1
            self.step_in_round = 0
        return rnd, step, fired, outbox


def default_threshold_schedules():
    """Step and mixing schedules the threshold baseline was tuned with."""
    return InverseTime(0.01, 1e-5), DampedInverseTime(0.01, 1e-5)

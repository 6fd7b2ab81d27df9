"""Reference training loops to compare the scheduled protocol against.

Two baselines live here.  serial_sgd is the single-worker loop; with a
sample schedule supplied it reproduces a one-node simulated run bit for
bit, which pins the distributed semantics to something auditable.
ThresholdNode is a norm-triggered gossip worker: it mixes neighbor models
into every step and broadcasts its full model whenever the drift since
the last broadcast crosses a step-size-scaled threshold.  It drives the
same simulator as the scheduled nodes.
"""
from __future__ import annotations

import numpy as np

from .node import Message, ProtocolError
from .objectives import Dataset
from .rngs import SAMPLE_STREAM, sample_draws, stream
from .schedules import (
    DampedInverseTime,
    InverseTime,
    SampleSchedule,
    StepSchedule,
    round_plan,
    step_size,
)


def serial_sgd(
    objective,
    data: Dataset,
    total_iterations: int,
    step_sched: StepSchedule,
    seed: int,
    *,
    sample_sched: SampleSchedule | None = None,
    w0: np.ndarray | None = None,
    loss_every: int = 0,
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Run plain sequential SGD and return (weights, sampled loss curve).

    Samples are drawn from the same stream a node with id 0 would use, and
    when sample_sched is given the step size is held constant within each
    round exactly as the distributed protocol does, so a one-node simulation
    with matching settings produces identical weights.
    """
    if total_iterations < 0:
        raise ValueError(f"total_iterations must be >= 0, got {total_iterations}")
    rng = stream(seed, SAMPLE_STREAM, 0)
    w = np.zeros(objective.dim) if w0 is None else np.array(w0, dtype=float)
    if sample_sched is not None:
        etas = []
        for size, start in zip(*round_plan(sample_sched, total_iterations)):
            etas.extend([step_size(step_sched, start)] * size)
    else:
        etas = [step_size(step_sched, t) for t in range(total_iterations)]

    m = data.m
    curve: list[tuple[int, float]] = []
    for t in range(total_iterations):
        if loss_every and t % loss_every == 0:
            curve.append((t, objective.loss(w, data)))
        idx = int(rng.integers(m))
        w = w - etas[t] * objective.grad(w, data, idx)
    if loss_every:
        curve.append((total_iterations, objective.loss(w, data)))
    return w, curve


class ThresholdNode:
    """Gossip SGD worker that broadcasts its model on a drift threshold.

    Each step applies the gradient and a consensus pull toward the last
    models received from the neighbors.  After the step the node compares
    how far it has drifted (l1) from the model it last sent; crossing
    step_size(t) * coeff * dim triggers a broadcast of the full model.
    round_index counts broadcasts, step_in_round the steps since the last
    one.  The engine drives it as a simnet.Driver, like ComputeNode.  The
    gate's step_size(t + 1) is kept as the next step's alpha, and sample
    indices come from rng in blocks (rngs.sample_draws) that give the
    values one draw per step would give.
    """

    def __init__(
        self,
        node_id: int,
        objective,
        data: Dataset,
        indices: np.ndarray,
        total_steps: int,
        step_sched: StepSchedule,
        mix_sched: StepSchedule,
        neighbor_ids,
        rng: np.random.Generator,
        coeff: float = 0.2,
        w0: np.ndarray | None = None,
    ):
        if total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {total_steps}")
        if coeff <= 0:
            raise ValueError(f"coeff must be positive, got {coeff}")
        self.node_id = node_id
        self.objective = objective
        self.data = data
        self.indices = np.asarray(indices, dtype=np.int64)
        self.total_steps = total_steps
        self.step_sched = step_sched
        self.mix_sched = mix_sched
        self.coeff = coeff
        self.w = np.zeros(objective.dim) if w0 is None else np.array(w0, dtype=float)
        self.last_sent = self.w.copy()
        self.neighbor_models = {int(e): self.w.copy() for e in neighbor_ids}
        self.t = 0
        self.round_index = 0
        self.step_in_round = 0
        self.broadcasts = 0
        self._alpha = step_size(step_sched, 0)
        self._samples = sample_draws(rng, self.indices, total_steps)

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

    def advance(self):
        if self.finished:
            raise ProtocolError(f"node {self.node_id} advanced past its step budget")
        alpha = self._alpha
        beta = step_size(self.mix_sched, self.t)
        g = self.objective.grad(self.w, self.data, next(self._samples))
        pull = np.zeros(self.w.shape)
        for wm in self.neighbor_models.values():
            pull += wm - self.w
        self.w = self.w - alpha * g + beta * pull
        self.t += 1
        self.step_in_round += 1

        rnd, step = self.round_index, self.step_in_round
        # the ufunc reduction np.sum wraps, without the wrapper's cost
        drift = float(np.add.reduce(np.abs(self.w - self.last_sent)))
        self._alpha = step_size(self.step_sched, self.t)
        gate = self._alpha * self.coeff * self.w.size
        outbox = []
        fired = drift > gate
        if fired:
            # advance rebinds self.w rather than writing into it, so one
            # snapshot serves as both the drift reference and the payload
            self.last_sent = self.w.copy()
            out = Message(self.node_id, self.last_sent, self.round_index)
            outbox = [(dest, out) for dest in sorted(self.neighbor_models)]
            self.broadcasts += 1
            self.round_index += 1
            self.step_in_round = 0
        return rnd, step, fired, outbox


def default_threshold_schedules(eta0: float = 0.01, mix0: float = 0.01, epsilon: float = 1e-5):
    """Step and mixing schedules the threshold baseline was tuned with."""
    return InverseTime(eta0, epsilon), DampedInverseTime(mix0, epsilon)

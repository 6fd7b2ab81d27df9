"""The drift-triggered gossip baseline, and a serial SGD loop that pins a one-node
quadratic run bit for bit and a one-node Logistic run to rounding."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from etsgd.baselines import ThresholdNode, default_threshold_schedules
from etsgd.node import ComputeNode, Message, ProtocolError
from etsgd.objectives import Dataset, Logistic, MeanQuadratic, gaussian_cloud, synthetic_blobs
from etsgd.rngs import SAMPLE_STREAM, sample_draws, stream
from etsgd.schedules import (
    DampedInverseTime,
    Diminishing,
    InverseTime,
    Linear,
    round_plan,
    step_size,
)
from etsgd.simnet import Simulation
from etsgd.topology import neighbors, ring
from test_node import assert_close_to_dense


def serial_sgd(objective, data, total_iterations, step_sched, seed, sample_sched):
    """Plain sequential SGD with a one-node run's samples and per-round step sizes.

    Samples come from the stream node 0 draws from, and the step size is held
    at each round's first-iteration value, as the distributed protocol does.
    """
    rng = stream(seed, SAMPLE_STREAM, 0)
    w = np.zeros(objective.dim)
    etas = []
    for size, start in zip(*round_plan(sample_sched, total_iterations)):
        etas.extend([step_size(step_sched, start)] * size)
    for t in range(total_iterations):
        w = w - etas[t] * objective.grad(w, data, int(rng.integers(data.m)))
    return w


class TestSerialSgd:
    @staticmethod
    def single_node_and_serial(obj, ds):
        sched = Linear(10, 1, 0)
        step = Diminishing(0.01, 0.01)
        # simulated single node: budgets 10,20,30,40 with the last trimmed
        budgets = [10, 20, 30, 40]
        starts = [0, 10, 30, 60]
        etas = [step_size(step, s) for s in starts]
        node_rng = stream(7, SAMPLE_STREAM, 0)
        node = ComputeNode(0, obj, ds, budgets, etas, [], 1, node_rng)
        Simulation([node], ring(1), seed=7).run()
        return node.w, serial_sgd(obj, ds, 100, step, 7, sched)

    def test_matches_single_node_simulation_exactly(self):
        # MeanQuadratic's stepper takes each step as the serial loop does
        w, w_serial = self.single_node_and_serial(
            MeanQuadratic(2), gaussian_cloud(3, 50, 2, (2.0, -1.0), 1.0))
        assert np.array_equal(w, w_serial)

    @pytest.mark.parametrize("l2", [0.0, 0.05])
    def test_logistic_matches_single_node_simulation_to_rounding(self, l2):
        # Logistic's stepper lands its steps in blocks, another summation order
        w, w_serial = self.single_node_and_serial(
            Logistic(2, 2, l2), synthetic_blobs(3, 50, 2, 2, 4.0))
        assert_close_to_dense(w, w_serial)


def make_threshold_node(total_steps=10, coeff=0.2, neighbor_ids=(1,), data=None, dim=2):
    obj = MeanQuadratic(dim)
    if data is None:
        data = gaussian_cloud(5, 10, dim, (0.0,) * dim, 1.0)
    alpha, beta = default_threshold_schedules()
    return ThresholdNode(0, obj, data, total_steps, alpha, beta, list(neighbor_ids),
                         np.random.default_rng(2), coeff=coeff)


class TestThresholdNode:
    def test_default_schedules(self):
        alpha, beta = default_threshold_schedules()
        assert alpha == InverseTime(0.01, 1e-5)
        assert beta == DampedInverseTime(0.01, 1e-5)
        assert step_size(beta, 0) == pytest.approx(0.02252)

    def test_isolated_node_is_plain_sgd(self):
        obj = MeanQuadratic(2)
        ds = gaussian_cloud(5, 10, 2, (2.0, -1.0), 1.0)
        alpha, beta = default_threshold_schedules()
        node = ThresholdNode(0, obj, ds, 50, alpha, beta, [], np.random.default_rng(3))
        while not node.finished:
            node.advance()
        w = np.zeros(2)
        rng = np.random.default_rng(3)
        for t in range(50):
            idx = int(rng.integers(ds.m))
            w = w - step_size(alpha, t) * obj.grad(w, ds, idx)
        assert np.allclose(node.w, w)

    def test_consensus_pull_toward_neighbor(self):
        # dataset pinned at the origin keeps the gradient zero at w=0,
        # isolating the mixing term: one step moves w by beta * (peer - w)
        data = Dataset(np.zeros((1, 2)))
        node = make_threshold_node(data=data)
        peer = np.array([1.0, -2.0])
        node.on_receive(Message(1, peer, 0))
        assert node.neighbor_models[1] is peer  # the payload is kept, not copied
        node.advance()
        assert np.allclose(node.w, 0.02252 * peer)

    def test_broadcast_fires_and_resets(self):
        node = make_threshold_node(coeff=1e-6, neighbor_ids=(1, 3))
        rnd, step, fired, outbox = node.advance()
        assert fired and (rnd, step) == (0, 1)
        assert [dest for dest, _ in outbox] == [1, 3]
        assert node.round_index == 1
        assert node.step_in_round == 0
        assert np.array_equal(node.last_sent, node.w)
        payload = outbox[0][1].payload
        assert np.array_equal(payload, node.w)
        assert node.last_sent is payload  # one snapshot per broadcast
        node.advance()
        assert np.array_equal(payload, outbox[0][1].payload)  # copy, not a view

    def test_tight_trigger_rarely_fires(self):
        node = make_threshold_node(total_steps=30, coeff=1.0)
        fired = sum(node.advance()[2] for _ in range(30))
        loose = make_threshold_node(total_steps=30, coeff=1e-6)
        loose_fired = sum(loose.advance()[2] for _ in range(30))
        assert fired <= loose_fired

    def test_finished_gate(self):
        node = make_threshold_node(total_steps=1)
        node.advance()
        assert node.finished
        with pytest.raises(ProtocolError):
            node.advance()

    def test_rejects_non_neighbor_model(self):
        node = make_threshold_node(neighbor_ids=(1,))
        with pytest.raises(ProtocolError):
            node.on_receive(Message(2, np.zeros(2), 0))

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            make_threshold_node(total_steps=-1)
        with pytest.raises(ValueError):
            make_threshold_node(coeff=0.0)

    @pytest.mark.parametrize("coeff", [float("nan"), float("inf")])
    def test_non_finite_coeff_rejected(self, coeff):
        # a NaN or infinite drift gate would never fire a broadcast
        with pytest.raises(ValueError, match="coeff must be a finite number > 0"):
            make_threshold_node(coeff=coeff)

    def test_rides_the_simulator(self):
        obj = MeanQuadratic(2)
        ds = gaussian_cloud(5, 20, 2, (1.0, 1.0), 1.0)
        alpha, beta = default_threshold_schedules()
        topo = ring(3)
        nodes = [
            ThresholdNode(i, obj, ds, 40, alpha, beta, neighbors(topo, i),
                          stream(4, SAMPLE_STREAM, i), coeff=0.2)
            for i in range(3)
        ]
        result = Simulation(nodes, topo, seed=4).run()
        assert all(n.finished for n in nodes)
        applies = [r for r in result.trace.records if r.kind == "apply"]
        assert len(applies) == result.messages_sent
        # each recorded completion is one broadcast of two messages
        assert result.messages_sent == 2 * sum(result.rounds_completed)

    def test_model_is_updated_in_place(self):
        # every step and every broadcast leaves self.w the same array; a payload is a copy
        node = make_threshold_node(coeff=1e-6, neighbor_ids=(1, 3))
        w = node.w
        for t in range(6):
            if t == 2:
                node.on_receive(Message(3, np.array([0.5, 1.5]), 0))
            fired, outbox = node.advance()[2:]
            assert fired and outbox[0][1].payload is not w
            assert node.w is w

    def test_second_model_from_a_neighbor_replaces_the_first(self):
        # gradient zero at w=0, so one step moves w by beta * S, S the held models' sum
        node = make_threshold_node(data=Dataset(np.zeros((1, 2))), neighbor_ids=(1, 3))
        first, second, other = np.array([4.0, -4.0]), np.array([1.0, -2.0]), np.array([0.5, 3.0])
        node.on_receive(Message(1, first, 0))
        node.on_receive(Message(3, other, 0))
        node.on_receive(Message(1, second, 1))
        assert node.neighbor_models == {1: second, 3: other}
        node.advance()
        assert np.allclose(node.w, 0.02252 * (second + other))


@st.composite
def mixing_runs(draw):
    """An objective, a degree, step and mixing rates, and neighbor models delivered at
    drawn steps, a neighbor's later model replacing its earlier one."""
    kind = draw(st.sampled_from(["logistic", "quadratic"]), label="objective")
    degree = draw(st.integers(0, 4), label="degree")
    steps = draw(st.integers(1, 40), label="steps")
    alpha0 = draw(st.floats(1e-3, 0.5), label="alpha0")
    # deg * beta < 1, so the pull contracts toward the neighbors' models
    beta0 = draw(st.floats(1e-3, 0.2), label="beta0")
    deliveries = []
    if degree:
        deliveries = draw(st.lists(st.tuples(st.integers(0, steps), st.integers(1, degree)),
                                   max_size=8), label="deliveries (step, neighbor)")
    return kind, degree, steps, alpha0, beta0, deliveries, draw(st.integers(0, 2**16))


@given(run=mixing_runs(), shape=st.tuples(st.integers(1, 12), st.integers(2, 10)),
       l2=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
def test_threshold_step_matches_dense_update(run, shape, l2):
    # the node's one in-place update through mix_step, against the dense
    # w - alpha * grad(w) + beta * sum_e (w_e - w) over the models held at each step
    kind, degree, steps, alpha0, beta0, deliveries, seed = run
    rng = np.random.default_rng(seed)
    features, classes = shape
    if kind == "logistic":
        ds = Dataset(rng.standard_normal((40, features)) / math.sqrt(features),
                     rng.integers(0, classes, 40))
        objective = Logistic(features, classes, l2)
    else:
        ds = Dataset(rng.standard_normal((40, features)))
        objective = MeanQuadratic(features)
    step_sched, mix_sched = Diminishing(alpha0, 0.1), Diminishing(beta0, 0.1)
    node = ThresholdNode(0, objective, ds, steps, step_sched, mix_sched,
                         range(1, degree + 1), np.random.default_rng(seed))
    samples = sample_draws(np.random.default_rng(seed), ds.m, steps)
    held = {e: np.zeros(objective.dim) for e in range(1, degree + 1)}
    w = np.zeros(objective.dim)
    for t in range(steps):
        for _, sender in [d for d in deliveries if d[0] == t]:
            model = rng.standard_normal(objective.dim)
            node.on_receive(Message(sender, model, 0))
            held[sender] = model
        pull = np.zeros(objective.dim)
        for wm in held.values():
            pull += wm - w
        g = objective.grad(w, ds, next(samples))
        w = w - step_size(step_sched, t) * g + step_size(mix_sched, t) * pull
        node.advance()
        assert_close_to_dense(node.w, w)

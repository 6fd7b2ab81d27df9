"""Node state machine and slot-assignment behavior."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from etsgd.node import (
    Assignment,
    AssignmentError,
    ComputeNode,
    Message,
    ProtocolError,
    setup,
)
from etsgd.objectives import STEP_BLOCK, Dataset, Logistic, MeanQuadratic, gaussian_cloud
from etsgd.rngs import SAMPLE_STREAM, SETUP_STREAM, sample_draws, stream
from etsgd.schedules import round_plan
from etsgd.simnet import DelayModel, Simulation
from etsgd.topology import neighbors
from test_simnet import SCHEDULES, connected_topologies


def make_node(budgets=(2, 2), etas=None, neighbors=(1,), max_lag=1, dim=2,
              data=None, seed=0, node_id=0):
    objective = MeanQuadratic(dim)
    if data is None:
        data = Dataset(np.arange(6, dtype=float).reshape(3, dim))
    if etas is None:
        etas = [0.1] * len(budgets)
    return ComputeNode(
        node_id, objective, data, list(budgets), list(etas), list(neighbors), max_lag,
        np.random.default_rng(seed),
    )


class TestAssignment:
    def test_counts_and_starts(self):
        asg = Assignment(([2, 0], [1, 2]))
        assert asg.round_sizes == (3, 2)
        assert asg.starts == (0, 3)
        assert Assignment(([], [])).starts == ()

    def test_counts_checked(self):
        with pytest.raises(AssignmentError, match="node 1: negative budget in round 1"):
            Assignment(([0, 2], [1, -2]))
        for ragged in (([2, 1], [1]), ([], [0]), ()):
            with pytest.raises(AssignmentError, match="every node with the same rounds"):
                Assignment(ragged)

    def test_setup_respects_probabilities(self):
        asg = setup(3, [10] * 3, [1.0, 0.0, 0.0], seed=4)
        assert asg.budgets == ([10, 10, 10], [0, 0, 0], [0, 0, 0])
        assert asg.round_sizes == (10, 10, 10)

    def test_setup_single_node(self):
        asg = setup(1, [3, 6], [1.0], seed=0)
        assert asg.budgets == ([3, 6],)

    def test_setup_counts_its_draws(self):
        # the counts of the owners rng.choice draws, round by round, on the setup stream
        rng = stream(5, SETUP_STREAM)
        owners = [rng.choice(3, size=size, p=[0.5, 0.3, 0.2]) for size in (7, 0, 12)]
        asg = setup(3, [7, 0, 12], [0.5, 0.3, 0.2], seed=5)
        assert asg.budgets == tuple(
            [int((row == i).sum()) for row in owners] for i in range(3)
        )

    def test_setup_deterministic(self):
        a = setup(4, [20] * 2, [0.25] * 4, seed=9)
        b = setup(4, [20] * 2, [0.25] * 4, seed=9)
        assert a == b

    def test_setup_validation(self):
        with pytest.raises(AssignmentError):
            setup(2, [5], [0.5, 0.4], seed=0)  # does not sum to 1
        with pytest.raises(AssignmentError):
            setup(2, [5], [1.5, -0.5], seed=0)
        with pytest.raises(AssignmentError):
            setup(2, [5], [1.0], seed=0)  # wrong length
        with pytest.raises(AssignmentError):
            setup(0, [5], [], seed=0)
        with pytest.raises(AssignmentError, match="round 0: negative size -1"):
            setup(2, [-1], [0.5, 0.5], seed=0)
        with pytest.raises(AssignmentError, match="round 1: negative size -3"):
            setup(2, [4, -3], [0.5, 0.5], seed=0)


class TestReceive:
    def test_applies_scaled_gradient_sum(self):
        # the payload is the sender's update, already scaled: subtracted unchanged
        node = make_node(etas=[0.5, 0.5])
        node.w = np.array([1.0, 1.0])
        node.on_receive(Message(1, np.array([2.0, 4.0]), 0))
        assert np.array_equal(node.w, [-1.0, -3.0])
        assert node.received[1] == 1

    def test_uses_rate_of_senders_round(self):
        # the sender scales each round's sum by the step size of that round
        data = Dataset(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        node = make_node(budgets=(1, 1), etas=[0.5, 0.1], data=data, seed=7)
        rng = np.random.default_rng(7)
        w = np.zeros(2)
        for rnd, eta in enumerate((0.5, 0.1)):
            g = w - data.features[int(rng.integers(3))]
            w = w - eta * g
            _, _, done, outbox = node.advance()
            assert done
            assert outbox[0][1].round_index == rnd
            assert np.array_equal(outbox[0][1].payload, eta * g)

    def test_rejects_non_neighbor(self):
        node = make_node(neighbors=(1, 2))
        with pytest.raises(ProtocolError):
            node.on_receive(Message(3, np.zeros(2), 0))

    @pytest.mark.parametrize("rnd", [2, -1])
    def test_rejects_round_outside_its_rounds(self, rnd):
        # a negative round would otherwise apply the last round's step size
        node = make_node(budgets=(1, 1), etas=[0.5, 0.1], node_id=3, neighbors=(1,))
        with pytest.raises(ProtocolError, match=f"node 3: message from node 1 for round {rnd},"):
            node.on_receive(Message(1, np.ones(2), rnd))
        assert np.array_equal(node.w, np.zeros(2))
        assert node.received[1] == 0


class TestSync:
    @staticmethod
    def node_in_round_3(received):
        """A node in round 3 that got rounds 0..count-1 from each neighbor."""
        node = make_node(budgets=(1,) * 5, etas=[0.1] * 5, neighbors=(1, 4), max_lag=1)
        node.round_index = 3
        for sender, count in received.items():
            for rnd in range(count):
                node.on_receive(Message(sender, np.zeros(2), rnd))
        return node

    def test_lag_and_check(self):
        node = self.node_in_round_3({1: 3, 4: 3})
        assert node.floor == 3
        assert node.check_sync()
        node = self.node_in_round_3({1: 1, 4: 3})
        assert node.floor == 1
        assert not node.check_sync()
        node = self.node_in_round_3({1: 2, 4: 2})
        assert node.check_sync()  # lag exactly at the bound may proceed

    def test_no_neighbors_never_waits(self):
        node = make_node(neighbors=())
        node.round_index = 10
        assert node.floor == math.inf
        assert node.check_sync()

    def test_stepping_while_stale_rejected(self):
        node = make_node(budgets=(1, 1, 1), etas=[0.1] * 3, max_lag=0)
        node.round_index = 1
        with pytest.raises(ProtocolError, match=r"stepping while 1 rounds ahead \(bound 0\)"):
            node.advance()


class TestRounds:
    def test_advance_reports_one_based_steps(self):
        node = make_node(budgets=(2,), etas=[0.1])
        rnd, step, done, outbox = node.advance()
        assert (rnd, step, done, outbox) == (0, 1, False, [])
        rnd, step, done, outbox = node.advance()
        assert (rnd, step, done) == (0, 2, True)
        assert [dest for dest, _ in outbox] == [1]
        assert node.finished

    def test_round_gradient_sum_broadcast(self):
        data = Dataset(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        node = make_node(budgets=(3,), etas=[0.25], data=data, seed=7)
        # the same three steps by hand: the payload is the step size times the gradient sum
        rng = np.random.default_rng(7)
        w, grad_sum = np.zeros(2), np.zeros(2)
        for _ in range(3):
            g = w - data.features[int(rng.integers(3))]
            w = w - 0.25 * g
            grad_sum = grad_sum + g
        outbox = None
        while not node.finished:
            _, _, done, out = node.advance()
            if done:
                outbox = out
        msg = outbox[0][1]
        assert np.array_equal(msg.payload, 0.25 * grad_sum)
        assert msg.round_index == 0
        assert msg.sender == 0

    def test_outbox_destinations_sorted(self):
        node = make_node(budgets=(1,), etas=[0.1], neighbors=(4, 1, 2))
        _, _, _, outbox = node.advance()
        assert [dest for dest, _ in outbox] == [1, 2, 4]

    def test_payload_isolated_from_later_steps(self):
        node = make_node(budgets=(1, 1), etas=[0.1, 0.1])
        _, _, _, outbox = node.advance()
        payload = outbox[0][1].payload.copy()
        node.advance()
        assert np.array_equal(outbox[0][1].payload, payload)

    def test_zero_budget_round_closes_without_step(self):
        node = make_node(budgets=(0, 1), etas=[0.1, 0.1])
        rnd, step, done, outbox = node.advance()
        assert (rnd, step, done) == (0, 0, True)
        assert np.array_equal(outbox[0][1].payload, np.zeros(2))
        rnd, step, done, _ = node.advance()
        assert (rnd, step, done) == (1, 1, True)

    def test_step_after_finish_rejected(self):
        node = make_node(budgets=(1,), etas=[0.1])
        node.advance()
        with pytest.raises(ProtocolError):
            node.advance()


class TestConstruction:
    def test_budget_eta_mismatch(self):
        with pytest.raises(ProtocolError):
            make_node(budgets=(1, 1), etas=[0.1])

    def test_negative_lag_bound(self):
        with pytest.raises(ProtocolError):
            make_node(max_lag=-1)

    def test_nan_lag_bound(self):
        # no lag exceeds NaN, so the gate would never hold the node back
        with pytest.raises(ProtocolError):
            make_node(max_lag=float("nan"))

    def test_same_seed_same_samples(self):
        a = make_node(budgets=(5,), etas=[0.1], seed=3)
        b = make_node(budgets=(5,), etas=[0.1], seed=3)
        for _ in range(5):
            a.advance()
            b.advance()
        assert np.array_equal(a.w, b.w)


class ReferenceNode(ComputeNode):
    """ComputeNode with the receiver-side multiply: a round's message carries its raw
    gradient sum, and each receiver scales it by its own etas[rnd] on receipt."""

    def __init__(self, node_id, objective, data, *args):
        super().__init__(node_id, objective, data, *args)
        self.objective, self.data = objective, data

    def on_receive(self, msg: Message) -> None:
        count = self.received[msg.sender]
        self.w -= self.etas[msg.round_index] * msg.payload
        self.received[msg.sender] = count + 1
        if count == self.floor:
            self.floor = min(self.received.values())

    def advance(self):
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


@given(
    data=st.data(),
    topo=connected_topologies(),
    sched=SCHEDULES,
    iterations=st.integers(1, 30),
    max_lag=st.integers(0, 3),
    factor=st.floats(1.0, 5.0),
    lo=st.floats(0.0, 0.1),
    seed=st.integers(0, 2**16),
)
def test_scaled_broadcast_matches_reference(data, topo, sched, iterations, max_lag, factor, lo,
                                            seed):
    # runs drawn as test_engine_properties draws them
    hi = data.draw(st.floats(lo, 20.0), label="network hi")
    straggler = (data.draw(st.integers(0, topo.n - 1), label="straggler"), factor)
    budgets, _ = round_plan(sched, iterations)
    # one step size per round, so an update scaled by another round's rate would show
    etas = [0.05 / (1 + k) for k in range(len(budgets))]
    ds = gaussian_cloud(42, 20, 2, (0.0, 0.0), 1.0)

    def run(node_class):
        nodes = [
            node_class(i, MeanQuadratic(2), ds, budgets, etas, neighbors(topo, i), max_lag,
                       stream(seed, SAMPLE_STREAM, i))
            for i in range(topo.n)
        ]
        sim = Simulation(nodes, topo, DelayModel(network=(lo, hi)), seed)
        sim.set_straggler(*straggler)
        return sim.run().trace, b"".join(node.w.tobytes() for node in nodes)

    trace, weights = run(ComputeNode)
    reference_trace, reference_weights = run(ReferenceNode)
    assert weights == reference_weights
    assert trace == reference_trace


def assert_close_to_dense(w, reference):
    """A Logistic stepper lands its steps in another summation order than the dense
    per-step loop: the two agree to 1e-12 of the reference's largest entry, or absolutely
    below 1."""
    bound = 1e-12 * max(1.0, float(np.max(np.abs(reference))))
    assert float(np.max(np.abs(w - reference))) <= bound


def drive_against_dense(objective, ds, budgets, etas, deliveries, seed):
    """Run one ComputeNode and the dense per-step loop side by side.

    deliveries maps an advance call's position (len(calls) for after the last one) to
    a payload that both receive just before it, as from neighbor 1 in round 0.  Returns
    the node's and the loop's broadcast payloads, then their final models.
    """
    node = ComputeNode(0, objective, ds, budgets, etas, [1], math.inf,
                       stream(seed, SAMPLE_STREAM, 0))
    samples = sample_draws(stream(seed, SAMPLE_STREAM, 0), ds.m, sum(budgets))
    w, grad_sum = np.zeros(objective.dim), np.zeros(objective.dim)
    sent, expected = [], []
    calls = sum(max(b, 1) for b in budgets)
    step = 0
    rnd = 0
    for call in range(calls + 1):
        if call in deliveries:
            node.on_receive(Message(1, deliveries[call], 0))
            w -= deliveries[call]
        if call == calls:
            break
        _, _, closed, outbox = node.advance()
        if budgets[rnd]:
            g = objective.grad(w, ds, next(samples))
            w -= etas[rnd] * g
            grad_sum += g
            step += 1
        if step == budgets[rnd]:
            assert closed
            sent.append(outbox[0][1].payload)
            expected.append(grad_sum * etas[rnd])
            grad_sum.fill(0.0)
            step = 0
            rnd += 1
    assert node.finished
    return sent, expected, node.w, w


@st.composite
def dense_runs(draw):
    """Budgets shorter and longer than STEP_BLOCK, zero included, a step size per
    round, and payloads delivered at drawn points."""
    budgets = draw(st.lists(st.integers(0, 3 * STEP_BLOCK), min_size=1, max_size=5),
                   label="budgets")
    etas = draw(st.lists(st.floats(1e-3, 0.5), min_size=len(budgets), max_size=len(budgets)),
                label="etas")
    calls = sum(max(b, 1) for b in budgets)
    points = draw(st.sets(st.integers(0, calls), max_size=6), label="delivery points")
    return budgets, etas, points, draw(st.integers(0, 2**16), label="seed")


@given(
    run=dense_runs(),
    features=st.integers(1, 20),
    classes=st.integers(2, 12),
    l2=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
)
def test_logistic_stepper_matches_dense_steps(run, features, classes, l2):
    budgets, etas, points, seed = run
    rng = np.random.default_rng(seed)
    # rows of norm about 1 keep the drawn step sizes inside the stable range, so the
    # rounding of one summation order is not amplified step after step
    ds = Dataset(rng.standard_normal((40, features)) / math.sqrt(features),
                 rng.integers(0, classes, 40))
    objective = Logistic(features, classes, l2)
    deliveries = {c: 0.1 * rng.standard_normal(objective.dim) for c in sorted(points)}
    sent, expected, w, w_dense = drive_against_dense(objective, ds, budgets, etas, deliveries,
                                                     seed)
    assert len(sent) == len(expected) == len(budgets)
    for payload, reference in zip(sent, expected):
        assert_close_to_dense(payload, reference)
    assert_close_to_dense(w, w_dense)


@given(run=dense_runs(), dim=st.integers(1, 5))
def test_quadratic_stepper_is_the_dense_loop(run, dim):
    budgets, etas, points, seed = run
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.standard_normal((40, dim)))
    deliveries = {c: 0.1 * rng.standard_normal(dim) for c in sorted(points)}
    sent, expected, w, w_dense = drive_against_dense(MeanQuadratic(dim), ds, budgets, etas,
                                                     deliveries, seed)
    assert all(np.array_equal(a, b) for a, b in zip(sent, expected))
    assert np.array_equal(w, w_dense)

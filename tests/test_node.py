"""Node state machine and slot-assignment behavior."""
import numpy as np
import pytest

from etsgd.node import (
    Assignment,
    AssignmentError,
    ComputeNode,
    Message,
    ProtocolError,
    assignment_from_budgets,
    setup,
)
from etsgd.objectives import Dataset, MeanQuadratic
from etsgd.schedules import Constant, Linear


def make_node(budgets=(2, 2), etas=None, neighbors=(1,), max_lag=1, dim=2,
              data=None, seed=0, node_id=0):
    objective = MeanQuadratic(dim)
    if data is None:
        data = Dataset(np.arange(6, dtype=float).reshape(3, dim))
    if etas is None:
        etas = [0.1] * len(budgets)
    return ComputeNode(
        node_id, objective, data, np.arange(data.m), list(budgets), list(etas),
        list(neighbors), max_lag, np.random.default_rng(seed),
    )


class TestAssignment:
    def test_counts_and_starts(self):
        asg = Assignment(2, ((0, 1, 0), (1, 1)))
        assert asg.round_sizes == (3, 2)
        assert asg.starts == (0, 3)
        assert asg.count(0, 0) == 2
        assert asg.count(1, 0) == 0
        assert [asg.count(i, 1) for i in range(2)] == [1, 2]
        assert Assignment(2, ()).starts == ()

    def test_owner_range_checked(self):
        with pytest.raises(AssignmentError):
            Assignment(2, ((0, 2),))
        with pytest.raises(AssignmentError):
            Assignment(0, ())

    def test_setup_respects_probabilities(self):
        asg = setup(3, Constant(10), [1.0, 0.0, 0.0], seed=4, rounds=3)
        assert all(owner == 0 for rnd in asg.slots for owner in rnd)
        assert asg.round_sizes == (10, 10, 10)

    def test_setup_single_node(self):
        asg = setup(1, Linear(3, 1, 0), [1.0], seed=0, rounds=2)
        assert asg.slots == ((0, 0, 0), (0, 0, 0, 0, 0, 0))

    def test_setup_deterministic(self):
        a = setup(4, Constant(20), [0.25] * 4, seed=9, rounds=2)
        b = setup(4, Constant(20), [0.25] * 4, seed=9, rounds=2)
        assert a == b

    def test_setup_validation(self):
        with pytest.raises(AssignmentError):
            setup(2, Constant(5), [0.5, 0.4], seed=0, rounds=1)  # does not sum to 1
        with pytest.raises(AssignmentError):
            setup(2, Constant(5), [1.5, -0.5], seed=0, rounds=1)
        with pytest.raises(AssignmentError):
            setup(2, Constant(5), [1.0], seed=0, rounds=1)  # wrong length
        with pytest.raises(AssignmentError):
            setup(0, Constant(5), [], seed=0, rounds=1)
        with pytest.raises(AssignmentError):
            setup(2, Constant(5), [0.5, 0.5], seed=0, rounds=-1)

    def test_from_budgets_uniform_split(self):
        # equal budgets on every node lay out round-robin, one share per node
        asg = assignment_from_budgets([[2, 2]] * 3)
        assert asg.slots == ((0, 1, 2, 0, 1, 2),) * 2
        for rnd in range(2):
            for node in range(3):
                assert asg.count(rnd, node) == 2

    def test_from_budgets_interleaves_and_pads(self):
        asg = assignment_from_budgets([[2, 1], [1]])
        assert asg.slots == ((0, 1, 0), (0,))
        assert [asg.count(i, 0) for i in range(2)] == [2, 1]
        assert [asg.count(i, 1) for i in range(2)] == [1, 0]

    def test_from_budgets_validation(self):
        with pytest.raises(AssignmentError):
            assignment_from_budgets([])
        with pytest.raises(AssignmentError):
            assignment_from_budgets([[1, -2]])


class TestReceive:
    def test_applies_scaled_gradient_sum(self):
        node = make_node(etas=[0.5, 0.5])
        node.w = np.array([1.0, 1.0])
        node.on_receive(Message(1, np.array([2.0, 4.0]), 0))
        assert np.array_equal(node.w, [0.0, -1.0])
        assert node.received[1] == 1

    def test_uses_rate_of_senders_round(self):
        node = make_node(budgets=(1, 1), etas=[0.5, 0.1])
        node.w = np.zeros(2)
        node.on_receive(Message(1, np.array([1.0, 0.0]), 1))
        assert np.array_equal(node.w, [-0.1, 0.0])

    def test_rejects_non_neighbor(self):
        node = make_node(neighbors=(1, 2))
        with pytest.raises(ProtocolError):
            node.on_receive(Message(3, np.zeros(2), 0))


class TestSync:
    def test_lag_and_check(self):
        node = make_node(budgets=(1,) * 5, etas=[0.1] * 5, neighbors=(1, 4), max_lag=1)
        node.round_index = 3
        node.received = {1: 3, 4: 3}
        assert node.lag() == 0
        assert node.check_sync()
        node.received = {1: 1, 4: 3}
        assert node.lag() == 2
        assert not node.check_sync()
        node.received = {1: 2, 4: 2}
        assert node.check_sync()  # lag exactly at the bound may proceed

    def test_no_neighbors_never_waits(self):
        node = make_node(neighbors=())
        node.round_index = 10
        assert node.lag() == 0
        assert node.check_sync()

    def test_stepping_while_stale_rejected(self):
        node = make_node(budgets=(1, 1, 1), etas=[0.1] * 3, max_lag=0)
        node.round_index = 1
        with pytest.raises(ProtocolError):
            node.local_step()


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
        node = make_node(budgets=(3,), etas=[0.0], data=data, seed=7)
        # zero step size freezes w at the origin, so each gradient is -x
        expected = np.zeros(2)
        rng = np.random.default_rng(7)
        for _ in range(3):
            expected -= data.features[int(rng.integers(3))]
        outbox = None
        while not node.finished:
            _, _, done, out = node.advance()
            if done:
                outbox = out
        msg = outbox[0][1]
        assert np.allclose(msg.payload, expected)
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

    def test_step_past_budget_rejected(self):
        node = make_node(budgets=(1,), etas=[0.1])
        node.local_step()
        with pytest.raises(ProtocolError):
            node.local_step()

    def test_step_after_finish_rejected(self):
        node = make_node(budgets=(1,), etas=[0.1])
        node.advance()
        with pytest.raises(ProtocolError):
            node.local_step()

    def test_close_mid_round_rejected(self):
        node = make_node(budgets=(2,), etas=[0.1])
        node.local_step()
        with pytest.raises(ProtocolError):
            node.end_of_round()


class TestConstruction:
    def test_budget_eta_mismatch(self):
        with pytest.raises(ProtocolError):
            make_node(budgets=(1, 1), etas=[0.1])

    def test_empty_sample_pool(self):
        objective = MeanQuadratic(2)
        data = Dataset(np.zeros((2, 2)))
        with pytest.raises(ProtocolError):
            ComputeNode(0, objective, data, np.array([]), [1], [0.1], [1], 1,
                        np.random.default_rng(0))

    def test_negative_lag_bound(self):
        with pytest.raises(ProtocolError):
            make_node(max_lag=-1)

    def test_initial_model_copied(self):
        w0 = np.array([1.0, 2.0])
        node = make_node()
        node2 = ComputeNode(0, MeanQuadratic(2), Dataset(np.zeros((1, 2))),
                            np.arange(1), [1], [0.1], [], 0,
                            np.random.default_rng(0), w0=w0)
        w0[0] = 99.0
        assert node2.w[0] == 1.0
        assert np.array_equal(node.w, np.zeros(2))

    def test_same_seed_same_samples(self):
        a = make_node(budgets=(5,), etas=[0.1], seed=3)
        b = make_node(budgets=(5,), etas=[0.1], seed=3)
        for _ in range(5):
            a.local_step()
            b.local_step()
        assert np.array_equal(a.w, b.w)

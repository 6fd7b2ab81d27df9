"""Discrete-event engine: determinism, tracing, stragglers, failure modes."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from etsgd.consistency import verify_round_delay
from etsgd.node import ComputeNode, ProtocolError
from etsgd.objectives import Dataset, MeanQuadratic, gaussian_cloud
from etsgd.rngs import SAMPLE_STREAM, stream
from etsgd.schedules import Constant, Linear, round_plan
from etsgd.simnet import EVENTS, DeadlockError, DelayModel, SimError, Simulation, Trace
from etsgd.topology import complete, from_edges, line, neighbors, ring


def build_nodes(n, budgets, max_lag=1, seed=0, topo=None):
    topo = topo if topo is not None else ring(n)
    objective = MeanQuadratic(2)
    data = gaussian_cloud(42, 20, 2, (0.0, 0.0), 1.0)
    etas = [0.01] * len(budgets)
    nodes = [
        ComputeNode(i, objective, data, list(budgets), etas, neighbors(topo, i), max_lag,
                    stream(seed, SAMPLE_STREAM, i))
        for i in range(n)
    ]
    return nodes, topo


def make_trace(n, edges, rows):
    """A hand-made trace: each row (time, node, kind, round, step, peer) appended to the columns."""
    trace = Trace(n, edges)
    for time, node, kind, rnd, step, peer in rows:
        values = (time, node, EVENTS.index(kind), rnd, step, peer)
        for column, value in zip(trace.columns, values):
            column.append(value)
    return trace


class TestDelayModel:
    def test_validation(self):
        for lo, hi in ((-0.1, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.1, math.nan), (0.1, math.inf)):
            with pytest.raises(SimError, match="^compute latency range"):
                DelayModel(compute=(lo, hi))
            with pytest.raises(SimError, match="^network latency range"):
                DelayModel(network=(lo, hi))

    def test_draws_inside_range(self):
        # two nodes that never wait, one step per round: each gap between a
        # node's steps is one compute draw, and each delivery lands one
        # network draw after the round_end that sent it
        nodes, topo = build_nodes(2, [1] * 50, max_lag=math.inf, topo=line(2))
        dm = DelayModel(compute=(0.2, 0.4), network=(1.0, 1.5))
        records = Simulation(nodes, topo, dm, seed=0).run().trace.records
        sent = {(r.node, r.round_index): r.time for r in records if r.kind == "round_end"}
        for node in range(2):
            times = [0.0] + [r.time for r in records if r.kind == "grad" and r.node == node]
            assert len(times) == 51
            for before, after in zip(times, times[1:]):
                assert 0.2 <= after - before <= 0.4
        applies = [r for r in records if r.kind == "apply"]
        assert len(applies) == 100
        for r in applies:
            assert 1.0 <= r.time - sent[int(r.detail[len("from="):]), r.round_index] <= 1.5

    def test_straggler_factor_scales(self):
        # one node: the run lasts exactly its compute draws
        plain = Simulation(*build_nodes(1, [10, 10]), seed=1).run().duration_ms
        sim = Simulation(*build_nodes(1, [10, 10]), seed=1)
        sim.set_straggler(0, 5.0)
        scaled = sim.run().duration_ms
        assert scaled == pytest.approx(5 * plain)


class TestEngine:
    def test_runs_to_completion(self):
        nodes, topo = build_nodes(5, [10, 20, 30])
        result = Simulation(nodes, topo, seed=0).run()
        assert result.rounds_completed == [3] * 5
        assert result.messages_sent == 5 * 3 * 2
        assert result.duration_ms > 0
        assert all(f <= result.duration_ms for f in result.node_finish_ms)

    def test_deterministic(self):
        nodes_a, topo = build_nodes(4, [5, 5], seed=3)
        nodes_b, _ = build_nodes(4, [5, 5], seed=3)
        a = Simulation(nodes_a, topo, seed=3).run()
        b = Simulation(nodes_b, topo, seed=3).run()
        assert a.duration_ms == b.duration_ms
        assert a.trace.records == b.trace.records
        assert np.array_equal(nodes_a[2].w, nodes_b[2].w)

    def test_single_node_no_messages(self):
        nodes, topo = build_nodes(1, [10, 10])
        result = Simulation(nodes, topo, seed=0).run()
        assert result.messages_sent == 0
        assert result.rounds_completed == [2]
        # 20 compute draws from U(0.1, 1.0) bound the virtual duration
        assert 20 * 0.1 <= result.duration_ms <= 20 * 1.0

    def test_trace_record_shapes(self):
        nodes, topo = build_nodes(3, [4, 4])
        result = Simulation(nodes, topo, seed=1).run()
        records = result.trace.records
        kinds = {r.kind for r in records}
        assert kinds <= {"grad", "apply", "round_end", "wait_enter", "wait_exit"}
        grads = [r for r in records if r.kind == "grad"]
        assert len(grads) == 3 * 8
        assert all(1 <= r.step <= 4 for r in grads)
        round_ends = [r for r in records if r.kind == "round_end"]
        assert len(round_ends) == 3 * 2
        assert all(r.detail == "msgs=2" for r in round_ends)
        applies = [r for r in records if r.kind == "apply"]
        assert len(applies) == result.messages_sent
        assert all(r.step == -1 and r.detail.startswith("from=") for r in applies)
        times = [r.time for r in records]
        assert times == sorted(times)

    def test_straggler_unity_factor_is_identity(self):
        plain = Simulation(*build_nodes(3, [5, 5]), seed=2).run()
        sim = Simulation(*build_nodes(3, [5, 5]), seed=2)
        sim.set_straggler(0, 1.0)
        assert sim.run().duration_ms == plain.duration_ms

    def test_straggler_slows_its_node(self):
        plain = Simulation(*build_nodes(3, [20, 20]), seed=2).run()
        sim = Simulation(*build_nodes(3, [20, 20]), seed=2)
        sim.set_straggler(1, 5.0)
        slowed = sim.run()
        assert slowed.node_finish_ms[1] > plain.node_finish_ms[1] * 2
        assert slowed.duration_ms > plain.duration_ms

    def test_lockstep_bound_forces_waiting(self):
        nodes, topo = build_nodes(3, [10] * 4, max_lag=0)
        sim = Simulation(nodes, topo, seed=0)
        sim.set_straggler(0, 5.0)
        result = sim.run()
        kinds = [r.kind for r in result.trace.records]
        assert "wait_enter" in kinds and "wait_exit" in kinds
        assert result.rounds_completed == [4] * 3

    def test_run_only_once(self):
        sim = Simulation(*build_nodes(2, [2]), seed=0)
        sim.run()
        with pytest.raises(SimError):
            sim.run()

    def test_straggler_validation(self):
        sim = Simulation(*build_nodes(2, [2]), seed=0)
        with pytest.raises(SimError):
            sim.set_straggler(9, 2.0)
        for factor in (0.5, math.nan, math.inf):
            with pytest.raises(SimError, match="straggler factor"):
                sim.set_straggler(0, factor)

    def test_node_count_must_match_topology(self):
        nodes, _ = build_nodes(3, [2])
        with pytest.raises(SimError):
            Simulation(nodes, ring(4), seed=0)

    def test_deadlock_reported(self):
        class Stuck:
            """Driver-surface stub that blocks forever."""

            def __init__(self, node_id):
                self.node_id = node_id
                self.finished = False
                self.round_index = 0
                self.step_in_round = 0

            def check_sync(self):
                return False

        topo = ring(2)
        with pytest.raises(DeadlockError) as err:
            Simulation([Stuck(0), Stuck(1)], topo, seed=0).run()
        assert err.value.blocked[0]["node"] == 0

    def test_deadlock_reports_received_rounds(self):
        # node 0 quits after one round, so at d=0 its neighbors block in round 2;
        # it keeps the step sizes of all three rounds to apply what they send
        nodes, topo = build_nodes(3, [2, 2, 2], max_lag=0)
        nodes[0].rounds_total = 1
        with pytest.raises(DeadlockError) as err:
            Simulation(nodes, topo, seed=0).run()
        blocked = err.value.blocked
        assert [b["node"] for b in blocked] == [1, 2]
        assert all(b["round"] == 2 for b in blocked)
        for b in blocked:
            assert b["received"] == nodes[b["node"]].received

    def test_message_past_receivers_rounds_rejected(self):
        # at d=0 node 1 closes round 1 while node 0, which has one round, is done
        nodes, topo = build_nodes(3, [2, 2, 2], max_lag=0)
        nodes[0] = build_nodes(3, [2], max_lag=0)[0][0]
        with pytest.raises(ProtocolError, match="node 0: message from node [12] for round 1,"):
            Simulation(nodes, topo, seed=0).run()


@st.composite
def connected_topologies(draw):
    n = draw(st.integers(1, 6), label="n")
    kind = draw(st.sampled_from(["ring", "line", "complete", "edges"]), label="kind")
    if kind != "edges":
        return {"ring": ring, "line": line, "complete": complete}[kind](n)
    # a random spanning tree keeps the graph connected; the extra edges add cycles
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return from_edges(n, tree + draw(st.lists(pair, max_size=n) if n > 1 else st.just([])))


SCHEDULES = st.one_of(
    st.integers(1, 3).map(Constant),
    st.tuples(st.integers(1, 3), st.integers(0, 2), st.integers(0, 2)).map(lambda apb: Linear(*apb)),
)


def drawn_run(topo, budgets, max_lag, straggler, network, seed):
    nodes = build_nodes(topo.n, budgets, max_lag, seed, topo)[0]
    sim = Simulation(nodes, topo, DelayModel(network=network), seed)
    sim.set_straggler(*straggler)
    return sim.run(), nodes


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
def test_engine_properties(
    tmp_path_factory, data, topo, sched, iterations, max_lag, factor, lo, seed
):
    hi = data.draw(st.floats(lo, 20.0), label="network hi")
    straggler = (data.draw(st.integers(0, topo.n - 1), label="straggler"), factor)
    budgets, _ = round_plan(sched, iterations)
    args = (topo, budgets, max_lag, straggler, (lo, hi), seed)
    result, nodes = drawn_run(*args)  # raises DeadlockError on a deadlock
    records = result.trace.records
    assert result.rounds_completed == [len(budgets)] * topo.n
    for node in nodes:
        # the lag gate's incremental floor agrees with a fresh minimum
        assert node.floor == min(node.received.values(), default=math.inf)
    assert verify_round_delay(result.trace, max_lag).ok
    expected = {i: "wait_enter" for i in range(topo.n)}
    for prev, rec in zip([None, *records], records):
        if rec.kind not in ("wait_enter", "wait_exit"):
            continue
        # a node's waits alternate enter, exit, enter, ...
        assert rec.kind == expected[rec.node]
        expected[rec.node] = "wait_exit" if rec.kind == "wait_enter" else "wait_enter"
        if rec.kind == "wait_exit":
            # a node resumes in the delivery that unblocks it
            assert prev.kind == "apply" and prev.node == rec.node and prev.time == rec.time
    assert set(expected.values()) == {"wait_enter"}
    assert drawn_run(*args)[0].trace.records == records
    # write -> read -> write gives the same bytes and the same records
    first, second = (tmp_path_factory.getbasetemp() / f"drawn{i}.trace" for i in (1, 2))
    result.trace.write(first)
    back = Trace.read(first)
    back.write(second)
    assert second.read_bytes() == first.read_bytes()
    assert (back.n, back.edges, back.records) == (topo.n, result.trace.edges, records)


def test_trace_columns_hold_at_most_32_bytes_per_record():
    # one typed slot per field, not one object per record
    nodes, topo = build_nodes(8, [1] * 200, max_lag=2, topo=complete(8))
    trace = Simulation(nodes, topo, DelayModel(network=(0.1, 5.0)), seed=7).run().trace
    records = len(trace.times)
    assert records > 10_000
    assert all(len(column) == records for column in trace.columns)
    assert sum(sys.getsizeof(column) for column in trace.columns) <= 32 * records


class TestTraceIO:
    def test_write_read_round_trip(self, tmp_path):
        nodes, topo = build_nodes(3, [3, 3])
        result = Simulation(nodes, topo, seed=5).run()
        path = tmp_path / "run.trace"
        result.trace.write(path)
        back = Trace.read(path)
        assert back.n == result.trace.n
        assert back.edges == result.trace.edges
        assert back.records == result.trace.records
        assert back.topology().edges == topo.edges

    def test_negative_step_round_trips_as_blank(self, tmp_path):
        trace = make_trace(2, ((0, 1),), [(0.5, 1, "apply", 0, -1, 0)])
        path = tmp_path / "t.trace"
        trace.write(path)
        text = path.read_text()
        assert "0.5,1,apply,0,," in text
        assert Trace.read(path).records[0].step == -1

    @pytest.mark.parametrize(
        "row",
        [(0.5, 1, "apply", 0, "", "from=x"), (0.5, 1, "apply", 0, "", "from=2"),
         (0.5, 1, "grad", 0, 1, "msgs=1"), (0.5, 1, "bogus", 0, 1, "")],
    )
    def test_rows_with_bad_kind_or_detail_rejected(self, tmp_path, row):
        path = tmp_path / "bad.trace"
        path.write_text("# nodes 2\n# edge 0 1\n" + ",".join(map(str, row)) + "\n")
        with pytest.raises(SimError, match=r":3: (event|detail): "):
            Trace.read(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# nodes 2\n# edge 0 1\ntime,node,event,round,h,detail\n1.0,0,grad\n")
        with pytest.raises(SimError):
            Trace.read(path)

    @pytest.mark.parametrize(
        "line, field",
        [
            ("abc,0,grad,0,1,", "time"),
            ("1.0,x,grad,0,1,", "node"),
            ("1.0,0,grad,1.5,1,", "round"),
            ("1.0,0,grad,0,h,", "h"),
            ("1.0,0,bogus,0,1,", "event"),
            ("1.0,2,grad,0,1,", "node"),
            ("1.0,-1,grad,0,1,", "node"),
            ("1.0,0,apply,0,,from=x", "detail"),
            ("1.0,0,apply,0,,from=", "detail"),
            ("1.0,0,round_end,0,1,msgs=y", "detail"),
            ("1.0,0,grad,0,1,from=1", "detail"),
        ],
    )
    def test_bad_field_names_line_and_field(self, tmp_path, line, field):
        path = tmp_path / "bad.trace"
        path.write_text(f"# nodes 2\n# edge 0 1\ntime,node,event,round,h,detail\n"
                        f"0.5,1,apply,0,,from=0\n{line}\n")
        with pytest.raises(SimError) as err:
            Trace.read(path)
        assert str(err.value).startswith(f"{path}:5: {field}: ")

    @pytest.mark.parametrize(
        "text, line, field",
        [
            ("# nodes x\n# edge 0 1\n", 1, "nodes"),
            ("# nodes 2\n# edge 0\n", 2, "edge"),
            ("# nodes 2\n# edge 0 y\n", 2, "edge"),
            ("# nodes 0\n", 1, "nodes"),
            ("# nodes 2\n# nodes 3\n", 2, "nodes"),
            ("# edge 0 1\n# nodes 2\n", 1, "nodes"),
            ("0.5,0,grad,0,1,\n# nodes 2\n", 1, "nodes"),
            ("# nodes 2\n# edge 1 1\n", 2, "edge"),
            ("# nodes 2\n# edge 1 0\n", 2, "edge"),
            ("# nodes 2\n# edge 0 2\n", 2, "edge"),
        ],
    )
    def test_bad_header_names_line_and_field(self, tmp_path, text, line, field):
        path = tmp_path / "bad.trace"
        path.write_text(f"{text}time,node,event,round,h,detail\n")
        with pytest.raises(SimError) as err:
            Trace.read(path)
        assert str(err.value).startswith(f"{path}:{line}: {field}: ")

    @pytest.mark.parametrize("last", ["1.0", "nan", "inf"])
    def test_time_must_not_go_backwards(self, tmp_path, last):
        # equal times are fine; an earlier or a non-finite time is not
        path = tmp_path / "bad.trace"
        path.write_text("# nodes 1\ntime,node,event,round,h,detail\n"
                        f"2.0,0,grad,0,1,\n2.0,0,grad,0,2,\n{last},0,grad,0,3,\n")
        with pytest.raises(SimError) as err:
            Trace.read(path)
        assert str(err.value).startswith(f"{path}:5: time: ")

    def test_negative_time_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# nodes 1\ntime,node,event,round,h,detail\n-0.5,0,grad,0,1,\n")
        with pytest.raises(SimError) as err:
            Trace.read(path)
        assert str(err.value).startswith(f"{path}:3: time: ")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("time,node,event,round,h,detail\n")
        with pytest.raises(SimError):
            Trace.read(path)

    def test_float_times_survive_exactly(self, tmp_path):
        t = 0.30000000000000004
        trace = make_trace(1, (), [(t, 0, "grad", 0, 1, -1)])
        path = tmp_path / "t.trace"
        trace.write(path)
        assert Trace.read(path).records[0].time == t

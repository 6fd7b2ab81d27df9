"""Timeline labeling and the two staleness verifiers."""
import tracemalloc
from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from etsgd import consistency
from etsgd.consistency import (
    ConsistencyError,
    Report,
    TimelineMap,
    Violation,
    iteration_bound_from_round_lag,
    verify_iteration_delay,
    verify_round_delay,
)
from etsgd.harness import ExperimentConfig, planned_budgets
from etsgd.node import Assignment, ComputeNode, setup
from etsgd.objectives import MeanQuadratic, gaussian_cloud
from etsgd.rngs import SAMPLE_STREAM, stream
from etsgd.schedules import Constant, round_plan
from etsgd.simnet import DelayModel, Simulation, Trace
from etsgd.topology import complete, line, neighbors, ring
from test_simnet import SCHEDULES, connected_topologies, drawn_run, make_trace


def run_ring(n=3, budgets=(10, 10, 10), max_lag=1, seed=0, delay=None, stragglers=None,
             topo=None):
    topo = topo if topo is not None else ring(n)
    obj = MeanQuadratic(2)
    ds = gaussian_cloud(8, 20, 2, (0.0, 0.0), 1.0)
    etas = [0.01] * len(budgets)
    nodes = [
        ComputeNode(i, obj, ds, list(budgets), etas, neighbors(topo, i), max_lag,
                    stream(seed, SAMPLE_STREAM, i))
        for i in range(n)
    ]
    sim = Simulation(nodes, topo, delay, seed)
    for node_id, factor in (stragglers or {}).items():
        sim.set_straggler(node_id, factor)
    return sim.run()


class TestTimelineMap:
    def test_pinned_example(self):
        # round 0: node 0 owns one slot, node 1 two; round 1: node 1 owns one
        tm = TimelineMap(Assignment(([1, 0], [2, 1])))
        assert tm.global_index(0, 0, 1) == 0
        assert tm.global_index(1, 0, 1) == 1
        assert tm.global_index(1, 0, 2) == 2
        assert tm.global_index(1, 1, 1) == 3
        assert tm.locate(0) == (0, 0, 1)
        assert tm.locate(2) == (1, 0, 2)
        assert tm.locate(3) == (1, 1, 1)
        assert tm.total == 4

    def test_single_node_is_sequential(self):
        tm = TimelineMap(Assignment(([5, 5, 5],)))
        for k in range(3):
            for h in range(1, 6):
                assert tm.global_index(0, k, h) == 5 * k + (h - 1)

    def test_round_blocks_are_contiguous(self):
        asg = setup(3, [4, 8, 12, 16], [1 / 3] * 3, seed=2)
        tm = TimelineMap(asg)
        rounds = [tm.locate(t)[1] for t in range(tm.total)]
        assert rounds == sorted(rounds)
        starts = list(asg.starts)
        for k, start in enumerate(starts):
            assert tm.locate(start)[1] == k

    def test_bijection_small_sweep(self):
        for n in (1, 2, 3):
            for rounds in (1, 2, 4):
                for seed in range(3):
                    asg = setup(n, [3 * (k + 1) for k in range(rounds)], [1 / n] * n, seed)
                    tm = TimelineMap(asg)
                    image = set()
                    for k in range(rounds):
                        for node in range(n):
                            for h in range(1, asg.budgets[node][k] + 1):
                                t = tm.global_index(node, k, h)
                                assert tm.locate(t) == (node, k, h)
                                image.add(t)
                    assert image == set(range(tm.total))

    def test_round_starts(self):
        tm = TimelineMap(Assignment(([1, 2], [1, 0], [0, 0])))
        assert tm.round_starts == [[(0, 0), (2, 1)], [(1, 0)], []]
        # empty rounds own no iteration
        tm = TimelineMap(Assignment(([0, 2, 0, 1], [0, 0, 0, 1])))
        assert tm.round_starts == [[(0, 1), (2, 3)], [(3, 3)]]
        assert [tm.locate(t) for t in range(tm.total)] == [(0, 1, 1), (0, 1, 2), (0, 3, 1), (1, 3, 1)]
        assert TimelineMap(Assignment(([],))).total == 0

    @given(data=st.data(), n=st.integers(1, 5), sizes=st.lists(st.integers(0, 15), max_size=5))
    def test_round_starts_match_locate(self, data, n, sizes):
        weights = data.draw(
            st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any), label="weights"
        )
        seed = data.draw(st.integers(0, 2**16), label="seed")
        probs = [w / sum(weights) for w in weights]
        tm = TimelineMap(setup(n, sizes, probs, seed))
        expected = [[] for _ in range(n)]
        for t in range(tm.total):
            node, k, step = tm.locate(t)
            if step == 1:
                expected[node].append((t, k))
        assert tm.round_starts == expected

    def test_unknown_slot_rejected(self):
        tm = TimelineMap(Assignment(([1], [1])))
        for slot in ((0, 0, 2), (0, 0, 0), (2, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)):
            with pytest.raises(ConsistencyError):
                tm.global_index(*slot)
        with pytest.raises(ConsistencyError):
            tm.locate(2)
        with pytest.raises(ConsistencyError):
            tm.locate(-1)

    def test_labeling_does_not_grow_with_the_run(self):
        # a million iterations are 5 nodes by 200 rounds of counts; a table
        # per iteration took over 200 MiB here
        cfg = ExperimentConfig(n=5, total_iterations=1_000_000, sample_schedule="linear:10,1,0")
        layout = planned_budgets(cfg)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tm = TimelineMap(layout)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert tm.total == 1_000_000
        assert peak < 1 << 20


class TestRoundDelayVerifier:
    def test_clean_run_passes(self):
        result = run_ring(max_lag=1)
        report = verify_round_delay(result.trace, 1)
        assert report.ok
        assert report.checked == 3 * 30
        assert report.info["applies"] == result.messages_sent

    def test_huge_bound_is_vacuous(self):
        result = run_ring(max_lag=1)
        assert verify_round_delay(result.trace, 10**9).ok

    def test_disabled_sync_caught_at_tight_bound(self):
        # nodes that never block, plus a straggler, produce lag violations
        result = run_ring(budgets=(10,) * 6, max_lag=float("inf"), stragglers={0: 5.0})
        report = verify_round_delay(result.trace, 1)
        assert not report.ok
        assert len(report.violations) > 0
        v = report.violations[0]
        assert v.lag > 1
        assert "lagging" in v.message

    def test_tighter_bound_than_run_finds_violations(self):
        result = run_ring(budgets=(10,) * 4, max_lag=1, stragglers={0: 4.0})
        assert verify_round_delay(result.trace, 1).ok
        report = verify_round_delay(result.trace, 0)
        assert not report.ok

    def test_fractional_and_infinite_caps_match_reference(self):
        # a fractional cap admits the whole lags up to it, an infinite one every lag
        result = run_ring(budgets=(10,) * 6, max_lag=float("inf"), stragglers={0: 5.0})
        assert not verify_round_delay(result.trace, 1.5).ok
        for bound in (0.5, 1.5, 2.99, float("inf")):
            assert repr(verify_round_delay(result.trace, bound)) == repr(
                reference_round_delay(result.trace, bound)
            )

    def test_largest_node_id_verified(self):
        # 2**31 nodes put the keys past 32 bits; node 0 never applied a message from far
        far = 2**31 - 1
        trace = make_trace(2**31, ((0, far),), [
            (1.0, far, "apply", 0, -1, 0),
            (2.0, far, "grad", 2, 1, -1),
            (3.0, 0, "grad", 2, 1, -1),
        ])
        report = verify_round_delay(trace, 1)
        assert [(v.node, v.peer, v.lag) for v in report.violations] == [(0, far, 2)]
        assert (report.checked, report.info["applies"]) == (2, 1)

    def test_non_neighbor_apply_rejected(self):
        trace = make_trace(3, ((0, 1), (1, 2)), [(1.0, 0, "apply", 0, -1, 2)])
        with pytest.raises(ConsistencyError):
            verify_round_delay(trace, 1)

    def test_negative_bound_rejected(self):
        with pytest.raises(ConsistencyError):
            verify_round_delay(Trace(1, ()), -1)

    def test_nan_bound_rejected(self):
        # no lag exceeds NaN, so a NaN bound would pass this lag-2 grad as ok
        trace = make_trace(2, ((0, 1),), [(1.0, 0, "grad", 2, 1, -1)])
        assert not verify_round_delay(trace, 1).ok
        with pytest.raises(ConsistencyError):
            verify_round_delay(trace, float("nan"))


class TestIterationDelayVerifier:
    def test_single_node_any_window(self):
        result = run_ring(n=1, budgets=(5, 5))
        tm = TimelineMap(Assignment(([5, 5],)))
        report = verify_iteration_delay(result.trace, tm, 0)
        assert report.ok
        assert report.checked == 10

    def test_zero_window_flags_concurrency(self):
        result = run_ring(n=3, budgets=(10, 10, 10), max_lag=1)
        tm = TimelineMap(Assignment(([10, 10, 10],) * 3))
        report = verify_iteration_delay(result.trace, tm, 0)
        assert not report.ok

    def test_induced_bound_holds_on_clean_run(self):
        # tight network jitter keeps per-link deliveries in order, so the
        # round-lag guarantee translates into its induced iteration window
        budgets = [10, 20, 30, 40]
        result = run_ring(n=3, budgets=budgets, max_lag=1,
                          delay=DelayModel(network=(0.1, 0.3)))
        assert verify_round_delay(result.trace, 1).ok
        asg = Assignment((budgets,) * 3)
        tm = TimelineMap(asg)
        bound = iteration_bound_from_round_lag(asg, 1)
        report = verify_iteration_delay(result.trace, tm, bound)
        assert report.ok

    def test_staleness_forms_agree(self):
        result = run_ring(n=3, budgets=(5, 5), max_lag=1)
        tm = TimelineMap(Assignment(([5, 5],) * 3))
        const = verify_iteration_delay(result.trace, tm, 4.0)
        as_list = verify_iteration_delay(result.trace, tm, [4.0] * tm.total)
        as_fn = verify_iteration_delay(result.trace, tm, lambda t: 4.0)
        assert const.ok == as_list.ok == as_fn.ok
        assert len(const.violations) == len(as_list.violations) == len(as_fn.violations)

    def test_node_count_mismatch_rejected(self):
        trace = Trace(2, ((0, 1),))
        with pytest.raises(ConsistencyError):
            verify_iteration_delay(trace, TimelineMap(Assignment(([1],))), 0)

    def test_non_neighbors_tallied_not_flagged(self):
        topo = line(3)
        obj = MeanQuadratic(2)
        ds = gaussian_cloud(8, 20, 2, (0.0, 0.0), 1.0)
        budgets = [10, 10, 10, 10]
        nodes = [
            ComputeNode(i, obj, ds, budgets, [0.01] * 4, neighbors(topo, i), 1,
                        stream(0, SAMPLE_STREAM, i))
            for i in range(3)
        ]
        result = Simulation(nodes, topo, seed=0).run()
        tm = TimelineMap(Assignment((budgets,) * 3))
        report = verify_iteration_delay(result.trace, tm, 0)
        # nodes 0 and 2 are not adjacent, so windows they miss from each
        # other accumulate in the info counter instead of violations
        assert report.info["indirect_only"] > 0
        assert all(v.peer in neighbors(topo, v.node) for v in report.violations)


class TestInducedBound:
    def test_hand_computed_values(self):
        asg = Assignment(([2, 3, 4],))
        assert iteration_bound_from_round_lag(asg, 1) == [
            0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 4.0, 5.0, 6.0,
        ]
        assert iteration_bound_from_round_lag(asg, 0) == [
            0.0, 1.0, 0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 3.0,
        ]

    def test_large_lag_reaches_round_zero(self):
        asg = Assignment(([2, 2, 2],))
        assert iteration_bound_from_round_lag(asg, 10) == [float(t) for t in range(6)]

    def test_fractional_lag_counts_as_its_floor(self):
        # verify_round_delay's lag > 1.5 flags the same whole lags as lag > 1
        asg = Assignment(([2, 3, 4],))
        assert iteration_bound_from_round_lag(asg, 1.5) == iteration_bound_from_round_lag(asg, 1)
        assert iteration_bound_from_round_lag(asg, 0.5) == iteration_bound_from_round_lag(asg, 0)
        assert iteration_bound_from_round_lag(asg, float("inf")) == [float(t) for t in range(9)]

    def test_negative_lag_rejected(self):
        with pytest.raises(ConsistencyError):
            iteration_bound_from_round_lag(Assignment(([1],)), -1)

    def test_nan_lag_rejected(self):
        with pytest.raises(ConsistencyError):
            iteration_bound_from_round_lag(Assignment(([1],)), float("nan"))


def reference_round_delay(trace, max_lag):
    """verify_round_delay by full replay: every grad scans every neighbor's counter."""
    topo = trace.topology()
    nbrs = {i: neighbors(topo, i) for i in range(trace.n)}
    h = {i: {e: 0 for e in nbrs[i]} for i in range(trace.n)}
    violations, checked, applies = [], 0, 0
    for rec in trace.records:
        if rec.kind == "grad":
            checked += 1
            for e in nbrs[rec.node]:
                lag = rec.round_index - h[rec.node][e]
                if lag > max_lag:
                    violations.append(Violation(
                        rec.time, rec.node, rec.round_index, e, lag,
                        f"step ran with neighbor {e} lagging {lag} rounds (cap {max_lag})",
                    ))
        elif rec.kind == "apply":
            h[rec.node][int(rec.detail.partition("from=")[2])] += 1
            applies += 1
    return Report(not violations, checked, violations, {"applies": applies, "max_lag": max_lag})


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
def test_round_verifier_matches_reference(data, topo, sched, iterations, max_lag, factor, lo,
                                          seed):
    # runs drawn as test_engine_properties draws them
    hi = data.draw(st.floats(lo, 20.0), label="network hi")
    straggler = (data.draw(st.integers(0, topo.n - 1), label="straggler"), factor)
    budgets, _ = round_plan(sched, iterations)
    trace = drawn_run(topo, budgets, max_lag, straggler, (lo, hi), seed)[0].trace
    # bounds below the run's own d find the steps it took at lag d; at and above, none
    for bound in range(max(max_lag - 2, 0), max_lag + 2):
        got, expected = verify_round_delay(trace, bound), reference_round_delay(trace, bound)
        assert (got.ok, got.checked, got.violations, got.info) == (
            expected.ok, expected.checked, expected.violations, expected.info
        )
        assert repr(got) == repr(expected)


@given(
    data=st.data(),
    topo=connected_topologies(),
    sched=SCHEDULES,
    iterations=st.integers(1, 30),
    max_lag=st.integers(0, 3),
    factor=st.floats(1.0, 5.0),
    lo=st.floats(0.0, 0.1),
    seed=st.integers(0, 2**16),
    block=st.integers(1, 64),
)
def test_round_verifier_reads_any_block_size(data, topo, sched, iterations, max_lag, factor, lo,
                                             seed, block):
    # runs drawn as test_engine_properties draws them, read a few records at a time
    hi = data.draw(st.floats(lo, 20.0), label="network hi")
    straggler = (data.draw(st.integers(0, topo.n - 1), label="straggler"), factor)
    budgets, _ = round_plan(sched, iterations)
    trace = drawn_run(topo, budgets, max_lag, straggler, (lo, hi), seed)[0].trace
    with mock.patch.object(consistency, "BLOCK", block):
        for bound in range(max(max_lag - 2, 0), max_lag + 2):
            got = verify_round_delay(trace, bound)
            assert repr(got) == repr(reference_round_delay(trace, bound))


def verifier_peak(trace, max_lag) -> int:
    """Bytes verify_round_delay allocates at its peak, above what it was given."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verify_round_delay(trace, max_lag)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_round_verifier_peak_at_most_16_bytes_per_record():
    # a complete graph, one step per round: two thirds of the records are applies
    topo = complete(8)
    result = run_ring(n=8, budgets=(1,) * 300, max_lag=2, seed=7, topo=topo,
                      delay=DelayModel(network=(0.1, 5.0)), stragglers={0: 2.0})
    records = len(result.trace.times)
    assert records > 20_000
    assert verify_round_delay(result.trace, 2).ok
    assert verifier_peak(result.trace, 2) <= 16 * records


def test_round_verifier_peak_at_most_16_bytes_per_record_of_grads():
    # two nodes, 500 steps per round: all but 160 of the records are grads
    result = run_ring(n=2, budgets=(500,) * 40, max_lag=1, seed=7, topo=line(2))
    records = len(result.trace.times)
    assert records == 40_160
    assert verify_round_delay(result.trace, 1).ok
    assert verifier_peak(result.trace, 1) <= 16 * records


def test_round_verifier_memory_ignores_the_node_count():
    # nothing is sized by the '# nodes' header: 200000 nodes, one edge, far from node 0
    u, v = 199_998, 199_999
    trace = make_trace(200_000, ((u, v),), [
        (0.5, u, "grad", 0, 1, -1),
        (1.0, u, "round_end", 0, 1, 1),
        (1.5, v, "apply", 0, -1, u),
        (2.0, v, "grad", 3, 1, -1),
    ])
    report = verify_round_delay(trace, 1)
    assert [(x.node, x.peer, x.lag) for x in report.violations] == [(v, u, 2)]
    assert verifier_peak(trace, 1) < 64 * 1024


def reference_iteration_delay(trace, timeline, staleness):
    """verify_iteration_delay by brute force: every step rescans each peer's needed rounds."""
    tau = staleness if callable(staleness) else lambda t: staleness[t]
    topo = trace.topology()
    nbrs = {i: set(neighbors(topo, i)) for i in range(trace.n)}
    applied = {i: {e: set() for e in nbrs[i]} for i in range(trace.n)}
    violations, checked, indirect_only = [], 0, 0
    for rec in trace.records:
        if rec.kind == "apply":
            sender = int(rec.detail.partition("from=")[2])
            applied[rec.node][sender].add(rec.round_index)
            continue
        if rec.kind != "grad":
            continue
        checked += 1
        t = timeline.global_index(rec.node, rec.round_index, rec.step)
        wlim = t - tau(t)
        if wlim <= 0:
            continue
        for peer in range(trace.n):
            if peer == rec.node:
                continue
            firsts = timeline.round_starts[peer]
            needed = [k for _, k in firsts[:bisect_left(firsts, (wlim, -1))]]
            if peer not in nbrs[rec.node]:
                indirect_only += len(needed)
                continue
            for k in needed:
                if k not in applied[rec.node][peer]:
                    violations.append(Violation(
                        rec.time, rec.node, rec.round_index, peer, t - wlim,
                        f"iteration {t} requires round {k} of neighbor {peer} "
                        f"(window limit {wlim:.3f}) but it was not yet applied",
                    ))
    return Report(not violations, checked, violations, {"indirect_only": indirect_only})


def overtaken(trace) -> int:
    """Deliveries applied after a later round from the same sender on the same link."""
    newest, count = {}, 0
    for rec in trace.records:
        if rec.kind == "apply":
            link = (rec.detail, rec.node)
            if rec.round_index < newest.get(link, -1):
                count += 1
            newest[link] = max(rec.round_index, newest.get(link, -1))
    return count


@given(
    topology=st.sampled_from([ring, line, complete]),
    n=st.integers(2, 5),
    s=st.integers(1, 3),
    iterations=st.integers(10, 60),
    max_lag=st.integers(0, 2),
    hi=st.floats(5.0, 20.0),
    window=st.one_of(st.none(), st.floats(0.0, 12.0)),
    seed=st.integers(0, 2**16),
)
def test_iteration_verifier_matches_brute_force(
    topology, n, s, iterations, max_lag, hi, window, seed
):
    # wide network jitter on short rounds makes later rounds overtake earlier ones
    budgets, _ = round_plan(Constant(s), iterations)
    result = run_ring(n=n, budgets=budgets, max_lag=max_lag, seed=seed,
                      delay=DelayModel(network=(0.1, hi)), topo=topology(n))
    assume(overtaken(result.trace) > 0)
    asg = Assignment((budgets,) * n)
    tm = TimelineMap(asg)
    bound = iteration_bound_from_round_lag(asg, max_lag) if window is None else [window] * tm.total
    assert verify_iteration_delay(result.trace, tm, bound) == reference_iteration_delay(
        result.trace, tm, bound
    )

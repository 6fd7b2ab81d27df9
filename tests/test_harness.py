"""Experiment runner: config validation, metrics, sweeps, exports."""
import itertools
import re
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etsgd import harness
from etsgd.consistency import TimelineMap
from etsgd.harness import (
    CSV_COLUMNS,
    SWEEP_AXES,
    ConfigError,
    ExperimentConfig,
    build_task,
    build_topology,
    export_csv,
    export_svg_lines,
    loss_curves,
    planned_budgets,
    run_experiment,
    run_timeline,
    sweep,
)
from etsgd.node import ComputeNode, ProtocolError
from etsgd.objectives import MeanQuadratic, ObjectiveError, write_idx, synthetic_blobs
from etsgd.schedules import Diminishing, ScheduleError, step_size
from etsgd.simnet import GRAD


def quad_config(**overrides):
    base = dict(
        objective="quadratic", samples=50, dim=2, spread=1.0,
        n=3, iterations=40, total_iterations=None, seed=0, eval_every=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_needs_exactly_one_budget_field(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(iterations=None, total_iterations=None).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(iterations=10, total_iterations=10).validate()
        quad_config().validate()

    def test_per_node_split_rounds_up(self):
        cfg = quad_config(iterations=None, total_iterations=60001, n=5)
        assert cfg.per_node_iterations == 12001
        assert quad_config(iterations=7).per_node_iterations == 7

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"iterations": -5},
            {"algorithm": "other"},
            {"objective": "mystery"},
            {"objective": "idx"},  # missing file paths
            {"max_lag": -1},
            {"threshold_coeff": 0.0},
            {"threshold_coeff": 1.5},
            {"eval_every": -1},
            {"eval_samples": 0},
            {"stragglers": {5: 2.0}},
            {"stragglers": {0: 0.5}},
            {"stragglers": {0: float("nan")}},
            {"stragglers": {0: float("inf")}},
            {"max_lag": float("nan")},
        ],
    )
    def test_rejected_configs(self, overrides):
        with pytest.raises(ConfigError):
            quad_config(**overrides).validate()

    def test_bad_schedule_text(self):
        with pytest.raises(ScheduleError):
            quad_config(sample_schedule="nope").validate()
        with pytest.raises(ScheduleError):
            quad_config(step_schedule="nope").validate()


class TestBuilders:
    def test_topologies(self):
        assert len(build_topology(quad_config(topology="ring", n=5)).edges) == 5
        assert len(build_topology(quad_config(topology="line", n=5)).edges) == 4
        assert len(build_topology(quad_config(topology="complete", n=5)).edges) == 10

    def test_edge_list_topology(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n")
        topo = build_topology(quad_config(topology=str(path), n=3))
        assert topo.edges == frozenset({(0, 1), (1, 2)})

    def test_blob_task_has_heldout_set(self):
        cfg = ExperimentConfig(objective="blobs", samples=100, eval_samples=40,
                               iterations=10, total_iterations=None, seed=3)
        objective, train, held = build_task(cfg)
        assert train.m == 100
        assert held.m == 40
        assert not np.array_equal(train.features[:40], held.features)

    def test_quadratic_task_defaults_to_origin(self):
        objective, train, held = build_task(quad_config(samples=500, spread=0.1))
        assert np.allclose(train.features.mean(axis=0), [0.0, 0.0], atol=0.05)

    def test_idx_task(self, tmp_path):
        ds = synthetic_blobs(0, 30, 2, 3, 5.0)
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(img, lbl, ds)
        cfg = ExperimentConfig(objective="idx", idx_images=str(img), idx_labels=str(lbl),
                               iterations=10, total_iterations=None, seed=0)
        objective, train, held = build_task(cfg)
        assert objective.classes == 3
        assert held is train

    def test_planned_budgets_trim_last_round(self):
        layout = planned_budgets(quad_config(iterations=35))
        sched = Diminishing(0.01, 0.01)
        assert layout.budgets == ([10, 20, 5],) * 3
        assert layout.etas == ([step_size(sched, 0), step_size(sched, 10), step_size(sched, 30)],) * 3


class TestRunExperiment:
    def test_scheduled_run_shape(self):
        m = run_experiment(quad_config())
        assert m.rounds_total == 3  # 10 + 20 + 10(trimmed)
        assert [nm.rounds for nm in m.nodes] == [3, 3, 3]
        assert m.broadcasts_total == 9
        assert m.messages == 3 * 3 * 2
        assert m.delay_check_ok is True
        assert m.connected
        assert m.speedup is None
        assert m.trace is None

    def test_deterministic(self):
        a = run_experiment(quad_config(seed=5))
        b = run_experiment(quad_config(seed=5))
        assert a.duration_ms == b.duration_ms
        for x, y in zip(a.nodes, b.nodes):
            assert np.array_equal(x.final_w, y.final_w)

    def test_single_node_speedup_is_unity(self):
        m = run_experiment(quad_config(n=1))
        assert m.speedup == 1.0
        assert m.messages == 0

    def test_reference_speedup(self):
        ref = run_experiment(quad_config(n=1, iterations=120))
        m = run_experiment(quad_config(n=3, iterations=40),
                           reference_duration_ms=ref.duration_ms)
        assert m.speedup == pytest.approx(ref.duration_ms / m.duration_ms)

    def test_keep_trace(self):
        m = run_experiment(quad_config(), keep_trace=True)
        assert m.trace is not None
        assert m.trace.n == 3

    def test_eval_cadence(self):
        m = run_experiment(quad_config(eval_every=2, iterations=30))
        # rounds run 10 then 20 steps; only the second is an eval point
        for nm in m.nodes:
            assert [(rnd, it) for rnd, it, _, _ in nm.curve] == [(1, 30)]
        every = run_experiment(quad_config(eval_every=1, iterations=30))
        for nm in every.nodes:
            assert [(rnd, it) for rnd, it, _, _ in nm.curve] == [(0, 10), (1, 30)]

    def test_threshold_run_metrics(self):
        cfg = quad_config(algorithm="threshold", iterations=60)
        m = run_experiment(cfg)
        assert m.delay_check_ok is None
        assert m.broadcasts_total == sum(nm.rounds for nm in m.nodes)
        assert m.rounds_total == max(nm.rounds for nm in m.nodes)

    def test_disconnected_topology_flagged(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        m = run_experiment(quad_config(topology=str(path), n=4, iterations=20))
        assert not m.connected
        assert m.delay_check_ok is True  # isolated nodes still obey the bound

    def test_accuracy_only_for_labeled_tasks(self):
        quad = run_experiment(quad_config())
        assert all(nm.final_accuracy is None for nm in quad.nodes)
        blob = run_experiment(ExperimentConfig(
            objective="blobs", samples=60, n=2, iterations=20,
            total_iterations=None, seed=0, eval_every=0, eval_samples=30))
        assert all(nm.final_accuracy is not None for nm in blob.nodes)


class TestSnapshotWorker:
    """Round snapshots evaluated on the worker thread: failures and clean-up."""

    # one round per step: 60 snapshots per node, 12 batches on the worker
    CFG = dict(sample_schedule="const:1", iterations=60, eval_every=1)

    @pytest.fixture(autouse=True)
    def worker_on(self, monkeypatch):
        monkeypatch.setattr(harness, "EVAL_THREAD_MIN", 0)

    def test_worker_failure_is_raised_by_the_run(self, monkeypatch):
        err = ObjectiveError("snapshot batch failed")
        evaluate_many = MeanQuadratic.evaluate_many

        def fails_off_main(self, ws, ds):
            if threading.current_thread() is not threading.main_thread():
                raise err
            return evaluate_many(self, ws, ds)

        monkeypatch.setattr(MeanQuadratic, "evaluate_many", fails_off_main)
        before = set(threading.enumerate())
        with pytest.raises(ObjectiveError) as info:
            run_experiment(quad_config(**self.CFG))
        assert info.value is err
        assert set(threading.enumerate()) == before

    def test_run_that_raises_leaves_no_thread(self, monkeypatch):
        advance = ComputeNode.advance
        steps = itertools.count()
        evaluated_off_main = []
        evaluate_many = MeanQuadratic.evaluate_many

        def fails_at_step_100(self):
            if next(steps) == 100:
                raise ProtocolError("node failed mid-run")
            return advance(self)

        def recorded(self, ws, ds):
            evaluated_off_main.append(threading.current_thread() is not threading.main_thread())
            return evaluate_many(self, ws, ds)

        monkeypatch.setattr(ComputeNode, "advance", fails_at_step_100)
        monkeypatch.setattr(MeanQuadratic, "evaluate_many", recorded)
        before = set(threading.enumerate())
        with pytest.raises(ProtocolError, match="mid-run"):
            run_experiment(quad_config(**self.CFG))
        assert set(threading.enumerate()) == before
        # batches were on the worker when the run failed
        assert evaluated_off_main and all(evaluated_off_main)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    topology=st.sampled_from(["ring", "line", "complete"]),
    schedule=st.one_of(
        st.builds("const:{}".format, st.integers(1, 6)),
        st.builds("linear:{},{},{}".format, st.integers(1, 4), st.integers(0, 2), st.integers(0, 2)),
    ),
    iterations=st.integers(0, 30),
    max_lag=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_run_layout_is_its_trace_layout(n, topology, schedule, iterations, max_lag, seed):
    # the iteration window is not asserted: overtaken deliveries break it (ROADMAP item 1)
    cfg = quad_config(n=n, topology=topology, sample_schedule=schedule,
                      iterations=iterations, max_lag=max_lag, seed=seed)
    m = run_experiment(cfg, keep_trace=True)
    tm = TimelineMap(m.layout)
    trace = m.trace
    slots = [
        tm.global_index(node, rnd, step)
        for node, code, rnd, step in zip(trace.nodes, trace.events, trace.rounds, trace.steps)
        if code == GRAD
    ]
    assert sorted(slots) == list(range(tm.total))
    assert [nm.rounds for nm in m.nodes] == [len(b) for b in m.layout.budgets]
    assert run_timeline(cfg).assignment == m.layout
    assert run_experiment(replace(cfg, algorithm="threshold")).layout is None


class TestSweep:
    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(quad_config(), "gamma", [1, 2])

    def test_node_axis_uses_single_node_reference(self):
        cfg = quad_config(iterations=None, total_iterations=60)
        table = sweep(cfg, "n", [1, 3])
        assert table[0].config.n == 1
        assert table[0].speedup == 1.0
        assert table[1].speedup is not None
        assert table[1].config.name == "run[n=3]"

    def test_lag_axis(self):
        table = sweep(quad_config(iterations=20), "d", [0, 2])
        assert [m.config.max_lag for m in table] == [0, 2]

    def test_constant_schedule_axis(self):
        table = sweep(quad_config(iterations=20), "constant-s", [5, 10])
        assert [m.rounds_total for m in table] == [4, 2]

    def test_integer_axes_reject_other_values(self, monkeypatch):
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kw: cfg)
        for axis in ("n", "d", "K", "constant-s"):
            for value in (1.5, 2.0, "3", None):
                with pytest.raises(ConfigError, match=f"sweep axis {axis!r} takes integers, "
                                                      f"got {value!r}"):
                    sweep(quad_config(), axis, [1, value])
        points = sweep(quad_config(), "d", [np.int64(2), 3])
        assert [(p.name, p.max_lag) for p in points] == [("run[d=2]", 2), ("run[d=3]", 3)]

    def test_booleans_rejected_on_every_axis(self, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kw: runs.append(cfg))
        for axis in SWEEP_AXES:
            for value in (True, False):
                with pytest.raises(ConfigError, match=f"sweep axis {axis!r} takes numbers, "
                                                      f"got {value!r}"):
                    sweep(quad_config(), axis, [1, value])
        assert runs == []

    def test_threshold_coeff_axis(self):
        table = sweep(quad_config(iterations=30), "threshold-coeff", [1.0, 0.2])
        assert all(m.config.algorithm == "threshold" for m in table)
        assert [m.config.threshold_coeff for m in table] == [1.0, 0.2]


class TestExports:
    def test_csv_layout(self, tmp_path):
        m = run_experiment(quad_config(eval_every=1))
        path = tmp_path / "out.csv"
        export_csv(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 1 + 3 * 3  # three nodes, three eval rounds
        first = lines[1].split(",")
        assert first[0] == "run"
        assert first[1] == "0"
        assert first[9] == ""  # speedup not set

    def test_csv_fallback_row_without_curves(self, tmp_path):
        m = run_experiment(quad_config(eval_every=0))
        path = tmp_path / "out.csv"
        export_csv(m, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3
        row = lines[1].split(",")
        assert row[2] == "2"  # final round index
        assert row[3] == "40"

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(run_experiment(quad_config(eval_every=1)), a)
        export_csv(run_experiment(quad_config(eval_every=1)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_accepts_list(self, tmp_path):
        table = sweep(quad_config(iterations=20), "d", [0, 1])
        path = tmp_path / "sweep.csv"
        export_csv(table, path)
        text = path.read_text()
        assert "run[d=0]" in text and "run[d=1]" in text

    def test_loss_curves_shape(self):
        m = run_experiment(quad_config(eval_every=1))
        curves = loss_curves(m)
        assert [label for label, _ in curves] == ["node 0", "node 1", "node 2"]
        assert all(len(series) == 3 for _, series in curves)

    def test_svg_deterministic_and_wellformed(self, tmp_path):
        m = run_experiment(quad_config(eval_every=1))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        export_svg_lines(loss_curves(m), a, title="losses")
        export_svg_lines(loss_curves(m), b, title="losses")
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 3
        assert "losses" in text

    def test_svg_leaves_out_non_finite_points(self, tmp_path):
        path = tmp_path / "diverged.svg"
        finite = [(0.0, 2.0), (10.0, 1.0), (20.0, 0.5)]
        diverged = [(0.0, 1.0), (10.0, float("inf")), (20.0, float("nan")), (30.0, 3.0)]
        export_svg_lines([("finite", finite), ("diverged", diverged)], path)
        text = path.read_text()
        assert not re.search(r"nan|inf", text, re.IGNORECASE)
        lines = re.findall(r'<polyline points="([^"]*)"', text)
        assert [len(points.split()) for points in lines] == [3, 2]
        # the y axis spans the finite losses 0.5 to 3
        assert ">0.5</text>" in text and ">3</text>" in text

    def test_svg_empty_curves(self, tmp_path):
        path = tmp_path / "empty.svg"
        export_svg_lines([], path)
        assert path.read_text().startswith("<svg")

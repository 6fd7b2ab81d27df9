"""Release gate: thirteen end-to-end checks, one PASS/FAIL line each.

Every check pins an exact configuration and tolerance.  Expensive runs are
shared through module fixtures; the round-lag invariant check consumes the
delay verification of every scheduled run the suite performs, so it depends
on all of them.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from etsgd.consistency import TimelineMap, verify_round_delay
from etsgd.harness import (
    ExperimentConfig,
    build_task,
    export_csv,
    planned_budgets,
    run_experiment,
    sweep,
)
from etsgd.node import ComputeNode, setup
from etsgd.objectives import (
    Dataset,
    Logistic,
    MeanQuadratic,
    gaussian_cloud,
    synthetic_blobs,
)
from etsgd.rngs import SAMPLE_STREAM, stream
from etsgd.schedules import Constant, Linear, round_plan, sample_size
from etsgd.simnet import DelayModel, Simulation
from etsgd.topology import neighbors, ring

# delay verification results from every scheduled run in this module
_scheduled_checks: list[tuple[str, bool]] = []


def tracked_run(cfg: ExperimentConfig, **kwargs):
    m = run_experiment(cfg, **kwargs)
    if m.delay_check_ok is not None:
        _scheduled_checks.append((cfg.name, m.delay_check_ok))
    return m


def record_checks(table) -> None:
    for m in table:
        if m.delay_check_ok is not None:
            _scheduled_checks.append((m.config.name, m.delay_check_ok))


ACCURACY_CFG = ExperimentConfig(
    name="accuracy",
    objective="blobs",
    samples=2000,
    dim=2,
    classes=2,
    separation=10.0,
    n=5,
    max_lag=1,
    iterations=5000,
    eval_every=0,
)

REDUCTION_CFG = replace(ACCURACY_CFG, name="reduction", separation=2.0)

AGREEMENT_CFG = ExperimentConfig(
    name="agreement",
    objective="quadratic",
    samples=400,
    dim=2,
    center=(0.05, 0.03),
    spread=0.01,
    n=5,
    max_lag=1,
    iterations=80000,
    sample_schedule="const:2000",
    step_schedule="diminishing:2.5e-5,0",
    seed=0,
    eval_every=0,
)

STRAGGLER_CFG = ExperimentConfig(
    name="straggler",
    objective="quadratic",
    samples=200,
    dim=2,
    n=5,
    iterations=3000,
    stragglers={0: 5.0},
    eval_every=0,
)

SCALING_CFG = ExperimentConfig(
    name="scaling",
    objective="quadratic",
    samples=200,
    dim=2,
    iterations=None,
    total_iterations=60000,
    eval_every=0,
)

REPRO_CFG = ExperimentConfig(
    name="repro",
    objective="blobs",
    samples=500,
    n=5,
    iterations=500,
    seed=7,
    eval_every=1,
)


@pytest.fixture(scope="module")
def accuracy_suite():
    """Five-node ring runs with matched-budget single-node references."""
    start = time.perf_counter()
    rows = []
    for seed in range(3):
        cfg = replace(ACCURACY_CFG, name=f"accuracy[seed={seed}]", seed=seed)
        m = tracked_run(cfg)
        ref = tracked_run(
            replace(cfg, name=f"accuracy-serial[seed={seed}]", n=1,
                    iterations=5 * cfg.iterations)
        )
        rows.append((seed, [nm.final_accuracy for nm in m.nodes],
                     ref.nodes[0].final_accuracy))
    return {"rows": rows, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def agreement_run():
    start = time.perf_counter()
    m = tracked_run(AGREEMENT_CFG)
    return {"metrics": m, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def reduction_suite():
    """Scheduled runs plus the full threshold-coefficient grid, five seeds."""
    start = time.perf_counter()
    scheduled: dict[int, int] = {}
    threshold: dict[tuple[int, float], int] = {}
    for seed in range(5):
        m = tracked_run(replace(REDUCTION_CFG, name=f"reduction[seed={seed}]", seed=seed))
        scheduled[seed] = m.broadcasts_total
        for coeff in (1.0, 0.8, 0.6, 0.4, 0.2):
            t = run_experiment(
                replace(REDUCTION_CFG, name=f"threshold[seed={seed},coeff={coeff}]",
                        algorithm="threshold", threshold_coeff=coeff, seed=seed)
            )
            threshold[(seed, coeff)] = t.broadcasts_total
    return {
        "scheduled": scheduled,
        "threshold": threshold,
        "elapsed": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def straggler_sweep():
    """Mean node finish time by lag bound, one times-five straggler on a ring."""
    lags = (0, 1, 2, 5, 7)
    finish: dict[int, list[float]] = {}
    for seed in range(5):
        finish[seed] = []
        for d in lags:
            cfg = replace(STRAGGLER_CFG, name=f"straggler[seed={seed},d={d}]",
                          max_lag=d, seed=seed)
            finish[seed].append(tracked_run(cfg).mean_finish_ms)
    return {"lags": lags, "finish": finish}


@pytest.fixture(scope="module")
def scaling_runs():
    """Fixed total budget split over one node versus five, per seed."""
    durations: dict[int, dict[int, float]] = {}
    for seed in range(5):
        table = sweep(replace(SCALING_CFG, seed=seed), "n", [1, 5])
        record_checks(table)
        durations[seed] = {m.config.n: m.duration_ms for m in table}
    return durations


@pytest.fixture(scope="module")
def repro_artifacts(tmp_path_factory):
    """Trace and CSV files from two identical runs of one config."""
    out = []
    for tag in ("first", "second"):
        m = tracked_run(REPRO_CFG, keep_trace=True)
        d = tmp_path_factory.mktemp(f"repro_{tag}")
        trace_path = d / "run.trace"
        csv_path = d / "metrics.csv"
        m.trace.write(trace_path)
        export_csv(m, csv_path)
        out.append((trace_path, csv_path))
    return out


def test_linear_schedule_reaches_budget_in_110_rounds(criterion_report):
    start = time.perf_counter()
    rounds = len(round_plan(Linear(10, 1, 0), 60000)[0])
    elapsed = time.perf_counter() - start
    ok = rounds == 110 and elapsed < 1.0
    criterion_report(
        1, ok, f"Linear(10,1,0) covers 60000 steps in {rounds} rounds ({elapsed:.4f}s)"
    )


def test_constant_schedule_round_counts(criterion_report):
    expected = {10: 6000, 50: 1200, 100: 600, 200: 300, 500: 120, 700: 86, 1000: 60}
    observed = {s: len(round_plan(Constant(s), 60000)[0]) for s in expected}
    ok = observed == expected
    criterion_report(2, ok, f"constant budgets map 60000 steps to rounds {observed}")


def test_ring_accuracy_matches_serial_baseline(accuracy_suite, criterion_report):
    worst_acc = 1.0
    worst_gap = 0.0
    for seed, accs, ref in accuracy_suite["rows"]:
        worst_acc = min(worst_acc, min(accs))
        worst_gap = max(worst_gap, max(abs(a - ref) for a in accs))
    elapsed = accuracy_suite["elapsed"]
    ok = worst_acc >= 0.95 and worst_gap <= 0.02 and elapsed < 30.0
    criterion_report(
        3,
        ok,
        f"3 seeds, 5 nodes: min accuracy {worst_acc:.4f} (>= 0.95), "
        f"max gap to matched-budget serial run {worst_gap:.4f} (<= 0.02), "
        f"{elapsed:.1f}s",
    )


def test_nodes_agree_at_quiescence(agreement_run, criterion_report):
    m = agreement_run["metrics"]
    models = [nm.final_w for nm in m.nodes]
    linf = max(
        float(np.max(np.abs(a - b)))
        for i, a in enumerate(models)
        for b in models[i + 1:]
    )
    # the optimum is closed-form for the training objective, so compare there
    objective, train, _ = build_task(AGREEMENT_CFG)
    best = objective.loss(objective.optimum(train), train)
    rel = max((objective.loss(w, train) - best) / best for w in models)
    elapsed = agreement_run["elapsed"]
    ok = linf <= 1e-3 and rel <= 1e-2 and elapsed < 10.0
    criterion_report(
        4,
        ok,
        f"max pairwise model distance {linf:.2e} (<= 1e-3), "
        f"worst loss excess over the data-mean optimum {rel:.2e} (<= 1e-2), "
        f"{elapsed:.1f}s",
    )


def test_scheduled_rounds_cut_broadcasts_tenfold(reduction_suite, criterion_report):
    ratios = []
    for seed in range(5):
        sched = reduction_suite["scheduled"][seed]
        thres = reduction_suite["threshold"][(seed, 0.2)]
        ratios.append(thres / sched)
    elapsed = reduction_suite["elapsed"]
    ok = all(r >= 10.0 for r in ratios) and elapsed < 120.0
    criterion_report(
        5,
        ok,
        f"broadcast reduction over 5 seeds: min {min(ratios):.1f}x, "
        f"max {max(ratios):.1f}x (>= 10x), {elapsed:.1f}s",
    )


def test_tighter_thresholds_broadcast_more(reduction_suite, criterion_report):
    coeffs = (1.0, 0.8, 0.6, 0.4, 0.2)
    ok = True
    spans = []
    for seed in range(5):
        counts = [reduction_suite["threshold"][(seed, c)] for c in coeffs]
        spans.append(f"seed {seed}: {counts}")
        ok = ok and all(a < b for a, b in zip(counts, counts[1:]))
    criterion_report(
        6, ok, f"broadcasts grow as the trigger tightens; {'; '.join(spans)}"
    )


def test_round_lag_invariant_holds_and_mutation_detected(
    accuracy_suite,
    agreement_run,
    reduction_suite,
    straggler_sweep,
    scaling_runs,
    repro_artifacts,
    criterion_report,
):
    clean = all(ok for _, ok in _scheduled_checks)

    # mutation: nodes that never wait, one slowed five-fold, checked at d=1
    cfg = replace(ACCURACY_CFG, seed=0)
    objective, train, _ = build_task(cfg)
    layout = planned_budgets(cfg)
    topo = ring(cfg.n)
    nodes = [
        ComputeNode(
            i, objective, train, layout.budgets[i], layout.etas[i],
            neighbors(topo, i), float("inf"), stream(cfg.seed, SAMPLE_STREAM, i),
        )
        for i in range(cfg.n)
    ]
    sim = Simulation(nodes, topo, DelayModel(), cfg.seed)
    sim.set_straggler(0, 5.0)
    report = verify_round_delay(sim.run().trace, 1)

    ok = clean and len(_scheduled_checks) >= 40 and not report.ok
    criterion_report(
        7,
        ok,
        f"{len(_scheduled_checks)} scheduled runs verified clean at their lag bounds; "
        f"disabling the wait rule under a x5 straggler yields "
        f"{len(report.violations)} violations at d=1",
    )


def test_lag_tolerance_absorbs_straggler(straggler_sweep, criterion_report):
    ratios = []
    steps_ok = True
    for seed, finish in straggler_sweep["finish"].items():
        ratios.append(finish[0] / finish[-1])
        steps_ok = steps_ok and all(
            later <= earlier * 1.05 for earlier, later in zip(finish, finish[1:])
        )
    ok = all(r >= 1.5 for r in ratios) and steps_ok
    criterion_report(
        8,
        ok,
        f"mean finish time, d=0 vs d=7, over 5 seeds: min ratio {min(ratios):.2f}x "
        f"(>= 1.5x), non-increasing across d in {straggler_sweep['lags']} within 5%",
    )


def test_five_nodes_finish_sooner_than_one(scaling_runs, criterion_report):
    speedups = [d[1] / d[5] for d in scaling_runs.values()]
    ok = all(d[5] < d[1] for d in scaling_runs.values())
    criterion_report(
        9,
        ok,
        f"60000 total steps, 5 seeds: five nodes finish {min(speedups):.2f}x to "
        f"{max(speedups):.2f}x sooner than one",
    )


def test_timeline_is_a_bijection(criterion_report):
    start = time.perf_counter()
    sched = Linear(3, 1, 0)
    assignments = 0
    ok = True
    for n in range(1, 5):
        p = [1.0 / n] * n
        for rounds in range(1, 7):
            for seed in range(10):
                asg = setup(n, [sample_size(sched, i) for i in range(rounds)], p, seed)
                tm = TimelineMap(asg)
                seen = set()
                for node in range(n):
                    for rnd in range(rounds):
                        for h in range(1, asg.budgets[node][rnd] + 1):
                            t = tm.global_index(node, rnd, h)
                            ok = ok and tm.locate(t) == (node, rnd, h)
                            seen.add(t)
                ok = ok and seen == set(range(tm.total))
                assignments += 1
    elapsed = time.perf_counter() - start
    ok = ok and assignments == 240 and elapsed < 5.0
    criterion_report(
        10,
        ok,
        f"round-trip and image checks over {assignments} assignments "
        f"(n<=4, rounds<=6, 10 seeds), {elapsed:.2f}s",
    )


def test_gradients_match_finite_differences(criterion_report):
    tasks = [
        ("quadratic", MeanQuadratic(3), gaussian_cloud(1, 50, 3, 0.0, 1.0)),
        ("logistic", Logistic(2, 2, 0.0), synthetic_blobs(2, 60, 2, 2, 3.0)),
        ("logistic-l2", Logistic(2, 3, 0.01), synthetic_blobs(3, 60, 2, 3, 3.0)),
    ]
    eps = 1e-6
    rng = np.random.default_rng(11)
    worst = 0.0
    for _, objective, ds in tasks:
        for _ in range(100):
            w = rng.standard_normal(objective.dim)
            row = int(rng.integers(ds.m))
            labels = None if ds.labels is None else ds.labels[row : row + 1]
            probe = Dataset(ds.features[row : row + 1], labels)
            g = objective.grad(w, probe, 0)
            fd = np.empty_like(g)
            for j in range(w.size):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                fd[j] = (objective.loss(wp, probe) - objective.loss(wm, probe)) / (2 * eps)
            denom = max(np.linalg.norm(g), np.linalg.norm(fd), 1e-12)
            worst = max(worst, float(np.linalg.norm(g - fd) / denom))
    ok = worst < 1e-5
    criterion_report(
        11,
        ok,
        f"central differences at 100 random points per objective, 3 objectives: "
        f"worst relative error {worst:.2e} (< 1e-5)",
    )


def test_identical_seeds_reproduce_artifacts(repro_artifacts, criterion_report):
    (trace_a, csv_a), (trace_b, csv_b) = repro_artifacts
    trace_same = trace_a.read_bytes() == trace_b.read_bytes()
    csv_same = csv_a.read_bytes() == csv_b.read_bytes()
    ok = trace_same and csv_same
    criterion_report(
        12,
        ok,
        f"two identical runs: trace files identical={trace_same}, "
        f"CSV files identical={csv_same} ({trace_a.stat().st_size} trace bytes)",
    )


def test_setup_draw_counts_match_expectation(criterion_report):
    counts = [
        setup(5, [1000], [0.2] * 5, seed).budgets[0][0]
        for seed in range(1000)
    ]
    mean = float(np.mean(counts))
    se = (1000 * 0.2 * 0.8 / 1000) ** 0.5
    ok = abs(mean - 200.0) <= 3 * se
    criterion_report(
        13,
        ok,
        f"node 0 draws per 1000-step round: mean {mean:.3f} over 1000 seeds, "
        f"within 3 standard errors ({3 * se:.1f}) of 200",
    )

"""Measure one workload in a fresh process; run.py starts it.

Usage: python3 perfbench/measure.py '<job as JSON>'

The job names the workload, seed, seconds, trace flag, the directory of
the generated inputs and the program's source directory.  The last line
on standard output is a JSON object with the metrics, the run counts,
the gate failures and the digests.

Untraced (trace 0): the workload's config is taken with CONFIG_SEEDS
config seeds derived from the workload seed.  Set-up is timed several
times, then one warm-up run of the first config gives the peak RSS (read
before the benchmark itself allocates anything for checking).  After
that, runs of the configs repeat round-robin, one at a time, until the
time is up; each is timed alone, gated and digested.  final_loss is the
mean over the configs, which narrows its seed-to-seed spread.  Traced
(trace 1): untraced and traced runs of the first config alternate until
the time is up; each traced run's trace is written, read back and
rewritten, and at the end the iteration-level verifier runs once over the
last traced run's trace.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

# Configs per untraced run; final_loss averages over them.
CONFIG_SEEDS = 6

# Set-up is repeated until this much time is spent or this many repeats are done.
SETUP_BUDGET_S = 1.0
SETUP_MAX_REPEATS = 5001
SETUP_MIN_REPEATS = 5


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def digests(m, trace_path: Path) -> tuple[str, str, float]:
    """sha256 of the final weights and of the written trace, and the write seconds."""
    weights = hashlib.sha256()
    for nm in m.nodes:
        weights.update(nm.final_w.tobytes())
    start = perf_counter()
    m.trace.write(trace_path)
    write_s = perf_counter() - start
    trace = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    return weights.hexdigest(), trace, write_s


def mean_loss(m) -> float:
    return statistics.fmean(nm.final_loss for nm in m.nodes)


def overtaken(trace) -> int:
    """Deliveries applied after a later round from the same sender on the same link."""
    newest: dict[tuple[int, int], int] = {}
    count = 0
    for rec in trace.records:
        if rec.kind == "apply":
            link = (int(rec.detail.partition("from=")[2]), rec.node)
            if rec.round_index < newest.get(link, -1):
                count += 1
            else:
                newest[link] = rec.round_index
    return count


def waits(trace) -> tuple[int, float]:
    """Number of lag-gate waits and the virtual milliseconds spent in them."""
    entered: dict[int, float] = {}
    count = 0
    waited = 0.0
    for rec in trace.records:
        if rec.kind == "wait_enter":
            entered[rec.node] = rec.time
            count += 1
        elif rec.kind == "wait_exit":
            waited += rec.time - entered.pop(rec.node)
    return count, waited


class Runner:
    """Runs, gates and digests one workload's config; counts attempts and failures."""

    def __init__(self, workload, workdir: Path):
        from etsgd import harness

        self.harness = harness
        self.workload = workload
        self.trace_path = workdir / "run.trace"
        # config seed -> (weights digest, trace digest) of its first run
        self.references: dict[int, tuple[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, cfg, after_run=None):
        """One gated run: (metrics, wall seconds, trace write seconds), or None on failure.

        after_run() is called as soon as run_experiment returns, before the
        benchmark allocates anything for its own checks.
        """
        self.attempted += 1
        gc.collect()
        try:
            start = perf_counter()
            m = self.harness.run_experiment(cfg, keep_trace=True)
            wall = perf_counter() - start
            if after_run is not None:
                after_run()
            problems = list(self.workload.gate(m))
            weights, trace, write_s = digests(m, self.trace_path)
        except Exception:  # a run that raises is a failed run; keep measuring
            traceback.print_exc()
            self.fail(f"run {self.attempted} raised; traceback on stderr")
            return None
        if self.references.setdefault(cfg.seed, (weights, trace)) != (weights, trace):
            problems.append(f"digest differs from the first run of config seed {cfg.seed}")
        if problems:
            self.fail(f"run {self.attempted}: " + "; ".join(problems))
            return None
        return m, wall, write_s

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def digest(self) -> dict:
        """One sha256 each over the weights and trace digests of all config seeds."""
        refs = [self.references[seed] for seed in sorted(self.references)]
        return {
            kind: hashlib.sha256("".join(r[i] for r in refs).encode()).hexdigest()
            for i, kind in enumerate(("weights", "trace"))
        }

    def time_setup(self, cfg) -> float:
        times = []
        budget_end = perf_counter() + SETUP_BUDGET_S
        while len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_MIN_REPEATS or perf_counter() < budget_end
        ):
            start = perf_counter()
            self.harness.build_task(cfg)
            self.harness.build_topology(cfg)
            times.append(perf_counter() - start)
        return statistics.median(times)


def end_to_end(runner: Runner, cfg, seconds: float) -> dict:
    cfgs = [replace(cfg, seed=cfg.seed * CONFIG_SEEDS + j) for j in range(CONFIG_SEEDS)]
    setup_s = runner.time_setup(cfgs[0])
    rss = []
    first = runner.run(
        cfgs[0], lambda: rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    )
    losses = {} if first is None else {cfgs[0].seed: mean_loss(first[0])}
    walls = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or (
        len(losses) < len(cfgs) and runner.attempted <= 2 * len(cfgs)
    ):
        run_cfg = cfgs[runner.attempted % len(cfgs)]
        done = runner.run(run_cfg)
        if done is not None:
            walls.append(done[1])
            losses.setdefault(run_cfg.seed, mean_loss(done[0]))
    if len(losses) < len(cfgs) or not walls:
        return {"metrics": {}, "runs": len(walls)}
    steps = cfg.n * cfg.per_node_iterations
    return {
        "runs": len(walls),
        "run_s": {"median": statistics.median(walls), "min": min(walls), "max": max(walls)},
        "metrics": {
            "steps_per_s": (steps / statistics.median(walls), "steps/s"),
            "setup_s": (setup_s, "s"),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (rss[0] / 1024, "MiB"),
            "final_loss": (statistics.fmean(losses.values()), "loss"),
        },
    }


def traced_run(runner: Runner, cfg):
    """One run under a Tracer: (metrics, wall seconds, layer metrics), or None on failure."""
    from etsgd.simnet import Trace
    from spans import LAYERS, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        done = runner.run(cfg, after_run=tracer.restore)
    finally:
        tracer.restore()
    if done is None:
        return None
    m, wall, write_s = done
    trace = m.trace
    records = len(trace.records)
    start = perf_counter()
    reread = Trace.read(runner.trace_path)
    read_s = perf_counter() - start
    rewritten = runner.trace_path.with_suffix(".rewrite")
    reread.write(rewritten)
    if rewritten.read_bytes() != runner.trace_path.read_bytes():
        runner.fail("trace rewritten after Trace.read differs from the written trace")
        return None

    wait_count, waited_ms = waits(trace)
    round_verify_s = tracer.total_s("consistency.round_verify")
    layer = {
        "objectives.grad_calls": (tracer.calls("objectives.grad"), "count"),
        "objectives.grad_us": (tracer.self_us_per_call("objectives.grad"), "us"),
        "objectives.eval_calls": (tracer.calls("objectives.eval"), "count"),
        "objectives.eval_s": (tracer.self_s("objectives.eval"), "s"),
        "node.step_us": (tracer.self_us_per_call("node.advance"), "us"),
        "node.check_sync_calls": (tracer.calls("node.check_sync"), "count"),
        "node.check_sync_us": (tracer.self_us_per_call("node.check_sync"), "us"),
        "node.receive_calls": (tracer.calls("node.receive"), "count"),
        "node.receive_us": (tracer.self_us_per_call("node.receive"), "us"),
        "baselines.step_us": (tracer.self_us_per_call("baselines.advance"), "us"),
        "baselines.broadcasts": (
            m.broadcasts_total if cfg.algorithm == "threshold" else 0, "count"
        ),
        "schedules.step_size_calls": (tracer.calls("schedules.step_size"), "count"),
        "simnet.events": (tracer.events, "count"),
        "simnet.self_us_per_event": (
            tracer.self_s("simnet.run") / tracer.events * 1e6 if tracer.events else 0.0, "us"
        ),
        "simnet.trace_records": (records, "count"),
        "simnet.trace_write_s": (write_s, "s"),
        "simnet.trace_read_s": (read_s, "s"),
        "consistency.round_verify_s": (round_verify_s, "s"),
        "consistency.round_verify_us_per_record": (round_verify_s / records * 1e6, "us"),
        "simnet.messages": (m.messages, "count"),
        "simnet.overtaken": (overtaken(trace), "count"),
        "simnet.sim_ms": (m.duration_ms, "ms"),
        "node.waits": (wait_count, "count"),
        "node.wait_share": (waited_ms / (cfg.n * m.duration_ms), "ratio"),
    }
    for name in LAYERS:
        layer[f"{name}.self_s"] = (tracer.layer_self_s(name), "s")
    return m, wall, layer


def iteration_check(runner: Runner, cfg, m) -> dict:
    """Time verify_iteration_delay against the window the round-lag bound induces."""
    from etsgd.consistency import iteration_bound_from_round_lag, verify_iteration_delay

    if cfg.algorithm != "scheduled":
        return {
            "consistency.iteration_verify_s": (0.0, "s"),
            "consistency.iteration_violations": (0, "count"),
        }
    timeline = runner.harness.run_timeline(cfg)
    bound = iteration_bound_from_round_lag(timeline.assignment, cfg.max_lag)
    start = perf_counter()
    report = verify_iteration_delay(m.trace, timeline, bound)
    return {
        "consistency.iteration_verify_s": (perf_counter() - start, "s"),
        "consistency.iteration_violations": (len(report.violations), "count"),
    }


def per_layer(runner: Runner, cfg, seconds: float) -> dict:
    runner.run(cfg)  # warm-up and reference digest
    plain, traced, layers = [], [], []
    last = None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or (not traced and runner.attempted < 5):
        done = runner.run(cfg)
        tdone = traced_run(runner, cfg)
        if done is None or tdone is None:
            continue
        plain.append(done[1])
        last, wall, layer = tdone
        traced.append(wall)
        layers.append(layer)
    if last is None:
        return {"metrics": {}, "runs": 0}
    metrics = {
        name: (statistics.median_low(layer[name][0] for layer in layers), unit)
        for name, (_, unit) in layers[-1].items()
    }
    metrics.update(iteration_check(runner, cfg, last))
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return {"metrics": metrics, "runs": len(traced)}


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    sys.path.insert(0, job["src"])
    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]]
    workdir = Path(job["workdir"])
    cfg = workload.make_config(job["seed"], workdir)
    runner = Runner(workload, workdir)
    if job["trace"]:
        out = per_layer(runner, cfg, job["seconds"])
    else:
        out = end_to_end(runner, cfg, job["seconds"])
    out.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        digest=runner.digest(),
        env=environment(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

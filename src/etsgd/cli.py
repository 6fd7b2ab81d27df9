"""Command-line front end: runs, sweeps, baseline comparisons, trace checks, data tools.

Exit codes are stable: 0 success, 1 invalid input or configuration,
2 runtime failure, 3 trace validation found violations.

Schedule mini-grammar, shared by flags and config files:
  sample schedules   linear:a,p,b | const:s | thetalog:scale
  step schedules     diminishing:eta0,beta | invtime:eta0,epsilon | damped:eta0,epsilon

A config file (--config) is INI-style; keys in any section use the long
flag names without the leading dashes (e.g. "nodes = 5").  Command-line
flags override config values.  --seed must always be given explicitly.
"""
from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import replace

from .consistency import verify_round_delay
from .harness import (
    ExperimentConfig,
    Metrics,
    SWEEP_AXES,
    export_csv,
    export_svg_lines,
    loss_curves,
    run_experiment,
    sweep,
)
from .objectives import read_idx_header, synthetic_blobs, write_idx
from .simnet import Trace
from .topology import read_text

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_TRACE_VIOLATIONS = 3


class _Parser(argparse.ArgumentParser):
    """argparse with validation failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    sup = argparse.SUPPRESS
    p.add_argument("--name", default=sup, help="experiment label in outputs (default: run)")
    p.add_argument(
        "--topology",
        default=sup,
        help="ring | line | complete | path to an edge-list file (default: ring)",
    )
    p.add_argument("--nodes", type=int, default=sup, help="node count n (default: 5)")
    p.add_argument(
        "--objective",
        default=sup,
        help="blobs | quadratic | idx (default: blobs)",
    )
    p.add_argument("--samples", type=int, default=sup, help="training samples m (default: 2000)")
    p.add_argument("--dim", type=int, default=sup, help="feature dimension (default: 2)")
    p.add_argument("--classes", type=int, default=sup, help="class count for blobs (default: 2)")
    p.add_argument(
        "--separation", type=float, default=sup, help="blob center radius (default: 10.0)"
    )
    p.add_argument(
        "--center",
        default=sup,
        help="comma-separated cloud center for the quadratic objective (default: origin)",
    )
    p.add_argument(
        "--spread", type=float, default=sup, help="quadratic cloud spread (default: 1.0)"
    )
    p.add_argument("--l2", type=float, default=sup, help="L2 strength for logistic (default: 0)")
    p.add_argument("--images", default=sup, help="IDX images path for --objective idx")
    p.add_argument("--labels", default=sup, help="IDX labels path for --objective idx")
    p.add_argument(
        "--schedule",
        default=sup,
        help="sample-size schedule, e.g. linear:10,1,0 (default: linear:10,1,0)",
    )
    p.add_argument(
        "--step",
        default=sup,
        help="step-size schedule, e.g. diminishing:0.01,0.01 (default: diminishing:0.01,0.01)",
    )
    p.add_argument("--d", type=int, default=sup, help="round-lag bound d (default: 1)")
    p.add_argument("--iters", type=int, default=sup, help="iterations per node (default: 60000)")
    p.add_argument(
        "--total-iters",
        type=int,
        default=sup,
        help="total iterations split over nodes as ceil(total/n) (overrides --iters)",
    )
    p.add_argument(
        "--algorithm", default=sup, help="scheduled | threshold (default: scheduled)"
    )
    p.add_argument(
        "--coeff", type=float, default=sup, help="threshold trigger coefficient (default: 0.2)"
    )
    p.add_argument(
        "--straggler",
        action="append",
        default=sup,
        metavar="NODE:FACTOR",
        help="slow one node's compute by FACTOR (repeatable)",
    )
    p.add_argument(
        "--compute", default=sup, help="compute latency range lo,hi in ms (default: 0.1,1.0)"
    )
    p.add_argument(
        "--network", default=sup, help="network latency range lo,hi in ms (default: 0.1,1.5)"
    )
    p.add_argument(
        "--eval-every",
        type=int,
        default=sup,
        help="evaluate every this many rounds, 0 disables curves (default: 1)",
    )
    p.add_argument(
        "--eval-samples", type=int, default=sup, help="held-out set size (default: 1000)"
    )
    p.add_argument("--config", default=sup, help="INI config file; flags override it")
    p.add_argument("--seed", type=int, required=True, help="run seed (required)")


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects lo,hi as two numbers, got {text!r}") from None
    return lo, hi


def _parse_stragglers(entries) -> dict[int, float]:
    out: dict[int, float] = {}
    for entry in entries:
        try:
            node, factor = str(entry).split(":")
            out[int(node)] = float(factor)
        except ValueError:
            raise ValueError(
                f"--straggler expects NODE:FACTOR with an integer node, got {entry!r}"
            ) from None
    return out


# config-file key (the flag name) -> (value type, ExperimentConfig field);
# keys without a field are parsed further in _build_config
_CONFIG_KEYS = {
    "name": (str, "name"),
    "topology": (str, "topology"),
    "nodes": (int, "n"),
    "objective": (str, "objective"),
    "samples": (int, "samples"),
    "dim": (int, "dim"),
    "classes": (int, "classes"),
    "separation": (float, "separation"),
    "center": (str, None),
    "spread": (float, "spread"),
    "l2": (float, "l2"),
    "images": (str, "idx_images"),
    "labels": (str, "idx_labels"),
    "schedule": (str, "sample_schedule"),
    "step": (str, "step_schedule"),
    "d": (int, "max_lag"),
    "iters": (int, None),
    "total-iters": (int, None),
    "algorithm": (str, "algorithm"),
    "coeff": (float, "threshold_coeff"),
    "straggler": (str, None),
    "compute": (str, None),
    "network": (str, None),
    "eval-every": (int, "eval_every"),
    "eval-samples": (int, "eval_samples"),
}


def _read_config_file(path: str) -> dict:
    """Settings from an INI file; every error names the file, and the line or key."""
    try:
        text = read_text(path)
    except OSError:
        raise ValueError(f"config file not found: {path}") from None
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=path)
        items = [(sec, *kv) for sec in parser.sections() for kv in parser.items(sec)]
    except configparser.MissingSectionHeaderError as exc:
        line = exc.line.strip()
        raise ValueError(f"{path}:{exc.lineno}: {line!r} is not under a [section]") from None
    except configparser.ParsingError as exc:
        raise ValueError(f"{path}:{exc.errors[0][0]}: cannot parse {exc.errors[0][1]}") from None
    except configparser.Error as exc:  # a repeated key or section; a bad %-interpolation
        where = f":{exc.lineno}" if hasattr(exc, "lineno") else f": [{exc.section}] {exc.option}"
        raise ValueError(f"{path}{where}: {exc.message.rpartition(']: ')[2]}") from None
    merged: dict = {}
    for section, key, raw in items:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}: [{section}] {key}: unknown config key")
        kind = _CONFIG_KEYS[key][0]
        try:
            merged[key] = kind(raw)
        except ValueError:
            raise ValueError(
                f"{path}: [{section}] {key}: expected {kind.__name__}, got {raw!r}"
            ) from None
    return merged


def _build_config(ns: argparse.Namespace) -> ExperimentConfig:
    given = {k.replace("_", "-"): v for k, v in vars(ns).items()}
    settings: dict = {}
    if "config" in given:
        settings.update(_read_config_file(given.pop("config")))
    settings.update(given)

    cfg = ExperimentConfig(seed=settings["seed"])
    updates = {
        field_name: settings[key]
        for key, (_, field_name) in _CONFIG_KEYS.items()
        if field_name is not None and key in settings
    }
    if "center" in settings:
        raw = str(settings["center"])
        try:
            updates["center"] = tuple(float(x) for x in raw.split(","))
        except ValueError:
            raise ValueError(f"--center expects comma-separated numbers, got {raw!r}") from None
    if "compute" in settings:
        updates["compute_range"] = _parse_pair(settings["compute"], "--compute")
    if "network" in settings:
        updates["network_range"] = _parse_pair(settings["network"], "--network")
    if "straggler" in settings:
        raw = settings["straggler"]
        entries = raw if isinstance(raw, list) else str(raw).split()
        updates["stragglers"] = _parse_stragglers(entries)
    if "total-iters" in settings:
        updates["total_iterations"] = settings["total-iters"]
        updates["iterations"] = None
    elif "iters" in settings:
        updates["iterations"] = settings["iters"]
        updates["total_iterations"] = None
    else:
        updates["iterations"] = 60000
        updates["total_iterations"] = None
    return replace(cfg, **updates)


def _print_metrics(m: Metrics, file=None) -> None:
    if file is None:
        file = sys.stdout
    cfg = m.config
    print(
        f"{cfg.name}: algorithm={cfg.algorithm} n={cfg.n} topology={cfg.topology} "
        f"d={cfg.max_lag} seed={cfg.seed}",
        file=file,
    )
    if not m.connected:
        print("warning: topology is disconnected; nodes cannot reach agreement", file=file)
    for nm in m.nodes:
        acc = f" accuracy={nm.final_accuracy:.4f}" if nm.final_accuracy is not None else ""
        print(
            f"  node {nm.node}: rounds={nm.rounds} loss={nm.final_loss:.6g}{acc} "
            f"finish={nm.finish_ms:.1f}ms",
            file=file,
        )
    check = "n/a" if m.delay_check_ok is None else ("ok" if m.delay_check_ok else "FAILED")
    speed = f" speedup={m.speedup:.3f}" if m.speedup is not None else ""
    print(
        f"  messages={m.messages} duration={m.duration_ms:.1f}ms "
        f"delay_check={check}{speed}",
        file=file,
    )


def _cmd_run(ns: argparse.Namespace) -> int:
    cfg = _build_config(ns)
    metrics = run_experiment(cfg, keep_trace=ns.trace is not None)
    if ns.out:
        export_csv(metrics, ns.out)
    if ns.trace:
        metrics.trace.write(ns.trace)
    if ns.svg:
        export_svg_lines(loss_curves(metrics), ns.svg, title=cfg.name)
    _print_metrics(metrics)
    return EXIT_OK


def _cmd_sweep(ns: argparse.Namespace) -> int:
    cfg = _build_config(ns)
    values = [v for v in ns.values.split(",") if v]
    table = sweep(cfg, ns.axis, [float(v) if "." in v else int(v) for v in values])
    if ns.out:
        export_csv(table, ns.out)
    for m in table:
        _print_metrics(m)
    return EXIT_OK


def _cmd_compare(ns: argparse.Namespace) -> int:
    cfg = _build_config(ns)
    repeats = ns.repeats
    rows = []
    for offset in range(repeats):
        seed = cfg.seed + offset
        sched = run_experiment(replace(cfg, name=f"scheduled[seed={seed}]",
                                       algorithm="scheduled", seed=seed))
        thres = run_experiment(replace(cfg, name=f"threshold[seed={seed}]",
                                       algorithm="threshold", seed=seed))
        rows.append((seed, sched, thres))
    print("seed  scheduled_rounds  threshold_broadcasts  reduction")
    for seed, sched, thres in rows:
        ratio = (
            thres.broadcasts_total / sched.broadcasts_total
            if sched.broadcasts_total
            else float("inf")
        )
        print(
            f"{seed:<5d} {sched.broadcasts_total:>16d} {thres.broadcasts_total:>21d} "
            f"{ratio:>9.1f}x"
        )
    if ns.out:
        export_csv([m for _, s, t in rows for m in (s, t)], ns.out)
    return EXIT_OK


def _cmd_validate_trace(ns: argparse.Namespace) -> int:
    trace = Trace.read(ns.trace)
    report = verify_round_delay(trace, ns.d)
    if report.ok:
        print(f"{ns.trace}: {report.checked} steps checked, no violations at d={ns.d}")
        return EXIT_OK
    print(
        f"{ns.trace}: {len(report.violations)} violation(s) at d={ns.d} "
        f"over {report.checked} steps",
        file=sys.stderr,
    )
    for v in report.violations[:10]:
        print(f"  t={v.time:.3f}ms node={v.node} round={v.round_index}: {v.message}",
              file=sys.stderr)
    return EXIT_TRACE_VIOLATIONS


def _cmd_gen_data(ns: argparse.Namespace) -> int:
    ds = synthetic_blobs(ns.seed, ns.samples, ns.dim, ns.classes, ns.separation)
    write_idx(ns.out_images, ns.out_labels, ds)
    print(f"wrote {ds.m} samples: {ns.out_images}, {ns.out_labels}")
    return EXIT_OK


def _cmd_inspect_idx(ns: argparse.Namespace) -> int:
    info = read_idx_header(ns.path)
    for key in sorted(info):
        value = info[key]
        if key == "magic":
            value = f"{value:#010x}"
        print(f"{key}: {value}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="etsgd",
        description="Deterministic simulator for scheduled gossip SGD on peer graphs.",
        epilog="exit codes: 0 ok, 1 invalid input, 2 runtime error, 3 trace violations",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run_p = sub.add_parser("run", help="run one experiment")
    _add_task_flags(run_p)
    run_p.add_argument("--out", default=None, help="write metrics CSV here")
    run_p.add_argument("--trace", default=None, help="write the event trace here")
    run_p.add_argument("--svg", default=None, help="write loss-curve SVG here")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run one experiment per axis value")
    _add_task_flags(sweep_p)
    sweep_p.add_argument(
        "--axis", required=True, choices=SWEEP_AXES, help="which knob to sweep"
    )
    sweep_p.add_argument("--values", required=True, help="comma-separated axis values")
    sweep_p.add_argument("--out", default=None, help="write the sweep CSV here")
    sweep_p.set_defaults(func=_cmd_sweep)

    cmp_p = sub.add_parser(
        "compare", help="scheduled protocol vs threshold baseline on one task"
    )
    _add_task_flags(cmp_p)
    cmp_p.add_argument(
        "--repeats", type=int, default=5, help="seeds to try, starting at --seed (default: 5)"
    )
    cmp_p.add_argument("--out", default=None, help="write both runs' CSV here")
    cmp_p.set_defaults(func=_cmd_compare)

    val_p = sub.add_parser("validate-trace", help="check a trace file against a lag bound")
    val_p.add_argument("--trace", required=True, help="trace file from a run")
    val_p.add_argument("--d", type=int, required=True, help="round-lag bound to verify")
    val_p.set_defaults(func=_cmd_validate_trace)

    gen_p = sub.add_parser("gen-data", help="write a synthetic blob dataset as IDX files")
    gen_p.add_argument("--out-images", required=True)
    gen_p.add_argument("--out-labels", required=True)
    gen_p.add_argument("--samples", type=int, default=2000, help="(default: 2000)")
    gen_p.add_argument("--dim", type=int, default=2, help="(default: 2)")
    gen_p.add_argument("--classes", type=int, default=2, help="(default: 2)")
    gen_p.add_argument("--separation", type=float, default=10.0, help="(default: 10.0)")
    gen_p.add_argument("--seed", type=int, required=True, help="generator seed (required)")
    gen_p.set_defaults(func=_cmd_gen_data)

    idx_p = sub.add_parser("inspect-idx", help="print an IDX file's header")
    idx_p.add_argument("--path", required=True)
    idx_p.set_defaults(func=_cmd_inspect_idx)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return ns.func(ns)
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as e:  # runtime failures: deadlocks, protocol faults, I/O
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

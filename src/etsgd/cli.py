"""Command-line front end: runs, sweeps, baseline comparisons, trace checks, data tools.

Exit codes are stable: 0 success, 1 invalid input or configuration,
2 runtime failure, 3 trace validation found violations.

Schedule mini-grammar, shared by flags and config files:
  sample schedules   linear:a,p,b | const:s | thetalog:scale
  step schedules     diminishing:eta0,beta | invtime:eta0,epsilon | damped:eta0,epsilon

Every task setting is declared once, as a row of ``_SETTINGS``; its flag,
its config-file key, its value check and its help default all come from it.

A config file (--config) is INI-style; keys in any section use the long
flag names without the leading dashes (e.g. "nodes = 5").  A key is set
once in the whole file, and [DEFAULT] is a section like any other, whose
keys no other section inherits.  Command-line flags override config
values, and --iters or --total-iters on the command line replaces either
budget key of the file.  --seed must always be given explicitly.
"""
from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import replace
from typing import Any, Callable, NamedTuple

from .consistency import ConsistencyError, verify_round_delay
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


class _Setting(NamedTuple):
    field: str  # the ExperimentConfig field it sets
    parse: Callable[[Any], Any]  # text -> value; a bad value raises ValueError(reason)
    help: str  # "{}" shows the default
    entry: str | None = None  # a repeatable flag's metavar; the file lists entries on one line


def _pair(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expects lo,hi as two numbers, got {text!r}") from None
    return lo, hi


def _center(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expects comma-separated numbers, got {text!r}") from None


def _stragglers(entries: list[str]) -> dict[int, float]:
    out: dict[int, float] = {}
    for entry in entries:
        try:
            node, factor = entry.split(":")
            out[int(node)] = float(factor)
        except ValueError:
            raise ValueError(f"expects NODE:FACTOR with an integer node, got {entry!r}") from None
    return out


# flag name, which is also the config-file key -> (field, parser, help[, entry]), in help order
_SETTINGS = {key: _Setting(*row) for key, row in {
    "name": ("name", str, "experiment label in outputs (default: {})"),
    "topology": (
        "topology", str, "ring | line | complete | path to an edge-list file (default: {})"
    ),
    "nodes": ("n", int, "node count n (default: {})"),
    "objective": ("objective", str, "blobs | quadratic | idx (default: {})"),
    "samples": ("samples", int, "training samples m (default: {})"),
    "dim": ("dim", int, "feature dimension (default: {})"),
    "classes": ("classes", int, "class count for blobs (default: {})"),
    "separation": ("separation", float, "blob center radius (default: {})"),
    "center": (
        "center", _center,
        "comma-separated cloud center for the quadratic objective (default: origin)",
    ),
    "spread": ("spread", float, "quadratic cloud spread (default: {})"),
    "l2": ("l2", float, "L2 strength for logistic (default: {:g})"),
    "images": ("idx_images", str, "IDX images path for --objective idx"),
    "labels": ("idx_labels", str, "IDX labels path for --objective idx"),
    "schedule": ("sample_schedule", str, "sample-size schedule, e.g. linear:10,1,0 (default: {})"),
    "step": ("step_schedule", str, "step-size schedule, e.g. diminishing:0.01,0.01 (default: {})"),
    "d": ("max_lag", int, "round-lag bound d (default: {})"),
    "iters": ("iterations", int, "iterations per node (default: {})"),
    "total-iters": (
        "total_iterations", int,
        "total iterations split over nodes as ceil(total/n) (overrides --iters)",
    ),
    "algorithm": ("algorithm", str, "scheduled | threshold (default: {})"),
    "coeff": ("threshold_coeff", float, "threshold trigger coefficient (default: {})"),
    "straggler": (
        "stragglers", _stragglers, "slow one node's compute by FACTOR (repeatable)", "NODE:FACTOR"
    ),
    "compute": ("compute_range", _pair, "compute latency range lo,hi in ms (default: {0[0]},{0[1]})"),
    "network": ("network_range", _pair, "network latency range lo,hi in ms (default: {0[0]},{0[1]})"),
    "eval-every": (
        "eval_every", int, "evaluate every this many rounds, 0 disables curves (default: {})"
    ),
    "eval-samples": ("eval_samples", int, "held-out set size (default: {})"),
}.items()}
# argparse converts flags of these types, keeping its own messages; other flags parse after it
_TYPES = (int, float, str)


def _defaults() -> ExperimentConfig:
    """ExperimentConfig's defaults plus the per-node budget a bare ``etsgd run`` uses."""
    return ExperimentConfig(iterations=60000)


def _add_flag(p: argparse.ArgumentParser, key: str, default) -> None:
    row = _SETTINGS[key]
    p.add_argument(
        f"--{key}", default=default, help=row.help.format(getattr(_defaults(), row.field)),
        type=row.parse if row.parse in _TYPES else None,
        action="append" if row.entry else "store", metavar=row.entry,
    )


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    for key in _SETTINGS:
        _add_flag(p, key, argparse.SUPPRESS)
    p.add_argument("--config", default=argparse.SUPPRESS, help="INI config file; flags override it")
    p.add_argument("--seed", type=int, required=True, help="run seed (required)")


def _parse(parse: Callable[[Any], Any], raw, where: str):
    """parse(raw); a ValueError from it is raised again as where + reason."""
    try:
        return parse(raw)
    except ValueError as exc:
        reason = f"expected {parse.__name__}, got {raw!r}" if parse in _TYPES else exc
        raise ValueError(f"{where}{reason}") from None


def _read_config_file(path: str) -> dict:
    """Parsed settings from an INI file; every error names the file, and the line or key."""
    # no default section: [DEFAULT] is read like any other and lends its keys to none
    parser = configparser.ConfigParser(default_section=None)
    try:
        parser.read_string(read_text(path), source=path)
        items = [(sec, *kv) for sec in parser.sections() for kv in parser.items(sec)]
    except configparser.MissingSectionHeaderError as exc:
        line = exc.line.strip()
        raise ValueError(f"{path}:{exc.lineno}: {line!r} is not under a [section]") from None
    except configparser.ParsingError as exc:
        raise ValueError(f"{path}:{exc.errors[0][0]}: cannot parse {exc.errors[0][1]}") from None
    except configparser.Error as exc:  # a repeated key or section; a bad %-interpolation
        where = f":{exc.lineno}" if hasattr(exc, "lineno") else f": [{exc.section}] {exc.option}"
        raise ValueError(f"{path}{where}: {exc.message.rpartition(']: ')[2]}") from None
    settings: dict = {}
    sections: dict = {}  # key -> the section that set it
    for section, key, raw in items:
        if key not in _SETTINGS:
            raise ValueError(f"{path}: [{section}] {key}: unknown config key")
        if key in sections:
            raise ValueError(f"{path}: [{section}] {key}: already set in [{sections[key]}]")
        sections[key] = section
        row = _SETTINGS[key]
        settings[key] = _parse(row.parse, raw.split() if row.entry else raw,
                               f"{path}: [{section}] {key}: ")
    return settings


def _build_config(ns: argparse.Namespace) -> ExperimentConfig:
    settings = _read_config_file(ns.config) if "config" in ns else {}
    given = {dest.replace("_", "-"): value for dest, value in vars(ns).items()}
    flags = {k: _parse(_SETTINGS[k].parse, v, f"--{k} ") for k, v in given.items() if k in _SETTINGS}
    budget = ("iters", "total-iters")  # one setting: a flag replaces either file key
    if any(key in flags for key in budget):
        settings = {k: v for k, v in settings.items() if k not in budget}
    settings.update(flags)
    if "total-iters" in settings:
        settings["iters"] = None
    updates = {_SETTINGS[key].field: value for key, value in settings.items()}
    cfg = replace(_defaults(), seed=ns.seed, **updates)
    if "config" in ns:  # settings that do not fit together name the file they came from
        _parse(ExperimentConfig.validate, cfg, f"{ns.config} and flags: ")
    return cfg


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
    kind = float if ns.axis == "threshold-coeff" else int
    values = [_parse(kind, v, "--values: ") for v in ns.values.split(",") if v]
    if not values:
        raise ValueError("--values: no values given")
    table = sweep(cfg, ns.axis, values)
    if ns.out:
        export_csv(table, ns.out)
    for m in table:
        _print_metrics(m)
    return EXIT_OK


def _cmd_compare(ns: argparse.Namespace) -> int:
    if ns.repeats < 1:
        raise ValueError(f"--repeats: expected an int >= 1, got {ns.repeats}")
    cfg = _build_config(ns)
    rows = []
    for offset in range(ns.repeats):
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
    if ns.d < 0:  # before the trace is read, so the flag and not the file takes the blame
        raise ValueError(f"--d: expected a non-negative int, got {ns.d}")
    trace = Trace.read(ns.trace)
    try:
        report = verify_round_delay(trace, ns.d)
    except ConsistencyError as exc:  # a trace that reads but cannot be replayed
        raise ValueError(f"{ns.trace}: {exc}") from None
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
    for key in ("samples", "dim", "classes", "separation"):
        _add_flag(gen_p, key, getattr(_defaults(), _SETTINGS[key].field))
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
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as e:  # runtime failures: deadlocks, protocol faults
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

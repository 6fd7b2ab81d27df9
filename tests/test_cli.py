"""Command-line interface: flag parsing, config files, subcommands, exit codes."""
import contextlib
import csv
import functools
import gzip
import io
import struct
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etsgd import cli
from etsgd.harness import CSV_COLUMNS, ExperimentConfig
from etsgd.simnet import SimError, Trace


def run_cli(argv):
    return cli.main(argv)


QUAD = [
    "--objective", "quadratic", "--samples", "50", "--nodes", "3",
    "--iters", "30", "--eval-every", "0",
]


class TestParsing:
    def test_seed_is_required(self, capsys):
        assert run_cli(["run", *QUAD]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_subcommand_required(self, capsys):
        assert run_cli([]) == 1

    def test_help_shows_defaults(self, capsys):
        assert run_cli(["run", "--help"]) == 0
        text = capsys.readouterr().out
        assert "(default: ring)" in text
        assert "(default: 1)" in text
        assert "exit codes" not in text  # epilog belongs to the top parser

    def test_top_help_lists_exit_codes(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "3 trace violations" in capsys.readouterr().out

    def test_bad_compute_range(self, capsys):
        for value in ("1", "1,x", "1,2,3"):
            assert run_cli(["run", *QUAD, "--seed", "1", "--compute", value]) == 1
            err = capsys.readouterr().err
            assert "--compute" in err and "lo,hi" in err and repr(value) in err

    def test_bad_center(self, capsys):
        assert run_cli(["run", *QUAD, "--seed", "1", "--center", "1,x"]) == 1
        assert "--center expects comma-separated numbers, got '1,x'" in capsys.readouterr().err

    def test_center_of_wrong_length_names_it(self, tmp_path, capsys):
        # the default dim is 2, from a flag and from a config file alike
        assert run_cli(["run", *QUAD, "--seed", "0", "--center", "1,2,3"]) == 1
        assert capsys.readouterr().err == "error: center must have dim=2 coordinates, got 3\n"
        path = tmp_path / "task.ini"
        path.write_text("[task]\ncenter = 1,2,3\n")
        assert run_cli(["run", *QUAD, "--seed", "0", "--config", str(path)]) == 1
        assert "center must have dim=2 coordinates, got 3" in capsys.readouterr().err

    def test_bad_straggler_syntax(self, capsys):
        for value in ("0=2", "0:x", "y:2"):
            assert run_cli(["run", *QUAD, "--seed", "1", "--straggler", value]) == 1
            err = capsys.readouterr().err
            assert "--straggler" in err and "NODE:FACTOR" in err and repr(value) in err


BLOBS = ["--samples", "50", "--nodes", "3", "--iters", "30", "--eval-every", "0"]


@pytest.mark.parametrize(
    "task, flag, value",
    [
        (QUAD, "straggler", "0:nan"),
        (QUAD, "straggler", "0:inf"),
        (QUAD, "network", "0.1,nan"),
        (QUAD, "network", "0.1,inf"),
        (QUAD, "compute", "nan,nan"),
        (BLOBS, "l2", "nan"),
        (BLOBS, "separation", "nan"),
        (QUAD, "spread", "nan"),
        (QUAD, "center", "nan,0"),
    ],
)
def test_non_finite_setting_exits_one_and_names_it(task, flag, value, capsys):
    assert run_cli(["run", *task, "--seed", "0", f"--{flag}", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}"), err


@pytest.mark.parametrize(
    "flag, value, kind",
    [
        ("schedule", "linear:nan,1,0", "sample"),
        ("schedule", "linear:inf,1,0", "sample"),
        ("schedule", "thetalog:inf", "sample"),
        ("step", "diminishing:nan,0.01", "step"),
        ("step", "diminishing:0.01,inf", "step"),
        ("step", "invtime:0.01,nan", "step"),
    ],
)
def test_non_finite_schedule_parameter_exits_one_and_names_it(flag, value, kind, tmp_path,
                                                               capsys):
    out = tmp_path / "run.csv"
    argv = ["run", f"--{flag}", value, "--iters", "20", "--seed", "0", "--out", str(out)]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: bad {kind} schedule {value!r}: ")
    assert not out.exists()


def test_fractional_constant_schedule_exits_one(capsys):
    argv = ["run", "--schedule", "const:2.5", "--iters", "20", "--nodes", "2", "--seed", "0"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("error: bad sample schedule 'const:2.5': ")


class TestRun:
    def test_minimal_run(self, capsys):
        assert run_cli(["run", *QUAD, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "node 0:" in out and "node 2:" in out
        assert "delay_check=ok" in out
        assert "n=3" in out

    def test_total_iters_split(self, capsys):
        argv = ["run", "--objective", "quadratic", "--samples", "50", "--nodes", "3",
                "--total-iters", "30", "--eval-every", "0", "--seed", "1"]
        assert run_cli(argv) == 0
        assert "rounds=1" in capsys.readouterr().out  # ceil(30/3)=10 steps, one round

    def test_quadratic_center_flag(self, capsys):
        argv = ["run", *QUAD, "--seed", "1", "--center", "0.5,-0.5", "--spread", "0.1"]
        assert run_cli(argv) == 0

    def test_straggler_flag(self, capsys):
        argv = ["run", *QUAD, "--seed", "1", "--straggler", "0:5.0"]
        assert run_cli(argv) == 0

    def test_non_utf8_edge_list_names_line(self, tmp_path, capsys):
        edges = tmp_path / "graph.edges"
        edges.write_bytes(b"0 1\n\xff 2\n")
        assert run_cli(["run", *QUAD, "--seed", "1", "--topology", str(edges)]) == 1
        assert f"error: {edges}:2: not UTF-8 text" in capsys.readouterr().err

    def test_threshold_run(self, capsys):
        argv = ["run", *QUAD, "--seed", "1", "--algorithm", "threshold", "--coeff", "0.5"]
        assert run_cli(argv) == 0
        assert "delay_check=n/a" in capsys.readouterr().out

    def test_output_files(self, tmp_path, capsys):
        out, trace = tmp_path / "m.csv", tmp_path / "t.trace"
        argv = ["run", "--objective", "quadratic", "--samples", "50", "--nodes", "3",
                "--iters", "30", "--seed", "1",
                "--out", str(out), "--trace", str(trace)]
        assert run_cli(argv) == 0
        assert out.read_text().splitlines()[0].startswith("experiment,node,round")
        assert trace.read_text().startswith("# nodes 3")

    def test_csv_quotes_the_name(self, tmp_path):
        out, name = tmp_path / "t.csv", 'a,b "c"\nd'
        argv = ["run", *QUAD, "--seed", "0", "--name", name, "--out", str(out)]
        assert run_cli(argv) == 0
        with open(out, newline="") as f:
            header, *rows = csv.reader(f)
        assert header == CSV_COLUMNS.split(",")
        assert len(rows) == 3 and all(len(row) == len(header) and row[0] == name for row in rows)

    def test_diverged_run_says_so_without_numpy_warnings(self, capsys):
        # step size 5 on the quadratic diverges: the losses go to inf, the models to nan;
        # the final losses are non-finite, and that is the answer, not a numpy fault
        argv = ["run", "--objective", "quadratic", "--step", "diminishing:5,0",
                "--iters", "400", "--seed", "0"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(argv) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert "loss=inf" in captured.out
        assert "warning: 5 of 5 nodes diverged (non-finite final loss)" in captured.err

    def test_finite_run_reports_no_divergence(self, capsys):
        assert run_cli(["run", *QUAD, "--seed", "1"]) == 0
        assert "diverged" not in capsys.readouterr().err

    def test_runtime_failure_maps_to_two(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert run_cli(["run", *QUAD, "--seed", "1"]) == 2
        assert "runtime error: RuntimeError" in capsys.readouterr().err


class TestConfigFile:
    def write_config(self, tmp_path, body):
        path = tmp_path / "exp.ini"
        path.write_text(body)
        return str(path)

    def test_config_supplies_settings(self, tmp_path, capsys):
        path = self.write_config(tmp_path, (
            "[task]\nobjective = quadratic\nsamples = 50\nnodes = 3\n"
            "iters = 30\neval-every = 0\n"
        ))
        assert run_cli(["run", "--config", path, "--seed", "2"]) == 0
        assert "n=3" in capsys.readouterr().out

    def test_flags_override_config(self, tmp_path, capsys):
        path = self.write_config(tmp_path, (
            "[task]\nobjective = quadratic\nsamples = 50\nnodes = 3\n"
            "iters = 30\neval-every = 0\n"
        ))
        assert run_cli(["run", "--config", path, "--nodes", "2", "--seed", "2"]) == 0
        assert "n=2" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "[task]\nworkers = 3\n")
        assert run_cli(["run", "--config", path, "--seed", "2"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_section_header_names_line(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "nodes = 3\n")
        assert run_cli(["run", "--config", path, "--seed", "2"]) == 1
        err = capsys.readouterr().err
        assert f"{path}:1:" in err and "[section]" in err

    def test_repeated_key_names_line(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "[task]\nnodes = 3\nnodes = 4\n")
        assert run_cli(["run", "--config", path, "--seed", "2"]) == 1
        err = capsys.readouterr().err
        assert f"{path}:3:" in err and "'nodes'" in err and "already exists" in err

    def test_unparsable_line_names_line(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "[task]\nnodes = 3\n= 4\n")
        assert run_cli(["run", "--config", path, "--seed", "2"]) == 1
        assert f"{path}:3: cannot parse" in capsys.readouterr().err

    def test_bad_value_names_key(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "[task]\nnodes = x\n")
        assert run_cli(["run", "--config", path, "--seed", "2"]) == 1
        assert f"{path}: [task] nodes: expected int, got 'x'" in capsys.readouterr().err

    def test_non_utf8_config_names_line(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_bytes(b"[task]\nnodes = 3\nname = \xff\xfe\n")
        assert run_cli(["run", "--config", str(path), "--seed", "2"]) == 1
        assert f"error: {path}:3: not UTF-8 text" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli(["run", "--config", str(tmp_path / "nope.ini"), "--seed", "2"]) == 1

    def test_config_straggler_entry(self, tmp_path, capsys):
        path = self.write_config(tmp_path, (
            "[task]\nobjective = quadratic\nsamples = 50\nnodes = 3\n"
            "iters = 30\neval-every = 0\nstraggler = 0:2.0\n"
        ))
        assert run_cli(["run", "--config", path, "--seed", "2"]) == 0

    def test_default_section_is_read(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "[DEFAULT]\nnodes = x\n")
        assert run_cli(["run", "--config", path, "--seed", "2"]) == 1
        assert f"error: {path}: [DEFAULT] nodes: expected int, got 'x'" in capsys.readouterr().err
        path = self.write_config(tmp_path, "[DEFAULT]\nnodes = 4\n[task]\nd = 2\n")
        cfg = cli._build_config(cli.build_parser().parse_args(["run", "--config", path,
                                                                "--seed", "2"]))
        assert (cfg.n, cfg.max_lag) == (4, 2)

    def test_key_in_two_sections_rejected(self, tmp_path, capsys):
        for body in ("[a]\nd = 2\n[b]\nd = 3\n", "[DEFAULT]\nd = 2\n[b]\nd = 2\n"):
            path = self.write_config(tmp_path, body)
            assert run_cli(["run", "--config", path, "--seed", "2"]) == 1
            section = body[1:body.index("]")]
            assert capsys.readouterr().err == f"error: {path}: [b] d: already set in [{section}]\n"

    def iters_column(self, csv):
        return {line.split(",")[3] for line in csv.read_text().splitlines()[1:]}

    def test_iters_flag_replaces_file_total_iters(self, tmp_path, capsys):
        path = self.write_config(tmp_path, (
            "[task]\nobjective = quadratic\nsamples = 50\nnodes = 3\n"
            "total-iters = 30\neval-every = 0\n"
        ))
        out = tmp_path / "m.csv"
        argv = ["run", "--config", path, "--iters", "5", "--seed", "1", "--out", str(out)]
        assert run_cli(argv) == 0
        assert self.iters_column(out) == {"5"}

    def test_total_iters_flag_replaces_file_iters(self, tmp_path, capsys):
        path = self.write_config(tmp_path, (
            "[task]\nobjective = quadratic\nsamples = 50\nnodes = 3\n"
            "iters = 30\neval-every = 0\n"
        ))
        out = tmp_path / "m.csv"
        argv = ["run", "--config", path, "--total-iters", "6", "--seed", "1", "--out", str(out)]
        assert run_cli(argv) == 0
        assert self.iters_column(out) == {"2"}  # ceil(6/3)

    def test_bad_special_value_names_file(self, tmp_path, capsys):
        bad = {"center": "1,x", "compute": "1,x", "network": "2", "straggler": "0:2 1=3"}
        for key, value in bad.items():
            path = self.write_config(tmp_path, f"[task]\n{key} = {value}\n")
            assert run_cli(["run", "--config", path, "--seed", "2"]) == 1
            err = capsys.readouterr().err
            assert f"error: {path}: [task] {key}: expects " in err
            assert f"--{key}" not in err

    def test_invalid_settings_name_file(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "[task]\nnodes = 0\n")
        assert run_cli(["run", "--config", path, "--seed", "2"]) == 1
        assert f"error: {path} and flags: n must be >= 1, got 0" in capsys.readouterr().err


class TestSweep:
    def test_constant_schedule_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", *QUAD, "--seed", "1",
                "--axis", "constant-s", "--values", "10,15", "--out", str(out)]
        assert run_cli(argv) == 0
        assert "run[constant-s=10]" in capsys.readouterr().out
        assert "run[constant-s=15]" in out.read_text()

    def test_node_sweep_reports_speedup(self, capsys):
        argv = ["sweep", "--objective", "quadratic", "--samples", "50",
                "--total-iters", "30", "--eval-every", "0", "--seed", "1",
                "--axis", "n", "--values", "1,3"]
        assert run_cli(argv) == 0
        assert "speedup=" in capsys.readouterr().out

    def test_unknown_axis(self, capsys):
        argv = ["sweep", *QUAD, "--seed", "1", "--axis", "gamma", "--values", "1"]
        assert run_cli(argv) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_values_take_the_axis_type(self, capsys, monkeypatch):
        bad = {"n": "1.5", "d": "1.5", "K": "2.0", "constant-s": "x", "threshold-coeff": "x"}
        for axis, value in bad.items():
            argv = ["sweep", *QUAD, "--seed", "1", "--axis", axis, "--values", f"1,{value}"]
            assert run_cli(argv) == 1
            kind = "float" if axis == "threshold-coeff" else "int"
            assert f"error: --values: expected {kind}, got {value!r}" in capsys.readouterr().err
        swept = []
        monkeypatch.setattr(cli, "sweep", lambda cfg, axis, values: swept.append(values) or [])
        assert run_cli(["sweep", *QUAD, "--seed", "1", "--axis", "d", "--values", "1,2"]) == 0
        assert run_cli(["sweep", *QUAD, "--seed", "1", "--axis", "threshold-coeff",
                        "--values", "0.5,1"]) == 0
        assert swept == [[1, 2], [0.5, 1.0]]
        assert [type(v) for v in swept[1]] == [float, float]

    def test_empty_values_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sweep", lambda cfg, axis, values: pytest.fail("swept"))
        for values in ("", ",", ",,"):
            argv = ["sweep", *QUAD, "--seed", "1", "--axis", "d", "--values", values]
            assert run_cli(argv) == 1
            assert capsys.readouterr().err == "error: --values: no values given\n"


class TestCompare:
    def test_compare_table(self, capsys):
        argv = ["compare", *QUAD, "--seed", "3", "--repeats", "1"]
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert "seed  scheduled_rounds  threshold_broadcasts  reduction" in out
        assert "3 " in out

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_below_one_rejected_before_any_run(self, repeats, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("ran"))
        assert run_cli(["compare", *QUAD, "--seed", "3", "--repeats", repeats]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --repeats: expected an int >= 1, got {repeats}\n"
        assert captured.out == ""


class TestValidateTrace:
    def make_trace(self, tmp_path, extra=()):
        trace = tmp_path / "run.trace"
        argv = ["run", "--objective", "quadratic", "--samples", "50", "--nodes", "3",
                "--iters", "60", "--seed", "1", "--trace", str(trace), *extra]
        assert run_cli(argv) == 0
        return trace

    def test_clean_trace_passes(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        capsys.readouterr()
        assert run_cli(["validate-trace", "--trace", str(trace), "--d", "1"]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_tighter_bound_fails(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path, extra=["--straggler", "0:5.0"])
        capsys.readouterr()
        assert run_cli(["validate-trace", "--trace", str(trace), "--d", "0"]) == 3
        err = capsys.readouterr().err
        assert "violation(s) at d=0" in err

    def test_malformed_trace_names_line(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_text("# nodes 1\ntime,node,event,round,h,detail\nabc,0,grad,0,1,\n")
        assert run_cli(["validate-trace", "--trace", str(trace), "--d", "1"]) == 1
        assert f"{trace}:3: time: " in capsys.readouterr().err

    def test_malformed_header_names_line(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_text("# nodes 2\n# edge 0\ntime,node,event,round,h,detail\n")
        assert run_cli(["validate-trace", "--trace", str(trace), "--d", "1"]) == 1
        assert f"{trace}:2: edge: " in capsys.readouterr().err

    def test_node_count_past_32_bits_names_line(self, tmp_path, capsys):
        # node ids are 32-bit in a trace's columns, so at most 2**31 nodes
        trace = tmp_path / "big.trace"
        trace.write_text(
            "# nodes 4294967297\n# edge 0 4294967296\ntime,node,event,round,h,detail\n"
            "1.0,0,grad,2,1,\n"
        )
        assert run_cli(["validate-trace", "--trace", str(trace), "--d", "1"]) == 1
        assert f"error: {trace}:1: nodes: expected 1 to 2147483648, got 4294967297" in (
            capsys.readouterr().err
        )
        assert Trace(2**31, ()).n == 2**31
        with pytest.raises(SimError, match="^nodes: expected at most 2147483648, got 2147483649"):
            Trace(2**31 + 1, ())

    def test_non_utf8_trace_names_line(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_bytes(b"# nodes 1\ntime,node,event,round,h,detail\n1.0,0,grad,0,1,\xff\n")
        assert run_cli(["validate-trace", "--trace", str(trace), "--d", "1"]) == 1
        assert f"error: {trace}:3: not UTF-8 text" in capsys.readouterr().err

    def test_negative_bound_blames_the_flag(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        capsys.readouterr()
        assert run_cli(["validate-trace", "--trace", str(trace), "--d", "-1"]) == 1
        assert capsys.readouterr().err == "error: --d: expected a non-negative int, got -1\n"
        # the flag is checked first: a missing file is not even opened
        assert run_cli(["validate-trace", "--trace", str(tmp_path / "no.trace"),
                        "--d", "-1"]) == 1
        assert "--d: expected a non-negative int" in capsys.readouterr().err

    def test_missing_trace_file(self, tmp_path, capsys):
        assert run_cli(["validate-trace", "--trace", str(tmp_path / "no.trace"),
                        "--d", "1"]) == 1


class TestDataTools:
    def test_gen_inspect_run_roundtrip(self, tmp_path, capsys):
        img, lbl = tmp_path / "x.idx", tmp_path / "y.idx"
        gen = ["gen-data", "--out-images", str(img), "--out-labels", str(lbl),
               "--samples", "60", "--dim", "2", "--classes", "3",
               "--separation", "8.0", "--seed", "4"]
        assert run_cli(gen) == 0
        assert "wrote 60 samples" in capsys.readouterr().out

        assert run_cli(["inspect-idx", "--path", str(img)]) == 0
        head = capsys.readouterr().out
        assert "kind: images" in head
        assert "magic: 0x00000803" in head
        assert "count: 60" in head

        assert run_cli(["inspect-idx", "--path", str(lbl)]) == 0
        assert "kind: labels" in capsys.readouterr().out

        run = ["run", "--objective", "idx", "--images", str(img), "--labels", str(lbl),
               "--nodes", "2", "--iters", "20", "--eval-every", "0", "--seed", "4"]
        assert run_cli(run) == 0
        assert "accuracy=" in capsys.readouterr().out

    def test_gen_data_rejects_labels_above_a_byte(self, tmp_path, capsys):
        img, lbl = tmp_path / "x.idx", tmp_path / "y.idx"
        gen = ["gen-data", "--out-images", str(img), "--out-labels", str(lbl),
               "--samples", "1000", "--dim", "2", "--classes", "300", "--seed", "0"]
        assert run_cli(gen) == 1
        assert "largest label is 299" in capsys.readouterr().err
        assert not img.exists()

    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"not an idx file at all")
        assert run_cli(["inspect-idx", "--path", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [slice(None, -10), slice(None, 2)])
    @pytest.mark.parametrize("header", [b"", b"\x1f\x8b\x09"])
    def test_bad_gzip_names_file(self, tmp_path, capsys, cut, header):
        # a truncated stream (cut) or a bad compression method (header) exits 1 naming the file
        images, labels = (tmp_path / "x.idx.gz", tmp_path / "y.idx")
        data = gzip.compress(written_idx_pair()[0], mtime=0)
        images.write_bytes((header + data[len(header):])[cut])
        labels.write_bytes(written_idx_pair()[1])
        for argv in (
            ["inspect-idx", "--path", str(images)],
            ["run", "--objective", "idx", "--images", str(images), "--labels", str(labels),
             "--nodes", "2", "--iters", "6", "--eval-every", "0", "--seed", "1"],
        ):
            assert run_cli(argv) == 1
            assert f"error: {images}: not a valid gzip file: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "images, labels, named",
        [
            ((0, 1, 2, b""), (0, b""), "x.idx"),
            ((3, 0, 2, b""), (3, b"\0\1\2"), "x.idx"),
            ((3, 1, 2, bytes(6)), (2, b"\0\1"), "y.idx"),
            ((3, 1, 2, bytes(6)), (3, b"\0\0\0"), "y.idx"),
        ],
    )
    def test_unusable_idx_pair_names_file(self, tmp_path, capsys, images, labels, named):
        # no images, no pixels, a count mismatch, a single class
        img, lbl = tmp_path / "x.idx", tmp_path / "y.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, *images[:3]) + images[3])
        lbl.write_bytes(struct.pack(">II", 0x801, labels[0]) + labels[1])
        argv = ["run", "--objective", "idx", "--images", str(img), "--labels", str(lbl),
                "--nodes", "2", "--iters", "6", "--eval-every", "0", "--seed", "1"]
        assert run_cli(argv) == 1
        assert f"{tmp_path / named}" in capsys.readouterr().err

    def test_idx_run_requires_paths(self, capsys):
        argv = ["run", "--objective", "idx", "--nodes", "2", "--iters", "20",
                "--eval-every", "0", "--seed", "4"]
        assert run_cli(argv) == 1


class TestInputPaths:
    def test_directory_input_exits_one(self, tmp_path, capsys):
        d = str(tmp_path)
        for argv in (
            ["run", *QUAD, "--seed", "1", "--topology", d],
            ["run", "--objective", "idx", "--images", d, "--labels", d, "--nodes", "2",
             "--iters", "20", "--eval-every", "0", "--seed", "1"],
            ["validate-trace", "--trace", d, "--d", "1"],
            ["inspect-idx", "--path", d],
        ):
            assert run_cli(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and d in err, argv

    @pytest.mark.parametrize("argv", [
        ["run", *QUAD, "--seed", "1", "--out", ""],
        ["run", *QUAD, "--seed", "1", "--trace", ""],
        ["sweep", *QUAD, "--seed", "1", "--axis", "d", "--values", "0,1", "--out", ""],
        ["compare", *QUAD, "--seed", "1", "--repeats", "1", "--out", ""],
        ["validate-trace", "--d", "1", "--trace", ""],
    ])
    def test_empty_path_rejected_before_any_run(self, argv, capsys, monkeypatch):
        # read as "not given", an empty output path would run everything and write nothing
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran"))
        monkeypatch.setattr(cli, "sweep", lambda *a: pytest.fail("swept"))
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {argv[-2]}: expected a file path, got ''\n"
        assert captured.out == ""

    @pytest.mark.parametrize("empty", ["--out-images", "--out-labels"])
    def test_empty_gen_data_path_rejected_before_writing(self, empty, tmp_path, capsys):
        # the images are written before the labels: a late failure would leave half a pair
        paths = {"--out-images": str(tmp_path / "i.idx"), "--out-labels": str(tmp_path / "l.idx")}
        paths[empty] = ""
        argv = ["gen-data", "--seed", "0", "--samples", "4"]
        for flag, path in paths.items():
            argv += [flag, path]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {empty}: expected a file path, got ''\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []


# one value per settings row, as the entries of a flag (repeated for a repeatable
# row) and, joined by spaces, as one config-file value; each differs from the default
ROW_VALUES = {
    "name": ["exp"], "topology": ["line"], "nodes": ["4"], "objective": ["quadratic"],
    "samples": ["100"], "dim": ["4"], "classes": ["3"], "separation": ["3.5"],
    "center": ["1.5,-2"], "spread": ["2.5"], "l2": ["0.01"], "images": ["x.idx"],
    "labels": ["y.idx"], "schedule": ["const:4"], "step": ["invtime:0.1,0.01"], "d": ["3"],
    "iters": ["7"], "total-iters": ["9"], "algorithm": ["threshold"], "coeff": ["0.5"],
    "straggler": ["0:2.0", "1:3.0"], "compute": ["0.2,2.0"], "network": ["0.3,3.0"],
    "eval-every": ["2"], "eval-samples": ["10"],
}


def build(argv):
    return cli._build_config(cli.build_parser().parse_args(["run", *argv, "--seed", "1"]))


class TestSettingsTable:
    def test_every_row_has_a_value(self):
        assert list(ROW_VALUES) == list(cli._SETTINGS)

    @pytest.mark.parametrize("key", list(ROW_VALUES))
    def test_flag_and_file_build_equal_configs(self, key, tmp_path):
        entries = ROW_VALUES[key]
        path = tmp_path / "one.ini"
        path.write_text(f"[task]\n{key} = {' '.join(entries)}\n")
        from_flag = build([arg for v in entries for arg in (f"--{key}", v)])
        from_file = build(["--config", str(path)])
        assert from_flag == from_file
        assert from_flag != build([])

    def test_bare_run_defaults(self):
        assert build([]) == ExperimentConfig(iterations=60000, seed=1)


INI_KEYS = sorted(cli._SETTINGS)
# characters that mutate a valid value into a truncated, malformed or non-numeric one
MUTATIONS = st.text(alphabet="0123456789.,:-+e x%_nai", max_size=8)


@st.composite
def ini_values(draw):
    key = draw(st.sampled_from(INI_KEYS))
    valid = " ".join(ROW_VALUES[key])
    cut = draw(st.integers(0, len(valid)))
    value = draw(st.sampled_from([
        valid, valid[:cut], valid[:cut] + draw(MUTATIONS) + valid[cut:], draw(MUTATIONS),
    ]))
    return key, value


@settings(max_examples=300)
@given(st.lists(ini_values(), max_size=6, unique_by=lambda kv: kv[0]))
@example([("schedule", "const:1e999")])
def test_fuzzed_config_files_exit_cleanly(pairs):
    """Any INI text over the table's keys: exit 0, or exit 1 naming the file."""
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_experiment", lambda cfg, **kw: cfg.validate())
        mp.setattr(cli, "_print_metrics", lambda m: None)
        path = Path(d) / "fuzz.ini"
        path.write_text("[task]\n" + "".join(f"{k} = {v}\n" for k, v in pairs))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", str(path), "--seed", "1"])
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert str(path) in err.getvalue()


@functools.cache
def written_traces() -> tuple[bytes, ...]:
    """Trace files of two small runs: a ring at d=1 and a line with a straggler at d=0."""
    texts = []
    with tempfile.TemporaryDirectory() as d:
        for extra in ([], ["--topology", "line", "--d", "0", "--straggler", "0:3"]):
            path = Path(d) / "run.trace"
            argv = ["run", *QUAD, "--iters", "8", "--schedule", "const:2", "--seed", "4",
                    "--trace", str(path), *extra]
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_cli(argv) == 0
            texts.append(path.read_bytes())
    return tuple(texts)


# bytes that turn a trace's fields, separators and lines into truncated or malformed ones
TRACE_BYTES = st.lists(st.sampled_from(list(b"0123456789.,-+e x#\nfrom=sgapylditn\xff\x00")),
                       max_size=6).map(bytes)


@st.composite
def mutated_traces(draw):
    data = draw(st.sampled_from(written_traces()))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(TRACE_BYTES) + data[at + draw(st.integers(0, 8)):]
    cut = draw(st.integers(0, len(data)))
    # whole, cut anywhere, or cut after a line
    return data[:draw(st.sampled_from([len(data), cut, data.rfind(b"\n", 0, cut) + 1]))]


@settings(max_examples=300)
@given(mutated_traces())
def test_fuzzed_traces_exit_cleanly(data):
    """Truncated and mutated traces through validate-trace: exit 0 or 3, or 1 naming the file.

    Exit 3 is the verifier's verdict on a trace that reads but breaks the
    bound, which a mutated round number can make.
    """
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.trace"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["validate-trace", "--trace", str(path), "--d", "1"])
    assert code in (0, 1, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert str(path) in err.getvalue()


@functools.cache
def written_idx_pair() -> tuple[bytes, bytes]:
    """Images and labels of a 12-sample, 2-feature, 3-class IDX pair."""
    with tempfile.TemporaryDirectory() as d:
        img, lbl = Path(d) / "x.idx", Path(d) / "y.idx"
        argv = ["gen-data", "--out-images", str(img), "--out-labels", str(lbl),
                "--samples", "12", "--dim", "2", "--classes", "3", "--seed", "4"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(argv) == 0
        return img.read_bytes(), lbl.read_bytes()


# bytes that turn IDX headers, payloads and gzip streams into truncated or malformed ones
IDX_BYTES = st.lists(st.sampled_from([0, 1, 2, 3, 8, 12, 0x1f, 0x8b, 0x7f, 0x80, 0xff]),
                     max_size=6).map(bytes)


def mutated(draw, data: bytes, alphabet) -> bytes:
    """data with up to three spans replaced by drawn bytes, then cut anywhere or not at all."""
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(alphabet) + data[at + draw(st.integers(0, 8)):]
    return data[:draw(st.sampled_from([len(data), draw(st.integers(0, len(data)))]))]


@st.composite
def mutated_idx_files(draw):
    """(which of the pair, file name, bytes): plain, or gzipped with the stream itself mutated."""
    which = draw(st.sampled_from([0, 1]))
    data = mutated(draw, written_idx_pair()[which], IDX_BYTES)
    if not draw(st.booleans()):
        return which, "fuzz.idx", data
    return which, "fuzz.idx.gz", mutated(draw, gzip.compress(data, mtime=0), IDX_BYTES)


def exit_of(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(mutated_idx_files())
def test_fuzzed_idx_files_exit_cleanly(drawn):
    """Cut and mutated IDX files, plain and gzipped, through inspect-idx and an idx run.

    Each exits 0, or 1 naming the file; never 2 or a traceback.
    """
    which, name, data = drawn
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / name
        path.write_bytes(data)
        pair = [Path(d) / "x.idx", Path(d) / "y.idx"]
        pair[which] = path
        for other, valid in zip(pair, written_idx_pair()):
            if other != path:
                other.write_bytes(valid)
        for argv in (
            ["inspect-idx", "--path", str(path)],
            ["run", "--objective", "idx", "--images", str(pair[0]), "--labels", str(pair[1]),
             "--nodes", "2", "--iters", "6", "--eval-every", "0", "--seed", "1"],
        ):
            code, err = exit_of(argv)
            assert code in (0, 1), (argv[0], err)
            assert "Traceback" not in err
            if code == 1:
                assert str(path) in err, (argv[0], err)


EDGE_BYTES = st.lists(st.sampled_from(list(b"0123456789 #\n\t-+x.e\xff\x00")),
                      max_size=6).map(bytes)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_edge_lists_exit_cleanly(data):
    """Cut and mutated edge lists through run --topology: exit 0, or 1 naming the file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.edges"
        path.write_bytes(mutated(data.draw, b"# ring\n0 1\n1 2\n2 0\n", EDGE_BYTES))
        code, err = exit_of(["run", *QUAD, "--seed", "1", "--iters", "6",
                             "--topology", str(path)])
    assert code in (0, 1), err
    assert "Traceback" not in err
    if code == 1:
        assert str(path) in err

"""Command-line interface: flag parsing, config files, subcommands, exit codes."""
import pytest

from etsgd import cli


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

    def test_bad_straggler_syntax(self, capsys):
        for value in ("0=2", "0:x", "y:2"):
            assert run_cli(["run", *QUAD, "--seed", "1", "--straggler", value]) == 1
            err = capsys.readouterr().err
            assert "--straggler" in err and "NODE:FACTOR" in err and repr(value) in err


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

    def test_threshold_run(self, capsys):
        argv = ["run", *QUAD, "--seed", "1", "--algorithm", "threshold", "--coeff", "0.5"]
        assert run_cli(argv) == 0
        assert "delay_check=n/a" in capsys.readouterr().out

    def test_output_files(self, tmp_path, capsys):
        out, trace, svg = tmp_path / "m.csv", tmp_path / "t.trace", tmp_path / "c.svg"
        argv = ["run", "--objective", "quadratic", "--samples", "50", "--nodes", "3",
                "--iters", "30", "--seed", "1",
                "--out", str(out), "--trace", str(trace), "--svg", str(svg)]
        assert run_cli(argv) == 0
        assert out.read_text().splitlines()[0].startswith("experiment,node,round")
        assert trace.read_text().startswith("# nodes 3")
        assert svg.read_text().startswith("<svg")

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

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli(["run", "--config", str(tmp_path / "nope.ini"), "--seed", "2"]) == 1

    def test_config_straggler_entry(self, tmp_path, capsys):
        path = self.write_config(tmp_path, (
            "[task]\nobjective = quadratic\nsamples = 50\nnodes = 3\n"
            "iters = 30\neval-every = 0\nstraggler = 0:2.0\n"
        ))
        assert run_cli(["run", "--config", path, "--seed", "2"]) == 0


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


class TestCompare:
    def test_compare_table(self, capsys):
        argv = ["compare", *QUAD, "--seed", "3", "--repeats", "1"]
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert "seed  scheduled_rounds  threshold_broadcasts  reduction" in out
        assert "3 " in out


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

    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"not an idx file at all")
        assert run_cli(["inspect-idx", "--path", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_idx_run_requires_paths(self, capsys):
        argv = ["run", "--objective", "idx", "--nodes", "2", "--iters", "20",
                "--eval-every", "0", "--seed", "4"]
        assert run_cli(argv) == 1

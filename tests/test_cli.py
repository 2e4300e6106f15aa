import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys

import pytest

import pmmwm
from pmmwm import instgen
from pmmwm.cli import _add_solver_flags, _instances_from_args, _params_from, build_parser, main
from pmmwm.graph import load_instance, load_solution, save_instance
from pmmwm.errors import ParseError
from pmmwm.harness import REPORT_COLUMNS, RunReport, read_csv, read_reports, write_reports
from pmmwm.hga import HgaParams
from pmmwm.orchestrator import FimpParams, RunResult, RunStats

from helpers import example_base_solution, make_example_graph


@pytest.fixture
def example_file(tmp_path):
    path = str(tmp_path / "example.txt")
    save_instance(make_example_graph(), path)
    return path


def run_cli(args):
    return main(args)


class TestSolveCommand:
    def test_solve_prints_objective(self, example_file, capsys):
        assert run_cli(["solve", example_file, "--seed", "1",
                        "--max-iterations", "10", "--pop-size", "6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("objective ")

    def test_solve_json_deterministic(self, example_file, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            path = str(tmp_path / name)
            assert run_cli(["solve", example_file, "--seed", "7",
                            "--max-iterations", "8", "--pop-size", "6",
                            "--json", path]) == 0
            payload = load_solution(path)
            # wall_time_ms is the one timing field; everything derived from
            # the algorithm must be byte-identical
            payload.pop("wall_time_ms")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_solution_file_shape(self, example_file, tmp_path):
        path = str(tmp_path / "sol.json")
        run_cli(["solve", example_file, "--seed", "3", "--max-iterations", "8",
                 "--pop-size", "6", "--json", path])
        payload = load_solution(path)
        assert set(payload) == {"objective", "mate", "part_of",
                                "partition_weights", "seed", "iterations",
                                "wall_time_ms"}
        assert payload["objective"] == 4
        assert len(payload["mate"]) == 6
        assert len(payload["part_of"]) == 6
        assert max(payload["partition_weights"]) == payload["objective"]
        assert payload["seed"] == 3

    def test_solution_time_is_the_stats_time(self, example_file, tmp_path):
        sol, stats = str(tmp_path / "sol.json"), str(tmp_path / "stats.json")
        assert run_cli(["solve", example_file, "--seed", "3", "--max-iterations", "8",
                        "--pop-size", "6", "--json", sol, "--stats", stats]) == 0
        with open(stats) as fh:
            assert load_solution(sol)["wall_time_ms"] == int(json.load(fh)["wall_time_ms"])

    def test_stats_file(self, example_file, tmp_path):
        path = str(tmp_path / "stats.json")
        run_cli(["solve", example_file, "--seed", "3", "--max-iterations", "6",
                 "--pop-size", "6", "--stats", path])
        with open(path) as fh:
            stats = json.load(fh)
        # the optimum 4 equals ceil(W*/m), so the run ends certified
        assert stats["iterations"] == len(stats["trace"])
        assert stats["certified_optimal"] is True
        assert stats["lower_bound"] == stats["trace"][-1]["incumbent"] == 4
        incumbents = [t["incumbent"] for t in stats["trace"]]
        assert incumbents == sorted(incumbents, reverse=True)

    def test_baseline_stats_file(self, example_file, tmp_path):
        path = str(tmp_path / "stats.json")
        run_cli(["solve", example_file, "--algo", "baseline", "--seed", "3",
                 "--max-iterations", "6", "--stats", path])
        with open(path) as fh:
            stats = json.load(fh)
        assert stats["iterations"] == len(stats["trace"]) == 6
        assert stats["lower_bound"] is None
        assert stats["certified_optimal"] is False

    def test_stats_file_in_file_units(self, tmp_path, capsys):
        # decimal weights are held scaled by 100; the diagonal is the only
        # cheap matching (8.25), so the bound is ceil(825 / 2) / 100 = 4.13
        # and the best split is {1.5, 2.75} | {2.25, 1.75}, 4.25
        inst = tmp_path / "decimal.txt"
        diagonal = [1.5, 2.25, 1.75, 2.75]
        inst.write_text("4 4 2 2\n" + "".join(
            f"{u} {v} {diagonal[u] if u == v else 9}\n"
            for u in range(4) for v in range(4)))
        path = str(tmp_path / "stats.json")
        assert run_cli(["solve", str(inst), "--seed", "1", "--max-iterations", "3",
                        "--pop-size", "6", "--stats", path]) == 0
        assert capsys.readouterr().out == "objective 4.25\n"
        with open(path) as fh:
            stats = json.load(fh)
        assert set(stats) == {"seed", "iterations", "wall_time_ms", "match_time_ms",
                              "hga_time_ms", "lower_bound", "certified_optimal",
                              "trace"}
        for record in stats["trace"]:
            assert set(record) == {"iteration", "objective", "incumbent",
                                   "bans_active", "match_ms", "hga_ms"}
        assert stats["lower_bound"] == 4.13
        assert stats["certified_optimal"] is False
        assert stats["trace"][0]["objective"] == 4.25
        assert [t["incumbent"] for t in stats["trace"]] == [4.25] * 3

    def test_baseline_algo(self, example_file, capsys):
        assert run_cli(["solve", example_file, "--algo", "baseline",
                        "--max-iterations", "8"]) == 0
        assert capsys.readouterr().out.startswith("objective ")


class TestOracleCommand:
    def test_example_prints_4(self, example_file, capsys):
        assert run_cli(["oracle", example_file]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_too_large_exit_code(self, tmp_path, capsys):
        path = str(tmp_path / "big.txt")
        run_cli(["generate", "--n1", "9", "--m", "2", "--ubar", "5",
                 "--seed", "1", "--out", path])
        capsys.readouterr()
        assert run_cli(["oracle", path]) == 5


class TestPartitionCountAboveRows:
    """At most n1 partitions can be non-empty, so m > n1 runs as m = n1."""

    @pytest.fixture
    def big_m_file(self, tmp_path):
        path = tmp_path / "big_m.txt"
        path.write_text("2 2 1000000000000 1\n0 0 1\n1 1 2\n")
        return str(path)

    @pytest.mark.parametrize("algo", ["fimp-hga", "baseline"])
    def test_solve(self, big_m_file, tmp_path, capsys, algo):
        path = str(tmp_path / "sol.json")
        assert run_cli(["solve", big_m_file, "--algo", algo, "--max-iterations", "3",
                        "--json", path]) == 0
        assert capsys.readouterr().out.strip() == "objective 2"
        assert sorted(load_solution(path)["partition_weights"]) == [1, 2]

    def test_oracle(self, big_m_file, capsys):
        assert run_cli(["oracle", big_m_file]) == 0
        assert capsys.readouterr().out.strip() == "2"


class TestGenerateCommands:
    def test_generate_then_solve(self, tmp_path, capsys):
        path = str(tmp_path / "gen.txt")
        assert run_cli(["generate", "--n1", "6", "--m", "2", "--ubar", "4",
                        "--density", "0.8", "--model", "CONSISTENT",
                        "--w-max", "60", "--seed", "5", "--out", path]) == 0
        capsys.readouterr()
        assert run_cli(["solve", path, "--max-iterations", "5",
                        "--pop-size", "6"]) == 0

    def test_generate_rejects_bad_spec(self, tmp_path, capsys):
        path = str(tmp_path / "bad.txt")
        code = run_cli(["generate", "--n1", "6", "--m", "1", "--ubar", "2",
                        "--out", path])
        assert code == 2

    def test_generate_rejects_w_max_past_loader_limit(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        assert run_cli(["generate", "--n1", "4", "--m", "2", "--ubar", "2",
                        "--w-max", "10000000000000000", "--out", str(path)]) == 2
        assert "w_max=10000000000000000" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("n2", ["0", "3"])
    def test_generate_rejects_n2_below_n1(self, tmp_path, capsys, n2):
        path = tmp_path / "bad.txt"
        assert run_cli(["generate", "--n1", "5", "--n2", n2, "--m", "2",
                        "--ubar", "3", "--out", str(path)]) == 2
        assert f"n2={n2}" in capsys.readouterr().err
        assert not path.exists()

    def test_benchmark_gen(self, tmp_path, monkeypatch, capsys):
        # one cell of the sweep, one seed: one instance and its manifest row
        monkeypatch.setattr(instgen, "BENCHMARK_N1", (6,))
        monkeypatch.setattr(instgen, "BENCHMARK_M", (2,))
        monkeypatch.setattr(instgen, "BENCHMARK_SEEDS", 1)
        out = tmp_path / "bench"
        assert run_cli(["benchmark-gen", "--group", "consistent-dense",
                        "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out == f"1 instances written to {out}\n"
        with open(out / "manifest.csv", newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert sorted(os.listdir(out)) == sorted([row["file"], "manifest.csv"])
        assert {k: row[k] for k in ("n1", "n2", "m", "ubar", "density", "model", "seed")} == \
            dict(n1="6", n2="6", m="2", ubar="4", density="1.0", model="CONSISTENT", seed="0")
        g = load_instance(str(out / row["file"]))
        assert (g.n1, g.n2, g.m, g.ubar) == (6, 6, 2, 4)

    def test_generate_n2_defaults_to_n1(self, tmp_path, capsys):
        path = str(tmp_path / "square.txt")
        assert run_cli(["generate", "--n1", "5", "--m", "2", "--ubar", "3",
                        "--out", path]) == 0
        g = load_instance(path)
        assert (g.n1, g.n2) == (5, 5)


class TestErrorCodes:
    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("not a header\n")
        assert run_cli(["solve", str(path)]) == 3

    @pytest.mark.parametrize("body, message", [
        (b"1 1 1 1\n0 0 100000000000000000000\n", "line 2: weight '1000"),
        (b"1 1 1 1\n0 0 1\xff\n", "line 2, column 6: byte 0xff is not UTF-8"),
    ], ids=["oversized-weight", "non-utf-8"])
    def test_unreadable_token_exit_3(self, tmp_path, capsys, body, message):
        path = tmp_path / "broken.txt"
        path.write_bytes(body)
        assert run_cli(["solve", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("body, message", [
        (b"id,path\na,a.txt\n", "line 1: missing column 'file'"),
        (b"id,file\na\n", "line 2, column 'file': missing cell"),
        (b"id,file\na,\n", "line 2, column 'file': missing cell"),
        (b"id,file\na,a\xff.txt\n", "line 2, column 4: byte 0xff is not UTF-8"),
    ], ids=["no-file-column", "short-row", "empty-cell", "non-utf-8"])
    def test_malformed_manifest_exit_3(self, tmp_path, capsys, body, message):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(body)
        assert run_cli(["bench", "--manifest", str(manifest),
                        "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {manifest}: {message}\n"

    def test_infeasible_instance(self, tmp_path, capsys):
        path = tmp_path / "infeasible.txt"
        path.write_text("2 2 2 1\n0 0 1\n1 0 1\n")
        assert run_cli(["solve", str(path)]) == 4

    @pytest.mark.parametrize("extra", [
        ["--algo", "nope"],
        ["--mutation-rate", "0.1"],  # the HGA's mutation rate and elite count are constants
        ["--elite-count", "2"],
    ], ids=["algo", "mutation-rate", "elite-count"])
    def test_usage_error_exit_2(self, example_file, extra):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", example_file] + extra)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--tenure", "0", "tenure must be >= 1"),
        ("--pop-size", "1", "pop_size must be >= 2"),
        ("--max-iterations", "0", "max_iterations must be >= 1"),
        ("--time-limit-ms", "-5", "time_limit_ms must be >= 0"),
    ], ids=["tenure", "pop-size", "max-iterations", "time-limit"])
    def test_invalid_solver_value_exit_2(self, example_file, tmp_path, capsys,
                                         command, flag, value, message):
        args = ([command, example_file] if command == "solve" else
                [command, "--dir", str(tmp_path), "--out", str(tmp_path / "x.csv")])
        with pytest.raises(SystemExit) as exc:
            run_cli(args + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_missing_file_io(self, capsys):
        assert run_cli(["solve", "/nonexistent/path.txt"]) == 6

    def test_invalid_solution_exit_7(self, example_file, monkeypatch, capsys):
        sol = example_base_solution()
        sol.partition.part_of = [0, 0, 0, 0, 1, 2]   # partition 0 over ubar=3

        def bad_run(g, algo, params):
            return RunResult(sol, RunStats(params.rng_seed, 0, 0.0, 0.0, 0.0, []))

        monkeypatch.setattr("pmmwm.cli.run_algorithm", bad_run)
        assert run_cli(["solve", example_file]) == 7
        err = capsys.readouterr().err
        assert err.startswith("error: solver produced invalid solution: ")


class TestSolverFlags:
    """Every solver flag is a params field and every field a flag, so a
    removed knob cannot leave a dead flag behind."""

    FIMP = {f.name for f in dataclasses.fields(FimpParams)} - {"hga", "rng_seed"}
    HGA = {f.name for f in dataclasses.fields(HgaParams)} - {"rng_seed"}

    @pytest.fixture
    def parser(self):
        parser = argparse.ArgumentParser()
        _add_solver_flags(parser)
        return parser

    def test_flags_are_the_params_fields(self, parser):
        dests = {action.dest for action in parser._actions} - {"help"}
        assert dests == self.FIMP | self.HGA | {"algo", "seed"}

    def test_each_flag_reaches_params(self, parser):
        defaults = _params_from(parser.parse_args([]))
        assert defaults == FimpParams()
        for name in sorted(self.FIMP | self.HGA):
            params = _params_from(parser.parse_args(["--" + name.replace("_", "-"), "7"]))
            if name in self.FIMP:
                expected = dataclasses.replace(defaults, **{name: 7})
            else:
                expected = dataclasses.replace(
                    defaults, hga=dataclasses.replace(defaults.hga, **{name: 7}))
            assert params == expected, name
        assert _params_from(parser.parse_args(["--seed", "7"])) == \
            dataclasses.replace(defaults, rng_seed=7)

    @pytest.mark.parametrize("argv", [["solve", "inst.txt"],
                                      ["bench", "--dir", "d", "--out", "runs.csv"]])
    def test_command_line_without_solver_flags_gives_params_defaults(self, argv):
        assert _params_from(build_parser().parse_args(argv)) == FimpParams()


class TestBenchAndCompare:
    def test_bench_and_compare_self(self, tmp_path, capsys):
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        for seed in range(3):
            run_cli(["generate", "--n1", "5", "--m", "2", "--ubar", "3",
                     "--seed", str(seed), "--out",
                     str(inst_dir / f"i{seed}.txt")])
        out_csv = str(tmp_path / "runs.csv")
        assert run_cli(["bench", "--dir", str(inst_dir), "--out", out_csv,
                        "--max-iterations", "6", "--pop-size", "6",
                        "--seed", "2"]) == 0
        cmp_csv = str(tmp_path / "cmp.csv")
        capsys.readouterr()
        assert run_cli(["compare", out_csv, out_csv, "--out", cmp_csv]) == 0
        out = capsys.readouterr().out
        assert "wins 0 ties 3 losses 0" in out
        assert "mean_time_ratio 1.000" in out

    def test_bench_uses_manifest_when_present(self, tmp_path, capsys):
        from pmmwm.instgen import generate_benchmark
        # use a real group directory but only run two instances via manifest
        import csv as _csv
        bench_dir = tmp_path / "group"
        generate_benchmark("independent-sparse", str(bench_dir))
        manifest = bench_dir / "manifest.csv"
        with open(manifest, newline="") as fh:
            rows = list(_csv.DictReader(fh))
        small = [r for r in rows if r["n1"] == "50"][:2]
        trimmed = tmp_path / "trimmed.csv"
        with open(trimmed, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=rows[0].keys())
            writer.writeheader()
            writer.writerows(small)
        # manifest paths resolve relative to the manifest's directory
        import shutil
        shutil.copy(trimmed, bench_dir / "trimmed.csv")
        out_csv = str(tmp_path / "runs.csv")
        assert run_cli(["bench", "--manifest", str(bench_dir / "trimmed.csv"),
                        "--out", out_csv, "--max-iterations", "3",
                        "--pop-size", "4", "--max-generations", "5"]) == 0
        # listing the group's files names the same instances as its manifest
        def instances(*source):
            return _instances_from_args(build_parser().parse_args(["bench", *source, "--out", "x"]))

        listed = instances("--dir", str(bench_dir))
        assert len(listed) == len(rows)
        assert sorted(listed) == sorted(instances("--manifest", str(manifest)))

    def test_bench_dir_lists_files_and_manifest_selects(self, tmp_path, capsys):
        # D/manifest.csv lists one of D's two instance files: --dir runs both,
        # --manifest runs only the one it lists
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        for seed in range(2):
            run_cli(["generate", "--n1", "5", "--m", "2", "--ubar", "3",
                     "--seed", str(seed), "--out", str(inst_dir / f"i{seed}.txt")])
        (inst_dir / "manifest.csv").write_text("file\ni1.txt\n")
        out_csv = str(tmp_path / "runs.csv")
        for source, expected in ((["--dir", str(inst_dir)], ["i0.txt", "i1.txt"]),
                                 (["--manifest", str(inst_dir / "manifest.csv")], ["i1.txt"])):
            assert run_cli(["bench", *source, "--out", out_csv,
                            "--max-iterations", "3", "--pop-size", "4"]) == 0
            assert [r.instance for r in read_reports(out_csv)] == expected

    def _one_row_csv(self, path, instance):
        write_reports(str(path), [RunReport(instance, "baseline", 0, 3.0, None, None,
                                            1, 1.0, 1.0, 1.0)])
        return str(path)

    def test_compare_different_instances_exits_2(self, tmp_path, capsys):
        a = self._one_row_csv(tmp_path / "a.csv", "x")
        b = self._one_row_csv(tmp_path / "b.csv", "y")
        assert run_cli(["compare", a, b]) == 2
        err = capsys.readouterr().err
        assert err == "error: compare: instance 'x' is in A but not in B\n"

    def test_compare_repeated_instance_exits_2(self, tmp_path, capsys):
        # bench --manifest listing one file twice writes two rows for it
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        run_cli(["generate", "--n1", "5", "--m", "2", "--ubar", "3",
                 "--out", str(inst_dir / "i0.txt")])
        (inst_dir / "twice.csv").write_text("file\ni0.txt\ni0.txt\n")
        twice = str(tmp_path / "twice.csv")
        assert run_cli(["bench", "--manifest", str(inst_dir / "twice.csv"),
                        "--out", twice, "--algo", "baseline",
                        "--max-iterations", "2"]) == 0
        once = self._one_row_csv(tmp_path / "once.csv", "i0.txt")
        capsys.readouterr()
        assert run_cli(["compare", twice, once]) == 2
        err = capsys.readouterr().err
        assert err == "error: compare: instance 'i0.txt' appears more than once in A\n"

    def test_bench_requires_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_bench_rejects_dir_with_manifest(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--dir", str(tmp_path), "--manifest", str(tmp_path / "m.csv"),
                     "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bench_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--dir", str(tmp_path), "--out", str(tmp_path / "x.csv"),
                     "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


class TestCompareMalformed:
    """A report CSV that ``read_reports`` cannot parse makes ``compare``
    exit 3 with an error naming the file, the line and the column."""

    HEADER = ",".join(REPORT_COLUMNS).encode() + b"\n"
    GOOD_ROW = b"a.txt,fimp-hga,1,10,,,3,1.0,0.5,0.5,,False\n"

    def _compare(self, tmp_path, capsys, data: bytes) -> str:
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert run_cli(["compare", str(path), str(path)]) == 3
        err = capsys.readouterr().err
        assert str(path) in err
        return err

    def test_missing_columns(self, tmp_path, capsys):
        err = self._compare(tmp_path, capsys, b"instance,algo\na.txt,fimp-hga\n")
        assert "line 1: missing column 'seed'" in err

    def test_non_numeric_objective(self, tmp_path, capsys):
        bad = self.GOOD_ROW.replace(b",10,", b",ten,")
        err = self._compare(tmp_path, capsys, self.HEADER + self.GOOD_ROW + bad)
        assert "line 3, column 'objective'" in err

    def test_non_utf8_byte(self, tmp_path, capsys):
        err = self._compare(tmp_path, capsys, self.HEADER + b"\xff" + self.GOOD_ROW)
        assert "line 2, column 1" in err

    def test_certified_optimal_not_a_bool(self, tmp_path, capsys):
        bad = self.GOOD_ROW.replace(b",False\n", b",yes\n")
        err = self._compare(tmp_path, capsys, self.HEADER + bad)
        assert "line 2, column 'certified_optimal': 'yes' is neither True nor False" in err


class TestOneInputRule:
    """Every reader of an input file follows one rule: a path that cannot be
    read raises its OSError (exit 6), and a fault of a file that was read is
    a ParseError (exit 3) that starts with the file's path and its line, with
    lines ended by LF, CRLF or CR alike."""

    # reader, file name, and the file's two lines
    READERS = {
        "instance": (load_instance, "inst.txt", b"1 1 1 1", b"0 0 1"),
        "csv": (lambda path: read_csv(path, {"file": str}), "manifest.csv",
                b"file", b"a.txt"),
        "solution": (load_solution, "sol.json", b"{", b'"seed": 1}'),
    }
    ENDS = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}

    @pytest.mark.parametrize("end", ENDS)
    @pytest.mark.parametrize("reader", READERS)
    def test_bad_byte_names_file_line_and_column(self, tmp_path, reader, end):
        load, name, first, second = self.READERS[reader]
        path = tmp_path / name
        eol = self.ENDS[end]
        path.write_bytes(first + eol + second[:2] + b"\xff" + second[2:] + eol)
        with pytest.raises(ParseError) as exc:
            load(str(path))
        assert str(exc.value) == f"{path}: line 2, column 3: byte 0xff is not UTF-8"

    @pytest.mark.parametrize("reader", READERS)
    def test_missing_path_raises_os_error(self, tmp_path, reader):
        load, name, *_ = self.READERS[reader]
        with pytest.raises(FileNotFoundError):
            load(str(tmp_path / name))

    @pytest.mark.parametrize("end", ENDS)
    def test_json_fault_names_file_line_and_column(self, tmp_path, end):
        path = tmp_path / "sol.json"
        path.write_bytes(self.ENDS[end].join([b"{", b'"seed": 1,', b"}"]))
        with pytest.raises(ParseError) as exc:
            load_solution(str(path))
        assert str(exc.value) == (f"{path}: line 3, column 1: "
                                  "Expecting property name enclosed in double quotes")

    # ``solve`` is test_missing_file_io's case.
    @pytest.mark.parametrize("command", [["oracle"], ["compare", "x.csv"]])
    def test_missing_path_exits_6(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing")
        assert run_cli(command[:1] + [missing] + command[1:]) == 6
        assert capsys.readouterr().err.startswith("io error: ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bench_dir_names_the_malformed_file(self, tmp_path, capsys, jobs):
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        run_cli(["generate", "--n1", "5", "--m", "2", "--ubar", "3",
                 "--out", str(inst_dir / "a.txt")])
        (inst_dir / "b.txt").write_text("1 1 1 1\n0 0 x\n")
        capsys.readouterr()
        assert run_cli(["bench", "--dir", str(inst_dir), "--out", str(tmp_path / "runs.csv"),
                        "--jobs", jobs, "--max-iterations", "2", "--pop-size", "4"]) == 3
        assert capsys.readouterr().err == f"error: {inst_dir / 'b.txt'}: line 2: bad weight 'x'\n"

    def test_bench_missing_dir_exits_6(self, tmp_path, capsys):
        assert run_cli(["bench", "--dir", str(tmp_path / "missing"),
                        "--out", str(tmp_path / "runs.csv")]) == 6
        assert capsys.readouterr().err.startswith("io error: ")

    def test_bench_dir_without_instances_exits_2(self, tmp_path, capsys):
        # Only ``*.txt`` names that do not start with a dot are instances.
        (tmp_path / ".hidden.txt").write_text("not an instance\n")
        (tmp_path / "notes.md").write_text("not an instance\n")
        assert run_cli(["bench", "--dir", str(tmp_path), "--out", str(tmp_path / "runs.csv")]) == 2
        assert capsys.readouterr().err == "no instances found\n"


def test_console_entry_point(example_file):
    # The child imports pmmwm from where this process did, installed or not.
    src = os.path.dirname(os.path.dirname(pmmwm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pmmwm.cli", "oracle", example_file],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"

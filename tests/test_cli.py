import argparse
import dataclasses
import json
import subprocess
import sys

import pytest

from pmmwm.cli import _add_solver_flags, _params_from, main
from pmmwm.graph import load_solution, save_instance
from pmmwm.harness import REPORT_COLUMNS, read_reports
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


class TestErrorCodes:
    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("not a header\n")
        assert run_cli(["solve", str(path)]) == 3

    @pytest.mark.parametrize("body, message", [
        (b"1 1 1 1\n0 0 100000000000000000000\n", "line 2: weight '1000"),
        (b"1 1 1 1\n0 0 1\xff\n", "line 2: not UTF-8 text"),
    ], ids=["oversized-weight", "non-utf-8"])
    def test_unreadable_token_exit_3(self, tmp_path, capsys, body, message):
        path = tmp_path / "broken.txt"
        path.write_bytes(body)
        assert run_cli(["solve", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("body, message", [
        (b"id,path\na,a.txt\n", "line 1: missing column 'file'"),
        (b"id,file\na\n", "line 2, column 'file': missing cell"),
        (b"id,file\na,a\xff.txt\n", "line 2, column 4: byte 0xff is not UTF-8"),
    ], ids=["no-file-column", "short-row", "non-utf-8"])
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

    def test_usage_error_exit_2(self, example_file):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", example_file, "--algo", "nope"])
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
        assert run_cli(["solve", "/nonexistent/path.txt"]) == 3

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

    def test_bench_dir_reads_its_manifest(self, tmp_path, capsys):
        # D/manifest.csv lists one of D's two instance files: only it runs
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        for seed in range(2):
            run_cli(["generate", "--n1", "5", "--m", "2", "--ubar", "3",
                     "--seed", str(seed), "--out", str(inst_dir / f"i{seed}.txt")])
        (inst_dir / "manifest.csv").write_text("file\ni1.txt\n")
        out_csv = str(tmp_path / "runs.csv")
        assert run_cli(["bench", "--dir", str(inst_dir), "--out", out_csv,
                        "--max-iterations", "3", "--pop-size", "4"]) == 0
        assert [r.instance for r in read_reports(out_csv)] == ["i1.txt"]

    def test_bench_requires_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--out", "x.csv"])
        assert exc.value.code == 2


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


def test_console_entry_point(example_file):
    proc = subprocess.run([sys.executable, "-m", "pmmwm.cli", "oracle",
                           example_file], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"

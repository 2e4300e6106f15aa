"""Command-line interface.

Subcommands: ``generate`` (one instance), ``benchmark-gen`` (a benchmark
group), ``solve`` (run a solver on an instance), ``oracle`` (exact optimum of
a tiny instance), ``bench`` (batch runs to CSV), ``compare`` (join two bench
CSVs). README.md's "Exit codes" table lists the exit codes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import glob
import io
import json
import os
import sys
import time

from .errors import InvalidSolution, ParseError, PmmwmError
from .graph import load_instance, save_solution, solution_to_dict, validate_solution
from .harness import (
    bench,
    compare_reports,
    exact_oracle,
    read_reports,
    read_utf8,
    run_algorithm,
    write_compare,
    write_reports,
)
from .hga import HgaParams
from .instgen import (
    BENCHMARK_GROUPS,
    WEIGHT_MODELS,
    InstanceSpec,
    generate_benchmark,
    write_instance,
)
from .orchestrator import FimpParams


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algo", choices=["fimp-hga", "baseline"],
                        default="fimp-hga")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--time-limit-ms", type=int, default=None)
    parser.add_argument("--max-iterations", type=int, default=500)
    parser.add_argument("--tenure", type=int, default=20)
    parser.add_argument("--pop-size", type=int, default=20)
    parser.add_argument("--elite-count", type=int, default=1)
    parser.add_argument("--mutation-rate", type=float, default=0.2)
    parser.add_argument("--max-generations", type=int, default=200)
    parser.add_argument("--stall-limit", type=int, default=20)


def _params_from(args: argparse.Namespace) -> FimpParams:
    hga = HgaParams(pop_size=args.pop_size, max_generations=args.max_generations,
                    stall_limit=args.stall_limit, mutation_rate=args.mutation_rate,
                    elite_count=args.elite_count)
    return FimpParams(max_iterations=args.max_iterations,
                      time_limit_ms=args.time_limit_ms, tenure=args.tenure,
                      hga=hga, rng_seed=args.seed)


def _cmd_generate(args) -> int:
    spec = InstanceSpec(n1=args.n1, n2=args.n2 if args.n2 else args.n1,
                        m=args.m, ubar=args.ubar, density=args.density,
                        weight_model=args.model, w_max=args.w_max,
                        seed=args.seed)
    write_instance(spec, args.out)
    print(args.out)
    return 0


def _cmd_benchmark_gen(args) -> int:
    paths = generate_benchmark(args.group, args.out_dir)
    print(f"{len(paths)} instances written to {args.out_dir}")
    return 0


def _cmd_solve(args) -> int:
    g = load_instance(args.instance)
    params = _params_from(args)
    t0 = time.monotonic()
    result = run_algorithm(g, args.algo, params)
    wall_ms = int((time.monotonic() - t0) * 1000)
    sol = result.solution
    violation = validate_solution(g, sol)
    if violation is not None:
        raise InvalidSolution(f"solver produced invalid solution: {violation.message}")
    if args.json:
        payload = solution_to_dict(g, sol, seed=params.rng_seed,
                                   iterations=result.stats.iterations,
                                   wall_time_ms=wall_ms)
        save_solution(args.json, payload)
    if args.stats:
        payload = dataclasses.asdict(result.stats)
        if payload["lower_bound"] is not None:
            payload["lower_bound"] = g.display_value(payload["lower_bound"])
        for record in payload["trace"]:
            record["objective"] = g.display_value(record["objective"])
            record["incumbent"] = g.display_value(record["incumbent"])
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"objective {g.display_value(sol.objective)}")
    return 0


def _cmd_oracle(args) -> int:
    g = load_instance(args.instance)
    opt, _ = exact_oracle(g, g.m, g.ubar)
    print(g.display_value(opt))
    return 0


def _instances_from_args(args) -> list[tuple[str, str]]:
    """(path, id) pairs listed by ``--manifest``, else by ``--dir``'s
    manifest.csv when it has one, else every ``*.txt`` file in ``--dir``.
    Manifest paths resolve relative to the manifest's directory."""
    manifest = args.manifest
    if not manifest:
        manifest = os.path.join(args.dir, "manifest.csv")
        if not os.path.exists(manifest):
            paths = sorted(glob.glob(os.path.join(args.dir, "*.txt")))
            return [(p, os.path.basename(p)) for p in paths]
    base = os.path.dirname(manifest)
    reader = csv.DictReader(io.StringIO(read_utf8(manifest), newline=""))
    instances = []
    try:
        if "file" not in (reader.fieldnames or []):
            raise ParseError(f"{manifest}: line {max(reader.line_num, 1)}: "
                             "missing column 'file'")
        for row in reader:
            if not row["file"]:
                raise ParseError(f"{manifest}: line {reader.line_num}, "
                                 "column 'file': missing cell")
            instances.append((os.path.join(base, row["file"]), row["file"]))
    except csv.Error as exc:
        raise ParseError(f"{manifest}: line {reader.line_num}: {exc}") from exc
    return instances


def _cmd_bench(args) -> int:
    instances = _instances_from_args(args)
    if not instances:
        print("no instances found", file=sys.stderr)
        return 2
    params = _params_from(args)
    reports = bench(instances, args.algo, params, jobs=args.jobs,
                    with_oracle=not args.no_oracle)
    write_reports(args.out, reports)
    print(f"{len(reports)} runs written to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    rows, summary = compare_reports(read_reports(args.csv_a),
                                    read_reports(args.csv_b))
    if args.out:
        write_compare(args.out, rows)
    print(f"wins {summary['wins']} ties {summary['ties']} "
          f"losses {summary['losses']} "
          f"mean_time_ratio {summary['mean_time_ratio']:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmmwm",
        description="Partitioning min-max weighted matching solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate one instance file")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, default=None,
                   help="defaults to n1")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ubar", type=int, required=True)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--model", choices=list(WEIGHT_MODELS), default="INDEPENDENT")
    p.add_argument("--w-max", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("benchmark-gen", help="generate a benchmark group")
    p.add_argument("--group", choices=sorted(BENCHMARK_GROUPS), required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_benchmark_gen)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("instance")
    _add_solver_flags(p)
    p.add_argument("--json", default=None, help="write the solution file here")
    p.add_argument("--stats", default=None,
                   help="write per-iteration statistics JSON here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exact optimum of a tiny instance")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="run a directory of instances to CSV")
    p.add_argument("--dir", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the exact-optimum column even for tiny instances")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("compare", help="win/tie/loss table of two bench CSVs")
    p.add_argument("csv_a")
    p.add_argument("csv_b")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and not (args.dir or args.manifest):
        parser.error("bench requires --dir or --manifest")
    if args.command in ("solve", "bench"):
        try:
            _params_from(args).validate()
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except PmmwmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())

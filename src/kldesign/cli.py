"""Command-line front end: run, verify, transform, benchmark.

Exit codes: 0 success/certified, 1 configuration or input error,
2 iteration budget exhausted, 3 stalled (regularization needed),
4 certificate rejected, 5 singular design needs regularization,
6 the rival attains the true model (no design discriminates).
"""

import argparse
import datetime
import json
import sys
from pathlib import Path

from . import benchmarks
from .algorithm import (EFFICIENCY_REACHED, MAX_ITERATIONS, RIVAL_ATTAINS_TRUTH,
                        STALLED, STALLED_REGULARIZED, CSV_HEADER, iteration_csv_line,
                        iterations_to_csv, run_first_order, run_regularized)
from .config import _check_design, _to_float, load_design_file, load_run_config
from .designs import AffineMap, transform_design
from .errors import ConfigError, KLDesignError, SingularMapError
from .verify import CERTIFIED, REJECTED, SINGULAR, equivalence_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BUDGET = 2
EXIT_STALLED = 3
EXIT_REJECTED = 4
EXIT_SINGULAR = 5
EXIT_RIVAL_ATTAINS = 6

_RUN_EXIT = {
    EFFICIENCY_REACHED: EXIT_OK,
    MAX_ITERATIONS: EXIT_BUDGET,
    STALLED_REGULARIZED: EXIT_STALLED,
    STALLED: EXIT_STALLED,
    RIVAL_ATTAINS_TRUTH: EXIT_RIVAL_ATTAINS,
}

_VERDICT_EXIT = {CERTIFIED: EXIT_OK, REJECTED: EXIT_REJECTED, SINGULAR: EXIT_SINGULAR}


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--output-dir", default=None,
                        help="override the config output directory (a relative "
                             "path is taken from the working directory)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-iteration log lines")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kl-design",
        description="Optimal experimental designs for discriminating between "
                    "two rival statistical models (min-divergence criterion).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the first-order exchange algorithm")
    p_run.add_argument("config", help="YAML run configuration")
    _common_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="equivalence-theorem certificate "
                                             "for a design file")
    p_verify.add_argument("config", help="YAML run configuration")
    p_verify.add_argument("design", help="design JSON file")
    _common_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_tr = sub.add_parser("transform", help="apply z = offset + scale * x to "
                                            "a design file")
    p_tr.add_argument("design", help="design JSON file")
    p_tr.add_argument("--offset", required=True,
                      help="the offset, one number, e.g. '2'; a negative one "
                           "after '=', e.g. --offset=-1e3")
    p_tr.add_argument("--matrix", required=True,
                      help="the scale, one nonzero number, e.g. '4'")
    p_tr.add_argument("--output", default=None,
                      help="write the transformed design here (default: stdout)")
    p_tr.set_defaults(func=cmd_transform)

    p_bench = sub.add_parser("benchmark", help="run the built-in acceptance "
                                               "fixtures end to end")
    p_bench.add_argument("--list", action="store_true", dest="list_only",
                         help="print fixture names without running")
    p_bench.add_argument("--only", action="append", default=None,
                         help="run only the named fixture (repeatable)")
    _common_flags(p_bench)
    p_bench.set_defaults(func=cmd_benchmark)
    return parser


def cmd_run(args) -> int:
    setup = load_run_config(args.config, output_dir_override=args.output_dir)
    if setup.initial_design is None:
        raise ConfigError("initial_design: missing (required by 'run')")
    outdir = setup.output_dir
    outdir.mkdir(parents=True, exist_ok=True)

    on_iter = None
    if not args.quiet:
        print(CSV_HEADER)

        def on_iter(record):
            print(iteration_csv_line(record), flush=True)

    if setup.reg is not None:
        result = run_regularized(setup.pair, setup.initial_design, setup.space,
                                 setup.algo, setup.inner, setup.reg,
                                 on_iteration=on_iter)
    else:
        result = run_first_order(setup.pair, setup.initial_design, setup.space,
                                 setup.algo, setup.inner, on_iteration=on_iter)

    payload = result.to_dict()
    payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    (outdir / "result.json").write_text(json.dumps(payload, indent=2) + "\n")
    (outdir / "iterations.csv").write_text(iterations_to_csv(result.history))
    (outdir / "final_design.json").write_text(
        json.dumps(result.final_design.as_dict(), indent=2) + "\n")
    if not args.quiet:
        print(f"terminated: {result.termination_reason} "
              f"(value={result.final_value:.10g}, U={result.final_efficiency:.6f})")
        print(f"outputs in {outdir}")
    return _RUN_EXIT[result.termination_reason]


def cmd_verify(args) -> int:
    setup = load_run_config(args.config, output_dir_override=args.output_dir)
    path = Path(args.design)
    design = _check_design(load_design_file(path), setup.space, path)
    report = equivalence_check(setup.pair, design, space=setup.space,
                               inner_config=setup.inner, reg=setup.reg)
    outdir = setup.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "certificate.json").write_text(
        json.dumps(report.to_dict(), indent=2) + "\n")
    (outdir / "psi_curve.csv").write_text(report.psi_curve_csv())
    if not args.quiet:
        print(f"verdict: {report.verdict} (psi_max={report.psi_max:.4e}, "
              f"value={report.criterion_value:.10g})")
        print(f"outputs in {outdir}")
    return _VERDICT_EXIT[report.verdict]


def cmd_transform(args) -> int:
    design = load_design_file(Path(args.design))
    amap = AffineMap(_to_float(args.offset, "--offset"),
                     _to_float(args.matrix, "--matrix"))
    transformed = transform_design(design, amap)
    text = json.dumps(transformed.as_dict(), indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    names = [n for n, _ in benchmarks.ALL_CHECKS]
    if args.list_only:
        for name in names:
            print(name)
        return EXIT_OK
    selected = args.only
    if selected:
        unknown = set(selected) - set(names)
        if unknown:
            raise ConfigError(f"unknown fixture(s): {sorted(unknown)}; "
                              f"available: {names}")
    outdir = Path(args.output_dir) if args.output_dir else None
    results = benchmarks.run_benchmarks(selected, output_dir=outdir)
    for res in results:
        print(res.summary())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_CONFIG


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is EXIT_BUDGET here
        return EXIT_OK if not exc.code else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularMapError as exc:
        print(f"transform error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KLDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a given path cannot be read, made or written
        print(f"config error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

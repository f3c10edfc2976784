"""Snapshot of the repository benchmark, written to BENCH_<label>.json.

    python3 scripts/bench_snapshot.py --label 6

Runs `perfbench/run.py` on every workload RUNS times untraced, one round of
all workloads after another with seeds SEED, SEED+1, ..., then once traced at
SEED, times one Tier-1 run and runs the acceptance checks of
`kl-design benchmark` once; a Tier-1 run that does not pass writes no file.
The file records the median and every run's value of each end-to-end metric,
the failed and attempted operations, the traced per-layer metrics, the
Tier-1 wall time and count, each acceptance check's name, pass flag and
printed values (without its duration, so snapshots of the same code agree),
the digests of the task outputs at the run seeds (`output_digest.py`; two
snapshots with the same `output_digest` computed the same floats), the
`src/` line count of the work tree and of HEAD, and the count of those lines
that hold code (not blank, comments or docstrings), the number of public
names (`kldesign.__all__`), the fields of the loop and inner configs, and the
machine's CPU count. `src_tree` and `perfbench_tree` are the git tree hashes
of the measured `src/` and `perfbench/`: `git rev-parse <commit>:src` names
every commit that holds the same code.
"""

import argparse
import ast
import dataclasses
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# perfbench/run.py pins BLAS threads on import; Tier-1 runs without the pin.
TIER1_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from run import WORKLOADS  # noqa: E402
from output_digest import output_digest  # noqa: E402

RUNS = 3
SEED = 201
RUN_TIMEOUT_S = 900
NON_CODE_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                   tokenize.DEDENT, tokenize.ENDMARKER}


def perfbench(workload: str, seed: int, trace: int) -> dict:
    """One perfbench run; its last output line is the result object."""
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
               workload, "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(command, capture_output=True, text=True, check=True,
                         timeout=RUN_TIMEOUT_S, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])


def tier1() -> dict:
    """Wall time and outcome line of the Tier-1 suite (ROADMAP.md)."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         capture_output=True, text=True, env=TIER1_ENV, cwd=ROOT,
                         timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    summary = out.stdout.strip().splitlines()[-1]
    if out.returncode != 0:
        sys.exit(f"Tier-1 did not pass (exit {out.returncode}): {summary}")
    passed = re.search(r"(\d+) passed", summary)
    return {"wall_s": round(wall, 2), "passed": int(passed.group(1)), "summary": summary}


def acceptance() -> list[dict]:
    """Outcome and printed values of each `kl-design benchmark` check."""
    from kldesign.benchmarks import run_benchmarks
    return [{"name": r.name, "passed": r.passed,
             "values": ", ".join(f"{k}={v}" for k, v in r.details.items())}
            for r in run_benchmarks()]


def git(*args: str, env=None) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True,
                          cwd=ROOT, env=env).stdout.strip()


def work_tree_hash(directory: str) -> str:
    """Git tree hash of `directory` as it is in the work tree, tracked or not
    (ignored files excluded); the repository's own index is not touched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("add", "-A", "--", directory, env=env)
        return git("write-tree", f"--prefix={directory}/", env=env)


def src_sources(rev: str | None = None) -> list[str]:
    """The package's Python files, in the work tree or at `rev`."""
    if rev is None:
        return [p.read_text() for p in (ROOT / "src").rglob("*.py")]
    return [git("show", f"{rev}:{name}")
            for name in git("ls-tree", "-r", "--name-only", rev, "src").split()
            if name.endswith(".py")]


def src_lines(rev: str | None = None) -> int:
    """Lines of the package's Python files, in the work tree or at `rev`."""
    return sum(len(source.splitlines()) for source in src_sources(rev))


def code_lines(source: str) -> int:
    """Lines of `source` that hold code: not blank, not only a comment, and
    not part of a module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE_TOKENS:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def src_code_lines(rev: str | None = None) -> int:
    """`code_lines` summed over the package's Python files (`src_sources`)."""
    return sum(code_lines(source) for source in src_sources(rev))


def public_names() -> int:
    import kldesign
    return len(kldesign.__all__)


def config_fields() -> dict:
    from kldesign.algorithm import AlgoConfig
    from kldesign.inner import InnerConfig
    return {cls.__name__: [f.name for f in dataclasses.fields(cls)]
            for cls in (AlgoConfig, InnerConfig)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="file name suffix")
    args = parser.parse_args(argv)

    runs = {w: [] for w in WORKLOADS}
    for i in range(RUNS):
        for workload in WORKLOADS:
            runs[workload].append(perfbench(workload, SEED + i, 0))
            print(f"run {i + 1}/{RUNS} {workload} done", file=sys.stderr)
    workloads = {}
    for workload, results in runs.items():
        per_run = {name: [r["metrics"][name]["value"] for r in results]
                   for name in results[0]["metrics"]}
        traced = perfbench(workload, SEED, 1)
        workloads[workload] = {
            "seeds": [SEED + i for i in range(RUNS)],
            "median": {name: statistics.median(v) for name, v in per_run.items()},
            "runs": per_run,
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(f"{workload} traced run done", file=sys.stderr)

    snapshot = {
        "label": args.label,
        "head": git("rev-parse", "HEAD"),
        "src_tree": work_tree_hash("src"),
        "perfbench_tree": work_tree_hash("perfbench"),
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "platform": platform.platform()},
        "workloads": workloads,
        "tier1": tier1(),
        "acceptance": acceptance(),
        "output_digest": output_digest([SEED + i for i in range(RUNS)]),
        "src_lines": src_lines(),
        "head_src_lines": src_lines("HEAD"),
        "src_code_lines": src_code_lines(),
        "head_src_code_lines": src_code_lines("HEAD"),
        "public_names": public_names(),
        "config_fields": config_fields(),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

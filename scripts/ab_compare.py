"""In-process A/B timing of the benchmark's tasks in another checkout of this
repository (A) and this one (B), to show, task kind by task kind, where a
change's timing moves.

    python3 scripts/ab_compare.py OTHER_CHECKOUT --workload certify

Loads each tree's package (`src/kldesign`) and `perfbench/workloads.py`
into this one process under module names of their own (`kldesign_a` and
`workloads_a` for A, and so on), so neither side imports the other's code.
Both sides build every pass of the workload at seed SEED. Then each task runs
on A and on B in turn, REPEATS times, and the side that goes first flips at
every repeat. Per task kind it prints the median time on each side, the
median of the paired ratios B/A, and the share of pairs where B was faster.
An A/A block times this tree against a second copy of itself: that is the
harness's noise floor, and a ratio inside its spread shows nothing.

Limits: both trees share one process, so the harness cannot see import
time, memory, or anything process-wide (the interpreter's or the
allocator's state, BLAS threads, a dependency one tree loads and the other
does not). A module-level cache of either tree sees only that tree's calls,
in the order of its passes. A speed claim still needs perfbench's
`BENCH_*.json` pair; this harness only says where a difference lies. Like
`perfbench/run.py`, it pins BLAS threads to one before NumPy loads, and it
runs each task's timed call only, without its score.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEED = 204
REPEATS = 40


def _load(name: str, path: Path, package_dir: Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None
        else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(root: Path, tag: str):
    """The `perfbench/workloads.py` module of the checkout at `root`, loaded
    as `workloads_<tag>` on that checkout's package, loaded as
    `kldesign_<tag>` with every submodule."""
    source = root / "src" / "kldesign"
    package = _load(f"kldesign_{tag}", source / "__init__.py", source)
    for path in sorted(source.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{package.__name__}.{path.stem}")
    # workloads.py imports `kldesign` by name: that name is this tree's
    # package while it loads, and nothing else afterwards
    sys.modules["kldesign"] = package
    try:
        workloads = _load(f"workloads_{tag}", root / "perfbench" / "workloads.py")
    finally:
        del sys.modules["kldesign"]
    stray = [name for name in sys.modules if name.startswith("kldesign.")]
    if stray:
        raise ImportError(f"{root}: workloads.py loaded {stray} apart from the package")
    return workloads


def build(workloads, workload: str) -> list:
    """Every task of every pass of the workload at SEED, in pass order."""
    return [task for k in range(workloads.PASSES_PER_RUN[workload])
            for task in workloads.build_pass(workload, SEED, k)]


def paired_times(tasks_a: list, tasks_b: list) -> dict:
    """{kind: [(seconds on A, seconds on B), ...]}, one pair per task and
    repeat; A runs first on even repeats and B on odd ones."""
    kinds = [task.kind for task in tasks_a]
    if kinds != [task.kind for task in tasks_b]:
        raise SystemExit("the two trees build different tasks; nothing to pair")
    times = {kind: [] for kind in kinds}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the singular workloads warn by design
        for repeat in range(REPEATS):
            for kind, a, b in zip(kinds, tasks_a, tasks_b):
                seconds = {}
                for task in ((a, b) if repeat % 2 == 0 else (b, a)):
                    start = time.perf_counter()
                    task.run()
                    seconds[id(task)] = time.perf_counter() - start
                times[kind].append((seconds[id(a)], seconds[id(b)]))
    return times


def report(label: str, times: dict) -> None:
    for kind, pairs in times.items():
        a, b = zip(*pairs)
        ratio = statistics.median(tb / ta for ta, tb in pairs)
        faster = sum(tb < ta for ta, tb in pairs) / len(pairs)
        print(f"{label:5s} {kind:18s} {statistics.median(a) * 1e6:11.1f} "
              f"{statistics.median(b) * 1e6:11.1f} {ratio:9.3f} {faster:9.0%} "
              f"{len(pairs):7d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="the other checkout, side A")
    parser.add_argument("--workload", required=True,
                        help="a workload of perfbench/workloads.py")
    args = parser.parse_args(argv)
    other = args.checkout.resolve()
    trees = [load_tree(other, "a"), load_tree(ROOT, "b"), load_tree(ROOT, "b2")]
    if args.workload not in trees[1].WORKLOADS:
        parser.error(f"no workload {args.workload!r}; one of {list(trees[1].WORKLOADS)}")
    print(f"workload {args.workload}, seed {SEED}, {REPEATS} repeats; "
          f"A {other}, B {ROOT}")
    print(f"{'pairs':5s} {'kind':18s} {'A med (us)':>11s} {'B med (us)':>11s} "
          f"{'B/A med':>9s} {'B faster':>9s} {'count':>7s}")
    for label, (a, b) in (("A/B", trees[:2]), ("A/A", trees[1:])):
        report(label, paired_times(build(a, args.workload), build(b, args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

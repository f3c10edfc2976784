"""Benchmark runner for the kldesign package.

    python3 perfbench/run.py --workload gaussian-exchange --seed 1 --seconds 20 --trace 0

Runs one workload (or `all`, each in its own process) against the package
under `src/` of the checkout this file sits in, in one process and one
thread: BLAS threads are pinned to one before NumPy loads. The workload's
passes run round-robin until `--seconds` have elapsed (one round at least),
and every execution of every task is scored after its timed call. The last
line of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, which holds the end-to-end metrics with `--trace 0` and the
per-layer metrics with `--trace 1`. See README.md in this directory.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("gaussian-exchange", "logistic-singular", "certify")
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_s_p50": "s",
                    "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("evals_per_call"):
        return "evals/call"
    if name.endswith("share"):
        return "share"
    return "count"


def import_workloads():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import kldesign
    if Path(kldesign.__file__).resolve().parent != SRC / "kldesign":
        raise ImportError(f"kldesign imported from {kldesign.__file__}, not {SRC}")
    import workloads
    return workloads


def _median_pair(pairs):
    """Medians of the first and of the second entries."""
    return (statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs))


def middle_mean(values: list) -> float:
    """Mean of the middle half: deaf to the slowest quarter, such as seeded
    logistic instances that exhaust their budget, yet smoother than a median
    when pass times fall into clusters."""
    quarter = len(values) // 4
    return statistics.fmean(sorted(values)[quarter:len(values) - quarter])


def build_passes(workloads, args) -> list:
    count = 1 if args.tiny else workloads.PASSES_PER_RUN[args.workload]
    return [workloads.build_pass(args.workload, args.seed, k, args.tiny)
            for k in range(count)]


def setup_probe(args) -> tuple[float, float]:
    """Seconds to import the package and build the run's inputs, at the
    probe's reference speed and as measured."""
    start = time.perf_counter()
    build_passes(import_workloads(), args)
    seconds = time.perf_counter() - start
    import probe
    return probe.at_reference_speed(seconds), seconds


def measure_setup(args) -> tuple[float, float]:
    """Median set-up time over fresh interpreters (imports are cached in-process)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(command, capture_output=True, text=True, check=True,
                             timeout=120)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return _median_pair(samples)


def execute(tasks):
    """Run each task's timed call; return the pass's (start, end) and per
    task (task, start, end, output or None, traceback text)."""
    done = []
    start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            output, error = task.run(), ""
        except Exception:  # a task that raises is a failed task, not a crash
            output, error = None, traceback.format_exc()
        done.append((task, t0, time.perf_counter(), output, error))
    return (start, time.perf_counter()), done


def score(done) -> list[dict]:
    scored = []
    for task, _, _, output, error in done:
        if error:
            print(f"task {task.kind} raised:\n{error}", file=sys.stderr)
            scored.append({"kind": task.kind, "ok": False})
        else:
            scored.append({"kind": task.kind, **task.score(output)})
    return scored


@dataclass
class Run:
    executions: int  # untraced pass executions
    walls: list  # per pass: (seconds at reference speed, measured seconds)
    task_times: list  # per distinct task: the same pair
    outcomes: list  # scores of every execution, traced ones included
    distinct: list  # scores of the first round's untraced executions
    layer: dict | None


def run_workload(workloads, args) -> Run:
    """Run the passes round-robin until the time is spent, every pass at
    least once. Every untraced execution runs under the speed probe; a task's
    time is the median of its repetitions. With tracing, the first round also
    runs every pass traced, on the same inputs built again under the tracer."""
    # Imported here, not at the top: they load NumPy, whose import time
    # belongs to the package's set-up.
    from probe import SpeedProbe
    from spans import Tracer
    passes = build_passes(workloads, args)
    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer:
            traced_passes = build_passes(workloads, args)
    probe = SpeedProbe()
    walls = [[] for _ in passes]
    task_times = [[[] for _ in tasks] for tasks in passes]
    outcomes, distinct, overhead = [], [], 0.0
    deadline = time.perf_counter() + args.seconds

    def seconds(t0, t1):
        return probe.normalize(t0, t1), t1 - t0 - probe.busy(t0, t1)

    for step in itertools.count():
        k = step % len(passes)
        with probe:
            (start, end), done = execute(passes[k])
        walls[k].append(seconds(start, end))
        for i, (_, t0, t1, _, _) in enumerate(done):
            task_times[k][i].append(seconds(t0, t1))
        scored = score(done)
        outcomes += scored
        if step < len(passes):
            distinct += scored
            if tracer:
                with tracer:
                    (t_start, t_end), traced_done = execute(traced_passes[k])
                overhead += (t_end - t_start) - walls[k][0][1]
                outcomes += score(traced_done)
        if step + 1 >= len(passes) and time.perf_counter() >= deadline:
            break
    layer = None
    if tracer:
        layer = tracer.metrics()
        layer["algorithm.handoff_missed"] = sum(
            1 for o in distinct if o["kind"] == "logistic-seeded" and not o["handoff"])
        layer["trace.overhead_s"] = overhead
    return Run(sum(len(w) for w in walls), [_median_pair(w) for w in walls],
               [_median_pair(t) for times in task_times for t in times],
               outcomes, distinct, layer)


def summarize(args, setup: tuple[float, float], run: Run) -> dict:
    """Print every metric with its unit and sample count; return the result line."""
    failed = sum(1 for o in run.outcomes if not o["ok"])
    attempted = len(run.outcomes)
    times = [t for t, _ in run.task_times]
    wall = middle_mean([w for w, _ in run.walls])
    task_p50 = statistics.median(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.workload}: seed {args.seed}, {len(run.walls)} passes, "
          f"{run.executions} executions; times are medians over a pass's executions, "
          f"in seconds at the probe's reference speed (measured seconds in brackets)")
    setup_s = setup[0]
    print(f"  setup_s       {setup_s:.4f} s [{setup[1]:.4f}] "
          f"(median of {SETUP_REPEATS} fresh interpreters)")
    print(f"  wall_s        {wall:.4f} s [{middle_mean([w for _, w in run.walls]):.4f}] "
          f"(mean of the middle half of n={len(run.walls)} passes)")
    print(f"  task_s_p50    {task_p50:.4f} s "
          f"[{statistics.median(t for _, t in run.task_times):.4f}] (n={len(times)} tasks)")
    if len(times) >= P90_MIN_SAMPLES:
        print(f"  task_s_p90    {statistics.quantiles(times, n=10)[-1]:.4f} s "
              f"(n={len(times)} tasks)")
    print(f"  fail_rate     {failed / attempted:.4f} ({failed}/{attempted} executions)")
    print(f"  peak_rss_mb   {rss_mb:.1f} MB")
    gaps = [o["value_gap"] for o in run.distinct if "value_gap" in o]
    if gaps:
        w1 = [o["w1"] for o in run.distinct if "w1" in o]
        print(f"  value_gap_max {max(gaps):.4e} (n={len(gaps)} runs)")
        print(f"  w1_max        {max(w1):.4e} (n={len(w1)} runs)")
    handoffs = [o["handoff"] for o in run.distinct if o["kind"] == "logistic-seeded"]
    if handoffs:
        missed = handoffs.count(False)
        print(f"  handoff_miss_rate {missed / len(handoffs):.4f} ({missed}/{len(handoffs)} "
              f"seeded instances; counted, not failed)")

    if run.layer is not None:
        for key, value in run.layer.items():
            print(f"  {key:36s} {value:.6g} {per_layer_unit(key)}")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in run.layer.items()}
    else:
        values = {"setup_s": setup_s, "wall_s": wall, "task_s_p50": task_p50,
                  "peak_rss_mb": rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one seconds-long pass, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        for name in WORKLOADS:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.tiny:
                command.append("--tiny")
            if subprocess.run(command, timeout=600).returncode != 0:
                return 1
        return 0

    warnings.simplefilter("ignore")  # the singular workloads warn by design
    if args.setup_probe:
        print(json.dumps(setup_probe(args)))
        return 0
    workloads = import_workloads()
    setup = measure_setup(args)
    result = summarize(args, setup, run_workload(workloads, args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""SHA-256 digests of the benchmark's task outputs, to show that two versions
of the package compute the same floats.

    python3 scripts/output_digest.py --seeds 201 202 203

Runs every pass of every workload of `perfbench/workloads.py` once per seed,
each task's timed call only, and prints one digest per workload and a total
over them. A digest covers each output's whole structure: every dataclass
field by name, every array's dtype, shape and raw bytes, every float in hex,
and the type and message of an exception a task raises. Like
`perfbench/run.py`, it pins BLAS threads to one before NumPy loads and runs
the package under `src/` of this checkout.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (201, 202, 203)


def _feed(h, obj) -> None:
    """Add `obj` to the hash `h`, its type and structure included."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif obj is None or isinstance(obj, (bool, int, str)):
        h.update(repr(obj).encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")


def output_digest(seeds=SEEDS) -> dict:
    """Digest per workload, in `workloads.WORKLOADS` order, and `total`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    digests = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the singular workloads warn by design
        for name in workloads.WORKLOADS:
            h = hashlib.sha256()
            for seed in seeds:
                for index in range(workloads.PASSES_PER_RUN[name]):
                    for task in workloads.build_pass(name, seed, index):
                        h.update(task.kind.encode())
                        try:
                            output = task.run()
                        except Exception as exc:  # a failed task is part of the output
                            output = (type(exc).__name__, str(exc))
                        _feed(h, output)
            digests[name] = h.hexdigest()
    total = hashlib.sha256("".join(f"{k} {v}\n" for k, v in digests.items()).encode())
    return {"seeds": list(seeds), **digests, "total": total.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args(argv)
    digest = output_digest(args.seeds)
    for name, value in digest.items():
        if name != "seeds":
            print(f"{name:18s} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

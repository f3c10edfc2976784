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


def walk(obj, path: str = ""):
    """The digest's traversal of `obj`: yields (path, leaf, data) in order,
    where data are the bytes the digest hashes and leaf is the float or
    array they encode, or None where they encode a type, a name, a length, a
    dtype and shape, or a value that is neither."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        yield path, None, type(obj).__name__.encode()
        for f in dataclasses.fields(obj):
            yield path, None, f.name.encode()
            yield from walk(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, np.ndarray):
        yield path, None, f"{obj.dtype.str}{obj.shape}".encode()
        yield path, obj, np.ascontiguousarray(obj).tobytes()
    elif isinstance(obj, float):
        yield path, obj, obj.hex().encode()
    elif obj is None or isinstance(obj, (bool, int, str)):
        yield path, None, repr(obj).encode()
    elif isinstance(obj, (list, tuple)):
        yield path, None, f"{type(obj).__name__}{len(obj)}".encode()
        for i, item in enumerate(obj):
            yield from walk(item, f"{path}[{i}]")
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")


def task_outputs(seeds=SEEDS, root: Path = ROOT):
    """Yield (workload, task, kind, output) for every task of every pass, in
    `workloads.WORKLOADS` order, the task named by its seed, pass and index,
    from the package and workloads of the checkout at `root`; a task that
    raises gives (exception type, message) as its output."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the singular workloads warn by design
        for name in workloads.WORKLOADS:
            for seed in seeds:
                for index in range(workloads.PASSES_PER_RUN[name]):
                    for number, task in enumerate(workloads.build_pass(name, seed, index)):
                        try:
                            output = task.run()
                        except Exception as exc:  # a failed task is part of the output
                            output = (type(exc).__name__, str(exc))
                        yield name, f"s{seed}/p{index}/t{number}", task.kind, output


def output_digest(seeds=SEEDS) -> dict:
    """Digest per workload, in `workloads.WORKLOADS` order, and `total`."""
    hashes = {}
    for name, _, kind, output in task_outputs(seeds):
        h = hashes.setdefault(name, hashlib.sha256())
        h.update(kind.encode())
        for _, _, data in walk(output):
            h.update(data)
    digests = {name: h.hexdigest() for name, h in hashes.items()}
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

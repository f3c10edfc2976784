"""Float-by-float comparison of the benchmark's task outputs between another
checkout of this repository and this one, to show how far a change moves
them.

    python3 scripts/output_compare.py PARENT_CHECKOUT --seeds 201 202 203

Runs every pass of every workload of `perfbench/workloads.py` at each seed
(the passes and default seeds of `output_digest.py`) in each checkout, each
in its own interpreter on that checkout's `src/` and `perfbench/`, and walks
every task output by `output_digest.py`'s traversal. Per workload it prints
the floats compared and those changed (in their bits, with NaN equal to
NaN), the largest |change - parent| / max(1, |parent|) with its path, and
every difference that is not a float: a type, field name, length, dtype,
shape, integer, string or exception message that differs, or a path that
only one side has. A path reads seed/pass/task:kind, then fields and indices.
The last line reads `identical` and the exit status is 0 when no workload
differs; otherwise it reads `differs` and the status is 1, so a check that a
change is float-identical can be scripted.
"""

import argparse
import pickle
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

# first: output_digest pins BLAS threads before NumPy loads
from output_digest import ROOT, SEEDS, task_outputs, walk  # isort: skip
import numpy as np  # noqa: E402


def dump(root: Path, seeds, out: Path) -> None:
    """Flatten every task output of the checkout at `root` into `out`: per
    workload the floats in traversal order, (path, start, shape) of each
    float or float array, and (path, text) of every other piece."""
    flat = {}
    for name, task, kind, output in task_outputs(seeds, root):
        floats, index, others = flat.setdefault(name, (array("d"), [], []))
        for path, leaf, data in walk(output, f"{task}:{kind}"):
            if isinstance(leaf, float) or (isinstance(leaf, np.ndarray)
                                           and leaf.dtype == np.float64):
                index.append((path, len(floats), np.shape(leaf)))
                floats.frombytes(np.ravel(leaf).tobytes())
            else:
                text = data.decode() if leaf is None else repr(leaf.tolist())
                others.append((path, text))
    with open(out, "wb") as f:
        pickle.dump({name: (np.frombuffer(floats), index, others)
                     for name, (floats, index, others) in flat.items()}, f)


def _keyed(others) -> dict:
    # (path, occurrence at that path) -> text: a dataclass gives its type
    # name and each field name at one path
    seen, keyed = {}, {}
    for path, text in others:
        k = seen[path] = seen.get(path, -1) + 1
        keyed[path, k] = text
    return keyed


def compare(name: str, parent, change) -> bool:
    """Print the differences of one workload's flattened outputs; return
    whether there is any: a changed float or a difference that is not one."""
    (old, old_index, old_others), (new, new_index, new_others) = parent, change
    lines = []
    old_at = {path: (start, shape) for path, start, shape in old_index}
    new_at = {path: (start, shape) for path, start, shape in new_index}
    paths, starts, old_pos, new_pos = [], [], [], []
    for path, (start, shape) in old_at.items():
        if path not in new_at:
            lines.append(f"  only in parent: {path} (floats of shape {shape})")
        elif new_at[path][1] == shape:  # else the shapes differ, printed below
            count = int(np.prod(shape))
            paths.append(path)
            starts.append(len(old_pos))
            old_pos.extend(range(start, start + count))
            new_pos.extend(range(new_at[path][0], new_at[path][0] + count))
    lines += [f"  only in change: {path} (floats of shape {shape})"
              for path, (_, shape) in new_at.items() if path not in old_at]
    a, b = old[np.asarray(old_pos, dtype=np.intp)], new[np.asarray(new_pos, dtype=np.intp)]
    changed = (a.view(np.int64) != b.view(np.int64)) & ~(np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", over="ignore"):
        moved = np.abs(b - a) / np.maximum(1.0, np.abs(a))
    moved = np.where(changed, np.nan_to_num(moved, nan=np.inf), 0.0)
    summary = f"{name}: {a.size:,} floats compared, {int(changed.sum()):,} changed"
    if changed.any():
        at = int(np.argmax(moved))
        chunk = int(np.searchsorted(starts, at, side="right")) - 1
        shape = old_at[paths[chunk]][1]
        element = np.unravel_index(at - starts[chunk], shape)
        where = paths[chunk] + (str(list(map(int, element))) if shape else "")
        summary += (f"; largest |change - parent| / max(1, |parent|) {moved[at]:.3g}"
                    f" at {where} ({float(a[at]).hex()} -> {float(b[at]).hex()})")
    print(summary)
    old_keyed, new_keyed = _keyed(old_others), _keyed(new_others)
    for key, text in old_keyed.items():
        if key not in new_keyed:
            lines.append(f"  only in parent: {key[0]} {text}")
        elif new_keyed[key] != text:
            lines.append(f"  differs: {key[0]} {text} -> {new_keyed[key]}")
    lines += [f"  only in change: {key[0]} {text}"
              for key, text in new_keyed.items() if key not in old_keyed]
    print("\n".join(lines) if lines else "  no difference that is not a float")
    return bool(lines) or bool(changed.any())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path,
                        help="the parent checkout to compare this one against")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    parent = args.checkout.resolve()
    if args.dump:  # one side, in its own interpreter
        dump(parent, args.seeds, args.dump)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for label, root in (("parent", parent), ("change", ROOT)):
            out = Path(tmp) / f"{label}.pickle"
            subprocess.run([sys.executable, __file__, str(root), "--dump", str(out),
                            "--seeds", *map(str, args.seeds)], check=True)
            with open(out, "rb") as f:
                sides.append(pickle.load(f))
    print(f"seeds {' '.join(map(str, args.seeds))}; parent {parent}")
    differs = False
    for name in dict.fromkeys([*sides[0], *sides[1]]):
        if name not in sides[0] or name not in sides[1]:
            print(f"{name}: only in {'change' if name in sides[1] else 'parent'}")
            differs = True
        else:
            differs |= compare(name, sides[0][name], sides[1][name])
    print("differs" if differs else "identical")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())

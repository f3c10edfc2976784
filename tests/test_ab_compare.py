"""The in-process A/B harness, `scripts/ab_compare.py`, run as its users run
it: this tree against itself, where every ratio is noise."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_this_tree_against_itself_reads_ratios_near_one():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_compare.py"),
                          str(ROOT), "--workload", "gaussian-exchange"],
                         capture_output=True, text=True, check=True, timeout=300)
    rows = [line.split() for line in out.stdout.splitlines()
            if line.startswith(("A/B", "A/A"))]
    assert [row[:2] for row in rows] == [["A/B", "cubic"], ["A/B", "affine"],
                                         ["A/A", "cubic"], ["A/A", "affine"]]
    for label, kind, a, b, ratio, faster, count in rows:
        assert float(a) > 0.0 and float(b) > 0.0 and int(count) == 40
        assert 0.5 <= float(ratio) <= 2.0  # a loose band: a shared machine is noisy
        assert 0 <= int(faster.rstrip("%")) <= 100

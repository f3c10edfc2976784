#!/usr/bin/env python3
"""Why continuity of the min-divergence criterion is not free.

The synthetic divergence family on [0, 1] is continuous and Lipschitz in x,
yet the min-over-parameters criterion is discontinuous in the design: the
uniform measures on [0, 1 - 1/n] converge (in transport distance) to the
uniform measure on [0, 1], but their criterion values converge to 0 while
the limit design has criterion value 1. The closed-form averages make the
gap visible without any numerical optimization.
"""

import numpy as np

from kldesign import ParamBox
from kldesign.benchmarks import SyntheticFamily

fam = SyntheticFamily()
box = ParamBox([1e-6], [1000.0])

print("average divergence under the uniform measure on [0, 1 - 1/n]:")
print("  (parameter <= 1 branch: 1 - (2b - 1)/n; parameter > 1: (1 - 1/n)^b)")
for n in (2, 10, 100):
    row = [f"b={b:g}: {fam.truncated_uniform_average(b, n):.6f}"
           for b in (0.5, 1.0, 2.0, 20.0)]
    print(f"  n={n:4d}   " + "   ".join(row))

print("\nunder the full uniform measure the average is identically 1:")
print("  ", [fam.uniform_average(b) for b in (0.1, 1.0, 5.0, 100.0)])

print(f"\ncriterion (infimum over the parameter box {box.lower[0]:g}..{box.upper[0]:g}):")
for n in (2, 10, 100):
    val = fam.truncated_uniform_criterion(n, box)
    print(f"  truncated design, n={n:4d}: {val:.3e}")
print(f"  uniform limit design:      {fam.uniform_criterion(box):.3e}")

gap = abs(fam.truncated_uniform_criterion(100, box) - fam.uniform_criterion(box))
print(f"\ncriterion gap at n=100: {gap:.6f} -- the designs converge, "
      "the criterion values do not.")

# every one-point design also has criterion zero: the family can flatten
# itself onto any single location
xs = np.array([0.0, 0.3, 0.7, 1.0])
print("\npointwise divergence minimized over the box at single locations:")
for x in xs:
    vals = [fam.divergence(np.array([x]), [b])[0]
            for b in np.concatenate([np.linspace(1e-6, 1, 101),
                                     np.linspace(1, 1000, 2001)])]
    print(f"  x={x:.1f}: min divergence over box = {min(vals):.3e}")

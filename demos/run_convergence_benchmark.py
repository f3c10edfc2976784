#!/usr/bin/env python3
"""Convergence benchmark with a known analytic optimum.

Discriminates a known cubic Gaussian mean from a rival quadratic on [-1, 1].
The optimum design is known in closed form: its support sits at the extrema
of the degree-3 Chebyshev polynomial (-1, -1/2, 1/2, 1) with weights
1/6, 1/3, 1/3, 1/6, and the criterion value is 1/16. We run the first-order
exchange algorithm from a deliberately bad start and watch it get there.
"""

import numpy as np

from kldesign import (AlgoConfig, Design, DesignSpace, InnerConfig,
                      GaussianRegressionPair, ParamBox, equivalence_check,
                      run_first_order, wasserstein_distance)

pair = GaussianRegressionPair(
    beta1=[0, 0, 0, 1],         # true mean: x^3
    rival_exponents=[0, 1, 2],  # rival spans {1, x, x^2}
    theta2=ParamBox([-5, -5, -5], [5, 5, 5]),
    sigma2=0.5,
)
space = DesignSpace([-1], [1])
start = Design(space, [[-1.0], [-0.6], [0.1], [0.8]], [0.25] * 4)
optimum = Design(space, [[-1.0], [-0.5], [0.5], [1.0]], [1 / 6, 1 / 3, 1 / 3, 1 / 6])

run = run_first_order(pair, start, space,
                      AlgoConfig(delta=0.99, max_iterations=500),
                      InnerConfig())

print(f"terminated: {run.termination_reason} after {len(run.history)} iterations")
print(f"criterion value {run.final_value:.8f}  (analytic optimum {1 / 16:.8f})")
print(f"efficiency bound U = {run.final_efficiency:.4f}")
print(f"Wasserstein distance to the optimum: "
      f"{wasserstein_distance(run.final_design, optimum):.5f}")

print("\nvalue and divergence gap along the run (every 10th iteration):")
for rec in run.history[::10]:
    print(f"  n={rec.n:3d}  value={rec.value:.6f}  psi_max={rec.psi_max:.2e}  "
          f"U={rec.efficiency:.4f}  support={rec.support_size}")

print("\nfinal design:")
for x, w in zip(run.final_design.points.ravel(), run.final_design.weights):
    print(f"  x = {x:+.4f}   weight = {w:.4f}")

# A run stopped at delta = 0.99 is 99%-efficient, not exactly optimal, so
# its certificate reports the residual derivative gap rather than passing:
# the relative gap is bounded by (1 - delta) / delta.
tight = InnerConfig(local_tolerance=1e-10)
report = equivalence_check(pair, run.final_design, inner_config=tight)
print(f"\nfinal-design certificate: {report.verdict} "
      f"(relative gap {report.psi_max / report.criterion_value:.2e}, "
      f"stopping rule allows {(1 - 0.99) / 0.99:.2e})")

# The analytic optimum certifies exactly: the derivative vanishes on its
# support and is strictly negative everywhere else.
exact = equivalence_check(pair, optimum, inner_config=tight)
print(f"analytic optimum: {exact.verdict}, support psi = "
      f"{np.max(np.abs(exact.support_psi)):.2e}")

#!/usr/bin/env python3
"""Handling a singular optimum via the regularized criterion.

Two logistic regressions on [0, 1]: the true predictor has an intercept of
one, the rival has none, so the rival can fit the truth anywhere except at
x = 0. The optimal design therefore concentrates all mass at zero -- where
the inner minimizer is no longer unique and the directional derivative of
the plain criterion stops making sense. The plain loop detects this and
hands off; the regularized criterion I_gamma finishes the job and still
yields a verifiable certificate.
"""

from pathlib import Path

import numpy as np

from kldesign import (AlgoConfig, Design, DesignSpace, InnerConfig,
                      LogisticGlmPair, ParamBox, RegularizationConfig,
                      equivalence_check, run_first_order, run_regularized)

pair = LogisticGlmPair(
    beta1=[1, 1, 1],            # eta1 = 1 + x + x^2
    rival_exponents=[1, 2],     # eta2 = b1 x + b2 x^2  (no intercept)
    theta2=ParamBox([-10, -10], [10, 10]),
)
space = DesignSpace([0], [1])
start = Design(space, [[0.0], [1 / 3], [2 / 3], [1.0]], [0.25] * 4)
algo = AlgoConfig(delta=0.995, max_iterations=50)
inner = InnerConfig()

plain = run_first_order(pair, start, space, algo, inner)
print(f"plain run: {plain.termination_reason} after {len(plain.history)} iterations")
print(f"  mass at zero so far: {plain.final_design.weight_at([0.0]):.4f}")

reg = RegularizationConfig(gamma=0.05, xi_tilde=start)
finish = run_regularized(pair, start, space,
                         AlgoConfig(delta=0.995, max_iterations=10),
                         inner, reg)
print(f"\nregularized run (gamma=0.05): {finish.termination_reason} "
      f"after {len(finish.history)} iterations")
print(f"  final design: points {finish.final_design.points.ravel().tolist()} "
      f"weights {finish.final_design.weights.tolist()}")

# certificate for the singular optimum through the regularized derivative
report = equivalence_check(pair, finish.final_design, grid_size=1001,
                           inner_config=InnerConfig(local_tolerance=1e-10),
                           reg=reg)
print(f"\ncertificate: {report.verdict}")
print(f"  scaled derivative max over the grid: {report.psi_max:.3e}")
print(f"  regularized criterion value: {report.criterion_value:.6f}")

out = Path(__file__).with_name("logistic_psi_curve.csv")
out.write_text(report.psi_curve_csv())
print(f"  derivative curve written to {out.name} "
      f"(x, psi_gamma; nonpositive everywhere, zero at x = 0)")

curve = report.grid_psi
xs = report.grid_points.ravel()
print("\n  a few sampled values:")
for i in np.linspace(0, len(xs) - 1, 6, dtype=int):
    print(f"    psi_gamma({xs[i]:.2f}) = {curve[i]: .5f}")

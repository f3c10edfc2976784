#!/usr/bin/env python3
"""Optimal designs are invariant under scale-position transforms.

If the experimental condition is rescaled to z = a + bx, the optimal design
on the new domain is the pushforward of the optimal design on the old one,
and the criterion values coincide. The practical payoff: solve the problem
wherever it is numerically easiest, then map the design back.
"""

from kldesign import (AffineMap, AlgoConfig, Design, DesignSpace, InnerConfig,
                      GaussianRegressionPair, ParamBox, invariance_check,
                      reparametrize_under_affine, run_first_order,
                      transform_design, wasserstein_distance)

pair = GaussianRegressionPair(
    [0, 0, 0, 1], [0, 1, 2], ParamBox([-5, -5, -5], [5, 5, 5]), sigma2=0.5)
space = DesignSpace([-1], [1])
optimum = Design(space, [[-1.0], [-0.5], [0.5], [1.0]], [1 / 6, 1 / 3, 1 / 3, 1 / 6])

amap = AffineMap([2.0], [[4.0]])          # z = 2 + 4x maps [-1, 1] onto [-2, 6]
image_pair = reparametrize_under_affine(pair, amap)
image_space = amap.image_box(space)
print(f"rescaled domain: [{image_space.lower[0]:g}, {image_space.upper[0]:g}]")
# the image keeps the coefficients in x and evaluates at x = (z - offset) / scale
print(f"frame of the image pair: offset {image_pair.frame.offset:g}, "
      f"scale {image_pair.frame.scale:g}")

# the pushforward of the known optimum is the optimum on the new domain
target = transform_design(optimum, amap)
print(f"mapped optimum support: {target.points.ravel().tolist()}")

inv = invariance_check(pair, optimum, amap,
                       InnerConfig(local_tolerance=1e-10))
print(f"criterion on x-domain: {inv.value_original:.10f}")
print(f"criterion on z-domain: {inv.value_transformed:.10f}")
print(f"difference: {inv.difference:.2e}  (pass: {inv.passed})")

# run the algorithm directly on the rescaled problem
start = transform_design(Design(space, [[-1.0], [-0.6], [0.1], [0.8]], [0.25] * 4),
                         amap)
run = run_first_order(image_pair, start, image_space,
                      AlgoConfig(delta=0.95, max_iterations=500),
                      InnerConfig())
print(f"\nrescaled run: {run.termination_reason} after {len(run.history)} iterations")
print(f"Wasserstein distance to the mapped optimum: "
      f"{wasserstein_distance(run.final_design, target):.5f}")

#!/usr/bin/env python3
"""Tour of the design containers and measure operations.

Designs are immutable finite-support probability measures on an interval. The
exchange algorithm is built from a handful of measure-level operations:
validation, mixing with a point mass, collapsing nearby support, pruning
low weights, exact transport distances, and affine images.
"""

import numpy as np

from kldesign import (AffineMap, Design, DesignSpace, collapse_support,
                      mix_design, prune_support, transform_design,
                      validate_design, wasserstein_distance,
                      wasserstein_distance_lp)

space = DesignSpace([-1], [1])
design = Design(space, [[-1.0], [-0.5], [0.5], [1.0]], [1 / 6, 1 / 3, 1 / 3, 1 / 6])
print("validation:", validate_design(design))

bad = Design(space, [[-1.0], [0.5]], [0.5, 0.6])
print("a broken design reports its violations:", validate_design(bad).violations)

# mixing: the (1 - a) xi + a delta_x update the exchange step uses
mixed = mix_design(design, [0.0], 0.2)
print("\nafter mixing 20% mass at x=0:")
print("  points ", mixed.points.ravel())
print("  weights", np.round(mixed.weights, 4))

# collapsing: points inside a ball around the anchor merge at a barycenter
wide = Design(space, [[0.48], [0.5], [0.52], [-0.5]], [0.3, 0.3, 0.2, 0.2])
merged = collapse_support(wide, [0.5], radius=0.05, anchor_weight_factor=2.0)
print("\ncollapse of the cluster around 0.5:")
print("  points ", merged.points.ravel())
print("  weights", merged.weights)

# pruning drops negligible weights and renormalizes
dusty = Design(space, [[-0.9], [0.1], [0.9]], [0.499, 0.499, 0.002])
print("\nafter pruning the 0.002 point:", prune_support(dusty, 0.01).weights)

# exact order-1 transport distance; the 1-D quantile route and the LP agree
uniform = Design(space, design.points, [0.25] * 4)
print(f"\ntransport distance (quantile formula): "
      f"{wasserstein_distance(design, uniform):.6f}")
print(f"transport distance (linear program):   "
      f"{wasserstein_distance_lp(design, uniform):.6f}")

# affine images: z = 2 + 4x pushes the design onto [-2, 6]
amap = AffineMap([2.0], [[4.0]])
image = transform_design(design, amap)
print(f"\nimage of the design under z = 2 + 4x: {image.points.ravel().tolist()}")
print(f"weights are untouched: {np.round(image.weights, 4).tolist()}")
back = transform_design(image, amap.inverted())
print(f"round trip error: {np.max(np.abs(back.points - design.points)):.1e}")

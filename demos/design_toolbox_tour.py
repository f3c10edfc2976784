#!/usr/bin/env python3
"""Tour of the design containers and measure operations.

Designs are immutable finite-support probability measures on an interval. The
exchange algorithm is built from a handful of measure-level operations:
validation, exact transport distances, and affine images.
"""

import numpy as np

from kldesign import (AffineMap, Design, DesignSpace, transform_design,
                      validate_design, wasserstein_distance)

space = DesignSpace([-1], [1])
design = Design(space, [[-1.0], [-0.5], [0.5], [1.0]], [1 / 6, 1 / 3, 1 / 3, 1 / 6])
print("validation:", validate_design(design))

bad = Design(space, [[-1.0], [0.5]], [0.5, 0.6])
print("a broken design reports its violations:", validate_design(bad).violations)

# exact order-1 transport distance, the integral of |F1 - F2| over the line
uniform = Design(space, design.points, [0.25] * 4)
print(f"\ntransport distance: {wasserstein_distance(design, uniform):.6f}")

# affine images: z = 2 + 4x pushes the design onto [-2, 6]
amap = AffineMap([2.0], [[4.0]])
image = transform_design(design, amap)
print(f"\nimage of the design under z = 2 + 4x: {image.points.ravel().tolist()}")
print(f"weights are untouched: {np.round(image.weights, 4).tolist()}")
back = transform_design(image, amap.inverted())
print(f"round trip error: {np.max(np.abs(back.points - design.points)):.1e}")

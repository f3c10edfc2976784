"""The step of the exchange loop for a logistic pair: an exact line search.

The step takes the exact line search of the criterion along the segment
(1-a) xi_n + a delta_{x_n} (`line_search_alpha`); its dual has no exact
solve like a Gaussian pair's, and a general-purpose one measured slower than
this search, so the restricted dual is Gaussian only. The criterion is
concave along the segment, and each inner solve's minimizer gives its
supergradient in a (Danskin), so the step is where that slope, nonincreasing
in a, changes sign: bracketed by its signs at 0 and 1, it is found by a
search built for the slope's shape (`_slope_root`). The search starts from
the iteration's inner solution, so a = 0 is not solved again, and it
returns the mixture it steps to with its solution. Every trial a in (0, 1)
weights the same points, so their rival matrix, divergence closures and rank
test are prepared once per search (`inner.Support`).
"""

import math

import numpy as np

from .designs import Design, blend_designs
from .errors import DomainError
from .inner import (InnerConfig, InnerSolution, _criterion_design, _improves,
                    minimize_beta2, prepare_support)
from .models import ModelPair

# Bracket width at which the line search's search for the slope's sign change
# stops.
_STEP_XTOL = 1e-6


def line_search_alpha(pair: ModelPair, design: Design, x_new, start: InnerSolution,
                      inner_config: InnerConfig = InnerConfig(), *, reg=None):
    """Exact step size: maximize g(a) = criterion((1-a) design + a delta_x).

    g is the minimum over beta2 of functions linear in a, so it is concave,
    and by Danskin's theorem slope(a) = (1-gamma) [I(x, b_a) - avg_design
    I(., b_a)], read off the inner minimizer b_a at a (gamma from `reg`, a
    `RegularizationConfig`, and 0 unless regularizing), is a supergradient
    of g at a; it is the derivative wherever b_a is unique, and nonincreasing
    in a. For a concave g the sign of any supergradient tells on which side
    of a the maximum lies: slope(0) <= 0 means no ascent step, slope(1) >= 0
    means the full step, and otherwise the step is the sign change of slope
    on (0, 1), found by `_slope_root` from slope(0), within `_STEP_XTOL`. A
    NaN slope raises `ValueError`.

    `start` is the inner solution on the design itself (blended with the
    reference when regularizing), so g(0) and b_0 are read off it and a = 0
    is never solved. Every other a is solved once, warm-started from the
    previous solve's minimizer. Every a in (0, 1) weights the same points
    (the support and x_new, merged where they coincide, and the reference's
    when regularizing), so those solves share one prepared `Support`: the
    slope's own (the support, then x_new) when they weight those points, as
    they do for a new x_new and no reference. a = 1 is the point mass. Each
    mixture is `blend_designs` of the design and the point mass; an x_new
    outside the design space raises `DomainError`.
    Returns (alpha, the mixture at alpha, the inner solution there);
    (0.0, design, start) signals that no ascent step exists.
    """
    mass = Design(design.space, x_new, [1.0])
    if not design.space.contains(mass.points)[0]:
        raise DomainError(f"point {mass.points[0].tolist()} outside the design space")
    slope_support = prepare_support(pair, np.vstack([design.points, mass.points]))
    scale = 1.0 - (reg.gamma if reg is not None else 0.0)

    def slope(a: float, sol: InnerSolution) -> float:
        row = slope_support.pointwise(sol.beta2_hat)  # the support, then x_new
        value = float(scale * (row[-1] - design.weights @ row[:-1]))
        if math.isnan(value):
            raise ValueError(f"the slope is NaN at a = {a}; the search cannot continue")
        return value

    interior = None  # the Support of every a in (0, 1), prepared at the first
    warm = start.beta2_hat

    def trial(a: float) -> tuple[float, tuple[Design, InnerSolution]]:
        nonlocal interior, warm
        mixed = blend_designs(design, mass, a)
        target = _criterion_design(mixed, reg)
        if a < 1.0 and interior is None:
            interior = (slope_support if np.array_equal(slope_support.points,
                                                        target.points)
                        else prepare_support(pair, target.points))
        sol = minimize_beta2(pair, target, inner_config, warm_start=warm,
                             support=interior if a < 1.0 else None)
        warm = sol.beta2_hat
        return slope(a, sol), (mixed, sol)

    slope0 = slope(0.0, start)
    if slope0 <= 0.0:
        return 0.0, design, start
    alpha = 1.0
    slope1, (mixed, sol) = trial(alpha)
    if slope1 < 0.0:
        alpha, (mixed, sol) = _slope_root(trial, slope0, _STEP_XTOL)
    if not _improves(sol, start):
        return 0.0, design, start
    return alpha, mixed, sol


def _slope_root(slope, slope0: float, xtol: float):
    """Where a slope nonincreasing on [0, 1] changes sign, to within xtol.

    `slope(a)` returns (the slope at a, a payload) for a in (0, 1); the
    slope is `slope0` > 0 at 0 and negative at 1, so the bracket [0, 1]
    holds the sign change. Each trial is the root of the linear-fractional
    function (p + q a) / (1 + r a) through the three latest points of
    (0, slope0) and the trials (Jarratt and Nudds 1965): a shape that
    falls and levels off, as the line search's slope does. The end a = 1
    never enters the model, since the point mass's slope lies off that
    shape. The trial is the bracket's midpoint instead while fewer than
    three points are known, where the model's root is not inside the
    bracket, or where the bracket has not halved over the last three
    trials. Every trial stays at least xtol/2 inside the bracket, so once
    the model has converged its trial lands just past the root and the
    last one closes the bracket from the far side. The search stops at a
    zero slope or once the bracket is at most xtol wide. Both ends then lie
    within xtol of the sign change, and it returns (a, payload) of the
    trial at the end whose slope is nearer 0. The bracket halves at least
    once every four trials, so a search takes at most 4 ceil(log2(1/xtol))
    trials (80 at xtol = 1e-6).
    """
    # the bracket's ends, (a, slope, payload), where 0 and 1 count as infinitely
    # steep so that a trial is returned; the model's points; the last four widths
    lo, hi = (0.0, math.inf, None), (1.0, -math.inf, None)
    recent, widths = [(0.0, slope0, None)], [1.0] * 4
    while True:
        a = (lo[0] + hi[0]) / 2
        if len(recent) == 3 and widths[-1] <= widths[0] / 2:
            (a0, f0, _), (a1, f1, _), (a2, f2, _) = recent
            # the map keeps the cross-ratio of (a0, a1, a2, root) in (f0, f1, f2, 0)
            c, d = (a2 - a0) * (f2 - f1) * f0, (a2 - a1) * (f2 - f0) * f1
            root = (c * a1 - d * a0) / (c - d) if c != d else a
            if lo[0] < root < hi[0]:
                a = root
        a = min(max(a, lo[0] + xtol / 2), hi[0] - xtol / 2)
        value, payload = slope(a)
        end = (a, value, payload)
        if value > 0.0:
            lo = end
        else:
            hi = end
        recent, widths = (recent + [end])[-3:], widths[1:] + [hi[0] - lo[0]]
        if value == 0.0 or hi[0] - lo[0] <= xtol:
            a, _, payload = min(lo, hi, key=lambda end: abs(end[1]))
            return a, payload

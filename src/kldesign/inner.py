"""Inner minimization of the averaged divergence over the rival parameters.

Solves min_{beta2 in box} sum_i w_i I(x_i, beta2). For the GLM pairs the
divergence depends on beta2 only through the rival predictor
eta2 = X beta2 (X the rival matrix at the support) and is convex in eta2:
Gaussian pairs give weighted least squares, logistic pairs the convex KL
divergence of two Bernoulli laws. The solve is therefore bounded Newton:
each step minimizes the box-constrained quadratic model, a bounded weighted
least-squares problem, by `numpy.linalg.lstsq`, with
`scipy.optimize.lsq_linear(method="bvls")` only where the box binds, and a
backtracking step follows it. A cold solve (no warm start) starts from the
minimizer of the model taken at eta2 = eta1, where the gradient is 0 and the
curvature is the Fisher weight: the Fisher-scoring (IRLS) start, which does
not depend on the box unless the box binds. A Gaussian pair's curvature is
constant, so its quadratic model is the objective: that start is the exact
minimizer, a cold Gaussian solve is one least-squares fit and one
evaluation, and a warm one stops after the first accepted full step. Where
the model at a warm start is not finite (the logistic curvature underflows
to 0 far from eta1), the solve restarts once from the model start. A convex
pair's minimizer is unique if and only if X has full
column rank on the support, so the singularity flag is that rank test, taken
on the scale the Newton stop sees: a direction of the box along which X
moves eta2 by no more than the stopping tolerance counts as a null direction.
Everything that depends on the points and not on the weights (X, the
divergence and derivative closures, the rank test per positive-weight
pattern) is a `Support`, built once and reusable across solves on the same
points. Only these polynomial-predictor pairs are solved; any other pair is
refused.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import lsq_linear

from .designs import Design
from .errors import UnsupportedModelError
from .models import (GaussianRegressionPair, ModelPair, ParamBox, PolynomialPair,
                     _least_singular_value, _scalar_inputs)

# Sufficient-decrease fraction and halving budget of the backtracking step.
_ARMIJO = 1e-4
_MAX_HALVINGS = 40
# Newton step budget: a safety cap, far above the dozen steps a solve takes.
_MAX_NEWTON_STEPS = 800
# w / h is finite where h > w / max_float (to one rounding).
_INV_MAX = 1.0 / np.finfo(float).max


@dataclass(frozen=True)
class InnerConfig:
    """Stopping rule of the inner solve: Newton steps stop once the step moves
    the rival predictor by at most `local_tolerance`. The start is not a
    setting: the warm start when given, otherwise the model start
    (`Support.model_start`)."""

    local_tolerance: float = 1e-9

    def __post_init__(self):
        if self.local_tolerance <= 0:
            raise ValueError("local_tolerance must be positive")


@dataclass(frozen=True)
class InnerSolution:
    """Box-constrained minimizer, its value and the uniqueness diagnostic."""

    beta2_hat: np.ndarray
    value: float
    singular_flag: bool
    at_boundary: bool


@dataclass(frozen=True)
class Support:
    """The weight-free part of the inner problem on fixed points: the rival
    matrix, the true predictor eta1, the pointwise divergence and derivative
    closures, and the rank test, memoized per positive-weight pattern. Build
    it with `prepare_support`; any design on the same points can be solved
    on it."""

    points: np.ndarray
    rows: np.ndarray
    eta1: np.ndarray
    pointwise: Callable
    derivatives: Callable
    _least_singular: dict = field(default_factory=dict, repr=False, compare=False)

    def least_singular_value(self, weights: np.ndarray) -> float:
        """`models._least_singular_value` of the rows of positive weight."""
        positive = weights > 0.0
        key = positive.tobytes()
        if key not in self._least_singular:
            self._least_singular[key] = _least_singular_value(self.rows[positive])
        return self._least_singular[key]

    def model_start(self, weights: np.ndarray, box: ParamBox) -> np.ndarray:
        """Minimizer over the box of the quadratic model taken at eta2 = eta1.
        There g is 0 and h is the Fisher weight, so this is the weighted
        least-squares fit of eta1 with weights w h, the Fisher-scoring start;
        for a Gaussian pair it is the exact minimizer. Rows whose w / h is
        not finite (`_newton`'s test) are left out: there the curvature
        underflowed, and the model is flat."""
        g, h = self.derivatives(self.eta1)
        keep = h > weights * _INV_MAX
        scale, rhs = _model(weights[keep], self.eta1[keep], g[keep], h[keep])
        return _bounded_lstsq(scale[:, None] * self.rows[keep], rhs, box)


def _model(weights: np.ndarray, eta: np.ndarray, g: np.ndarray, h: np.ndarray):
    """The quadratic model of the objective at the predictor eta:
    sum_i w_i h_i (eta2_i - eta_i + g_i / h_i)^2 / 2 with g, h the first and
    second derivatives of the pointwise divergence there, returned as the
    least-squares row scale sqrt(w h) and right-hand side sqrt(w / h) (h eta - g)."""
    return np.sqrt(weights * h), np.sqrt(weights / h) * (h * eta - g)


def prepare_support(pair: ModelPair, points) -> Support:
    """The `Support` of `pair` at `points`; only polynomial-predictor pairs
    have one (`UnsupportedModelError` otherwise)."""
    if not isinstance(pair, PolynomialPair):
        raise UnsupportedModelError("the inner solve applies to polynomial-predictor "
                                    "pairs only")
    x = _scalar_inputs(points)
    eta1 = pair.true_predictor(x)
    rows = pair.rival_matrix(x)
    kernel = pair.kernel(eta1)
    return Support(points, rows, eta1, lambda beta2: kernel(rows @ beta2),
                   pair.kernel_derivatives(eta1))


def _bounded_lstsq(a: np.ndarray, rhs: np.ndarray, box: ParamBox) -> np.ndarray:
    """argmin over the box of |a x - rhs|, as `lsq_linear(method="bvls")` finds
    it: its first step is this unconstrained `lstsq` solution, kept when it
    lies in the box, where it is also the constrained minimizer."""
    x = np.linalg.lstsq(a, rhs, rcond=-1)[0]
    if ((x >= box.lower) & (x <= box.upper)).all():
        return x
    return lsq_linear(a, rhs, bounds=(box.lower, box.upper), method="bvls").x


def _newton(pair: ModelPair, support: Support, weights: np.ndarray,
            start: np.ndarray, config: InnerConfig) -> tuple[np.ndarray, float] | None:
    """Bounded Newton descent in beta2 for a pair convex in eta2 = rows @ beta2;
    returns the last iterate and its objective sum_i w_i I(x_i, beta2), or
    None when the model at `start` is not finite: where the logistic
    curvature h = expit'(eta2) underflows to 0, w / h is infinite (tested
    on h, before the model divides by it).

    Each step moves toward the box-constrained minimizer of `_model`,
    a bounded weighted least-squares solution: the `lstsq` solution when that
    lies in the box, BVLS's only when the box binds. For a Gaussian pair the
    model is the objective, so an accepted full step is exact.
    """
    box = pair.theta2
    lower, upper = box.lower, box.upper
    rows, pointwise = support.rows, support.pointwise
    exact = isinstance(pair, GaussianRegressionPair)

    def objective(b: np.ndarray) -> float:
        return float(weights @ pointwise(b))

    beta = start
    value = objective(beta)
    for steps in range(_MAX_NEWTON_STEPS):
        eta = rows @ beta
        g, h = support.derivatives(eta)
        if not steps and not (h > weights * _INV_MAX).all():
            return None  # w / h would overflow, or be 0 / 0
        scale, rhs = _model(weights, eta, g, h)
        target = _bounded_lstsq(scale[:, None] * rows, rhs, box)
        step = target - beta
        moved = rows @ step
        size = float(np.abs(moved).max())
        if size <= config.local_tolerance:
            break
        slope = float((weights * g) @ moved)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.minimum(np.maximum(beta + t * step, lower), upper)
            trial_value = objective(trial)
            if trial_value <= value + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break  # no decrease left above rounding
        beta, value = trial, trial_value
        if (exact and t == 1.0) or t * size <= config.local_tolerance:
            break  # the minimizer, or the objective is flat to rounding along the step
    return beta, value


def minimize_beta2(pair: ModelPair, design: Design, config: InnerConfig = InnerConfig(),
                   warm_start=None, *, support: Support | None = None) -> InnerSolution:
    """Minimize the design-averaged divergence over the rival parameter box.

    Bounded Newton steps from `warm_start` (clipped into the box) or, when
    None, from `Support.model_start`: the minimizer of the quadratic model
    at eta2 = eta1, the Fisher-scoring start, which for a Gaussian pair is
    the exact minimizer and is returned after one evaluation. A warm start
    whose model is not finite restarts once from the model start. The
    result is a pure function of the inputs.
    `support` is `prepare_support(pair, design.points)`, built here when
    None; a support on other points raises `ValueError`.
    `singular_flag` is set exactly when the rival matrix X on the
    positive-weight support is rank deficient, i.e. when the minimizer is
    not unique, or when a unit direction v has |X v| * |upper - lower| at
    most `local_tolerance`: then any two points of the box that differ along
    v have predictors no further apart than the Newton stop resolves, and the
    solve cannot tell them apart. A pair that is not a `PolynomialPair`
    raises `UnsupportedModelError`.
    """
    if support is None:
        support = prepare_support(pair, design.points)
    elif not np.array_equal(support.points, design.points):
        raise ValueError("the support was prepared on other points than the design's")
    box, weights = pair.theta2, design.weights
    solved = None
    if warm_start is not None:
        solved = _newton(pair, support, weights, box.clip(warm_start), config)
    if solved is None:  # a cold solve, or the warm start's model is not finite
        start = support.model_start(weights, box)
        if not isinstance(pair, GaussianRegressionPair):
            solved = _newton(pair, support, weights, start, config)
        if solved is None:  # the exact minimizer, or no finite model to descend on
            solved = start, float(weights @ support.pointwise(start))
    beta2_hat, value = solved
    edge = 1e-9 * (box.upper - box.lower)
    at_boundary = bool((beta2_hat <= box.lower + edge).any()
                       or (beta2_hat >= box.upper - edge).any())
    return InnerSolution(
        beta2_hat=beta2_hat,
        value=value,
        singular_flag=(support.least_singular_value(weights)
                       * math.dist(box.upper, box.lower) <= config.local_tolerance),
        at_boundary=at_boundary,
    )


def least_squares_oracle(pair: GaussianRegressionPair, design: Design):
    """Closed-form weighted least-squares solution of the Gaussian inner problem.

    For Gaussian pairs the inner problem is linear least squares in beta2;
    this independent route (normal equations via lstsq, box ignored) is used
    to cross-check the numeric solver.
    """
    if not isinstance(pair, GaussianRegressionPair):
        raise UnsupportedModelError("least-squares oracle applies to Gaussian pairs only")
    x = design.points
    y = pair.true_predictor(x)
    basis = pair.rival_matrix(x)
    sw = np.sqrt(design.weights)
    beta, *_ = np.linalg.lstsq(sw[:, None] * basis, sw * y, rcond=None)
    resid = y - basis @ beta
    value = float(design.weights @ (resid * resid)) / (2.0 * pair.sigma2)
    return beta, value

"""Inner minimization of the averaged divergence over the rival parameters.

Solves min_{beta2 in box} sum_i w_i I(x_i, beta2). For the GLM pairs the
divergence depends on beta2 only through the rival predictor eta2 = X beta2
(X the rival matrix at the support) and is convex in eta2: Gaussian pairs
give weighted least squares, logistic pairs the convex KL divergence of two
Bernoulli laws. The solve is therefore bounded Newton: each step minimizes
the box-constrained quadratic model, a bounded weighted least-squares
problem, by LAPACK's dgelsd (`numpy.linalg.lstsq`'s floats at less call
overhead), and a backtracking step follows; where the box binds, the model
step is bounded-variable least squares (`_bvls`, a port of
`scipy.optimize.lsq_linear(method="bvls")` on the same dgelsd). A cold solve
(no warm start) starts from the minimizer of the model taken at eta2 = eta1,
where the gradient is 0 and the curvature is the Fisher weight: the
Fisher-scoring (IRLS) start, which does not depend on the box unless the box
binds. A Gaussian pair's curvature is constant, so its quadratic model is
the objective: that start is the exact minimizer, and a Gaussian solve, warm
or cold, is that one least-squares fit and one evaluation. There g is 0 and
h is the scalar 1 / sigma2, so the fit takes every row as it stands, with
no derivative call and no row mask. Only logistic solves take Newton
steps. Where the model at a warm start is not finite (the
logistic curvature underflows to 0 far from eta1), the solve restarts once
from the model start. A convex pair's minimizer is unique if and only if X
has full column rank on the support, so the singularity flag is that rank
test, taken on the scale the Newton stop sees: a direction of the box along
which X moves eta2 by no more than the stopping tolerance counts as a null
direction. Everything that depends on the points and not on the weights (X,
the divergence and derivative closures, the rank test per positive-weight
pattern) is a `Support`, built once and reusable across solves on the same
points. A solution keeps the divergence I(x_i, beta2_hat) at each point it
was solved on, the rows its value averages, so the psi scan of the loop and
the certificate reads the design's rows there instead of evaluating them
again: a plain solve runs on the design itself, and a regularized one on
its blend with the reference, whose points follow the design's. Only these
polynomial-predictor pairs are solved; any other pair is refused. The loop
and both of its steps read two helpers here: the design whose solve gives
the criterion (`_criterion_design`) and the test that a step's solution
improves on its start (`_improves`).
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._lapack import lstsq
from .designs import Design, _freeze, _value_type, blend_designs
from .errors import DomainError, UnsupportedModelError
from .models import (GaussianRegressionPair, ModelPair, ParamBox, PolynomialPair,
                     _least_singular_value, _scalar_inputs)

# Sufficient-decrease fraction and halving budget of the backtracking step.
_ARMIJO = 1e-4
_MAX_HALVINGS = 40
# Newton step budget: a safety cap, far above the dozen steps a solve takes.
_MAX_NEWTON_STEPS = 800
# w / h is finite where h > w / max_float (to one rounding).
_INV_MAX = 1.0 / np.finfo(float).max
# A step whose predicted decrease is below this share of the objective's
# rounding magnitude (the pair's `kernel_rounding`) cannot be judged by its values.
_EPS = np.finfo(float).eps
_ROUNDING = 16 * _EPS
# BVLS stops once no bound's multiplier has the wrong sign beyond this, or an
# iteration lowers the cost by less than this share (lsq_linear's `tol`).
_BVLS_TOL = 1e-10
# Step improvements below this share of the value are treated as a zero step.
_IMPROVEMENT_TOL = 1e-13


@dataclass(frozen=True)
class InnerConfig:
    """Stopping rule of the inner solve: Newton steps stop once the step moves
    the rival predictor by at most `local_tolerance`. The start is not a
    setting: a logistic solve's warm start when given, otherwise the model
    start (`Support.model_start`), where a Gaussian solve ends."""

    local_tolerance: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.local_tolerance < np.inf:  # NaN fails too
            raise ValueError("local_tolerance must be finite and positive")


@dataclass(frozen=True)
class Support:
    """The weight-free part of the inner problem on fixed points: the rival
    matrix, the true predictor eta1, the kernel eta2 -> I and its derivative
    closure (the family's `kernels` at eta1), a Gaussian pair's constant
    curvature, and the rank test, memoized per positive-weight pattern.
    Build it with `prepare_support`; any design on the same points can be
    solved on it."""

    points: np.ndarray
    rows: np.ndarray
    eta1: np.ndarray
    kernel: Callable
    derivatives: Callable
    curvature: float | None  # a Gaussian pair's constant h = 1 / sigma2, else None
    _least_singular: dict = field(default_factory=dict, repr=False, compare=False)

    def pointwise(self, beta2: np.ndarray) -> np.ndarray:
        """I(x_i, beta2) at each point: the kernel at eta2 = rows @ beta2."""
        return self.kernel(self.rows @ beta2)

    def objective(self, weights, beta2) -> tuple[np.ndarray, np.ndarray, float]:
        """(eta2, I(x_i, beta2) at each point, sum_i w_i I(x_i, beta2)) at
        beta2, the floats of `pointwise`."""
        eta2 = self.rows @ beta2
        row = self.kernel(eta2)
        return eta2, row, float(weights @ row)

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
        underflowed, and the model is flat. A Gaussian pair's h is the
        constant `curvature`, and g = (eta1 - eta1) h is +0, so its model is
        built from those scalars on every row, the same floats; it keeps
        every row unless sigma2 is within a factor 1 / w of the largest
        float, which one comparison with the largest weight tells, and then
        takes the route above."""
        h, eta1, rows = self.curvature, self.eta1, self.rows
        if h is not None and h > weights.max() * _INV_MAX:
            g = 0.0  # (eta1 - eta1) h, and every row is kept
        else:
            g, h = self.derivatives(eta1)
            keep = h > weights * _INV_MAX
            weights, eta1, g, h, rows = weights[keep], eta1[keep], g[keep], h[keep], rows[keep]
        scale, rhs = _model(weights, eta1, g, h)
        return _bounded_lstsq(scale[:, None] * rows, rhs, box)


@_value_type
@dataclass(frozen=True)
class InnerSolution:
    """Box-constrained minimizer, its value and the uniqueness diagnostic.
    `pointwise` is I(x_i, beta2_hat) at each point of the design the solve
    was given, in its order, the rows `value` averages; it is read-only and
    takes no part in comparisons. A design blended with another
    (`blend_designs`) keeps its points first, so a solve on the blend holds
    the design's rows as its leading ones."""

    beta2_hat: np.ndarray
    value: float
    singular_flag: bool
    at_boundary: bool
    pointwise: np.ndarray = field(compare=False, repr=False)


def _model(weights: np.ndarray, eta: np.ndarray, g: np.ndarray, h: np.ndarray):
    """The quadratic model of the objective at the predictor eta:
    sum_i w_i h_i (eta2_i - eta_i + g_i / h_i)^2 / 2 with g, h the first and
    second derivatives of the pointwise divergence there, returned as the
    least-squares row scale sqrt(w h) and right-hand side sqrt(w / h) (h eta - g)."""
    return np.sqrt(weights * h), np.sqrt(weights / h) * (h * eta - g)


def prepare_support(pair: ModelPair, points) -> Support:
    """The `Support` of `pair` at `points`; only polynomial-predictor pairs
    have one (`UnsupportedModelError` otherwise), and a point that is not
    finite raises `DomainError` here, before LAPACK reads it."""
    if not isinstance(pair, PolynomialPair):
        raise UnsupportedModelError("the inner solve applies to polynomial-predictor "
                                    "pairs only")
    x = _scalar_inputs(points)
    if np.count_nonzero(np.isfinite(x)) < x.size:  # half the time of .all()
        raise DomainError(f"point {float(x[~np.isfinite(x)][0])} is not finite")
    eta1 = pair.true_predictor(x)
    curvature = 1.0 / pair.sigma2 if isinstance(pair, GaussianRegressionPair) else None
    return Support(points, pair.rival_matrix(x), eta1, *pair.kernels(eta1), curvature)


def _bounded_lstsq(a: np.ndarray, rhs: np.ndarray, box: ParamBox) -> np.ndarray:
    """argmin over the box of |a x - rhs|, as `lsq_linear(method="bvls")` finds
    it: its first step is the unconstrained minimum-norm solution of
    `numpy.linalg.lstsq`, here taken from its dgelsd gufunc (`_lapack.lstsq`),
    kept when it lies in the box, where it is also the constrained minimizer;
    otherwise BVLS starts from it (`_bvls`)."""
    x = lstsq(a, rhs)
    if ((x >= box.lower) & (x <= box.upper)).all():
        return x
    return _bvls(a, rhs, x, box.lower, box.upper)


def _bvls(a: np.ndarray, rhs: np.ndarray, x: np.ndarray, lower: np.ndarray,
          upper: np.ndarray) -> np.ndarray:
    """Bounded-variable least squares (Stark and Parker 1995) from the
    unconstrained solution x, step for step as `scipy.optimize.lsq_linear`
    runs it (`scipy/optimize/_lsq/bvls.py`), so with the same floats: x is
    clipped into the box; the initialisation loop binds every free variable
    whose least-squares value leaves the box until the free solution is
    feasible; then each iteration (loop A, at most one per variable) frees
    the bound variable whose multiplier has the wrong sign most, and loop B
    moves toward the free least-squares solution, binding the first variable
    it meets at a bound, until that solution is feasible. Each free-set
    solve is dgelsd at numpy's default rcond, eps max(m, n), as BVLS calls
    it."""
    m, n = a.shape
    on_bound = np.where(x <= lower, -1.0, np.where(x >= upper, 1.0, 0.0))
    x = np.where(on_bound < 0.0, lower, np.where(on_bound > 0.0, upper, x))

    def free_solve(free: np.ndarray) -> np.ndarray:
        shifted = rhs - a.dot(x * (on_bound != 0.0))
        return lstsq(a[:, free], shifted, _EPS * max(m, free.size))

    free = np.flatnonzero(on_bound == 0.0)
    while free.size:  # the initialisation loop
        z = free_solve(free)
        low, high = z < lower[free], z > upper[free]
        x[free] = np.where(low, lower[free], np.where(high, upper[free], z))
        on_bound[free[low]], on_bound[free[high]] = -1.0, 1.0
        if not (low | high).any():
            break
        free = free[~(low | high)]
    r = a.dot(x) - rhs
    cost, g = 0.5 * np.dot(r, r), a.T.dot(r)
    for _ in range(n):  # loop A
        if np.where(on_bound == 0.0, np.abs(g), g * on_bound).max() < _BVLS_TOL:
            break
        on_bound[np.argmax(g * on_bound)] = 0.0
        while True:  # loop B
            free = np.flatnonzero(on_bound == 0.0)
            x_free, z = x[free], free_solve(free)
            lb, ub = lower[free], upper[free]
            low, high = np.flatnonzero(z < lb), np.flatnonzero(z > ub)
            v = np.hstack((low, high))
            if not v.size:
                x[free] = z
                break
            alphas = (np.hstack((lb[low] - x_free[low], ub[high] - x_free[high]))
                      / (z[v] - x_free[v]))
            i = np.argmin(alphas)
            x_free *= 1 - alphas[i]
            x_free += alphas[i] * z
            x[free] = x_free
            on_bound[free[v[i]]] = -1.0 if i < low.size else 1.0
        r = a.dot(x) - rhs
        cost_new = 0.5 * np.dot(r, r)
        if cost - cost_new < _BVLS_TOL * cost:
            break
        cost, g = cost_new, a.T.dot(r)
    return x


def _newton(pair: ModelPair, support: Support, weights: np.ndarray, start: np.ndarray,
            config: InnerConfig) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Bounded Newton descent in beta2 for a logistic pair, convex in
    eta2 = rows @ beta2 (a Gaussian solve is its model start, and never
    enters here); returns the last iterate, the I(x_i, beta2) there and
    their objective sum_i w_i I(x_i, beta2) (`Support.objective`), or None
    when the model at `start` is not finite: where the curvature
    h = expit'(eta2) underflows to 0, w / h is infinite (tested on h, before
    the model divides by it).

    Each step moves toward the box-constrained minimizer of `_model`,
    a bounded weighted least-squares solution: the `lstsq` solution when that
    lies in the box, BVLS's only when the box binds. The step backtracks
    until Armijo's sufficient decrease holds, except where the decrease the
    model predicts, -slope, is below the objective's rounding (`_ROUNDING`
    times the pair's `kernel_rounding`, built only where a full step fails):
    there the values cannot tell a better point from a worse one, and the
    full model step is taken unless its value is worse beyond that rounding
    (an approximate Armijo test, as in Hager and Zhang 2005). Backtracking on
    such a step would accept some tiny t and stop short of the minimizer.
    The accepted trial's predictor rows @ beta2, divergence and value carry
    into the next step, so each iterate is evaluated once.
    """
    box = pair.theta2
    lower, upper = box.lower, box.upper
    rows = support.rows
    beta = start
    eta, row, value = support.objective(weights, beta)
    for steps in range(_MAX_NEWTON_STEPS):
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
        t, rounding = 1.0, None
        for _ in range(_MAX_HALVINGS):
            trial = np.minimum(np.maximum(beta + t * step, lower), upper)
            trial_eta, trial_row, trial_value = support.objective(weights, trial)
            if trial_value <= value + _ARMIJO * t * slope:
                break
            if rounding is None:  # taken once, where the full step fails
                magnitude = pair.kernel_rounding(support.eta1)(eta)
                rounding = _ROUNDING * float(weights @ magnitude)
            if -slope <= rounding and trial_value <= value + rounding:
                break  # the values cannot judge the step: they agree to rounding
            t *= 0.5
        else:
            break  # no decrease left above rounding
        beta, eta, row, value = trial, trial_eta, trial_row, trial_value
        if t * size <= config.local_tolerance:
            break  # the objective is flat to rounding along the step
    return beta, row, value


def refuse_negative_weights(weights: np.ndarray) -> None:
    """Raise `DomainError` at a weight that is negative or NaN: one
    comparison and one count, cheap enough for every solve."""
    if np.count_nonzero(weights >= 0.0) < weights.size:  # NaN fails too
        raise DomainError(f"weight {weights[~(weights >= 0.0)][0]} is not nonnegative")


def minimize_beta2(pair: ModelPair, design: Design, config: InnerConfig = InnerConfig(),
                   warm_start=None, *, support: Support | None = None) -> InnerSolution:
    """Minimize the design-averaged divergence over the rival parameter box.

    A Gaussian pair's solution is `Support.model_start`, the minimizer of
    the quadratic model at eta2 = eta1, which is its objective: the exact
    bounded least-squares fit, returned after one evaluation with or
    without `warm_start`. A logistic pair takes bounded Newton steps from
    `warm_start` (clipped into the box) or, when None, from the model start,
    the Fisher-scoring start; a warm start whose model is not finite
    restarts once from the model start. The result is a pure function of
    the inputs.
    `support` is `prepare_support(pair, design.points)`, built here when
    None; a support on other points raises `ValueError`. The solution keeps
    the divergence at the design's points, at beta2_hat, as its `pointwise`.
    A weight that is negative or NaN raises `DomainError`, before LAPACK
    reads it.
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
    refuse_negative_weights(weights)
    gaussian = isinstance(pair, GaussianRegressionPair)
    solved = None
    if warm_start is not None and not gaussian:
        solved = _newton(pair, support, weights, box.clip(warm_start), config)
    if solved is None:  # Gaussian, cold, or the warm start's model is not finite
        start = support.model_start(weights, box)
        if not gaussian:
            solved = _newton(pair, support, weights, start, config)
        if solved is None:  # the exact minimizer, or no finite model to descend on
            solved = start, *support.objective(weights, start)[1:]
    beta2_hat, pointwise, value = solved
    inside_lower, inside_upper = box._edges
    return InnerSolution(
        beta2_hat=beta2_hat,
        value=value,
        singular_flag=(support.least_singular_value(weights) * box._diameter
                       <= config.local_tolerance),
        at_boundary=bool((beta2_hat <= inside_lower).any()
                         or (beta2_hat >= inside_upper).any()),
        pointwise=_freeze(pointwise),
    )


def _criterion_design(design: Design, reg) -> Design:
    """The design whose inner solve gives the criterion at `design`: the
    design itself, or, when `reg` (a `RegularizationConfig`) is given, its
    blend with the reference."""
    return design if reg is None else blend_designs(design, reg.xi_tilde, reg.gamma)


def _improves(sol: InnerSolution, start: InnerSolution) -> bool:
    """Whether a step's solution improves on the start's beyond rounding."""
    return sol.value - start.value > _IMPROVEMENT_TOL * max(1.0, abs(start.value))


def least_squares_oracle(pair: GaussianRegressionPair, design: Design):
    """Closed-form weighted least-squares solution of the Gaussian inner problem.

    For Gaussian pairs the inner problem is linear least squares in beta2;
    this route (the SVD least-squares solve of `numpy.linalg.lstsq` on the
    weighted rows, box ignored) is used to cross-check the numeric solver.
    It is independent of the solver only in its wrapper, its scaling and
    its ignoring of the box: both reach numpy's dgelsd gufunc
    (`_umath_linalg.lstsq`), the solver through `_lapack.lstsq`. Item 7 of
    ROADMAP.md (exact rational arithmetic for Gaussian pairs) is a route
    that shares no code with the solver.
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

"""Inner minimization of the averaged divergence over the rival parameters.

Solves min_{beta2 in box} sum_i w_i I(x_i, beta2). For the GLM pairs the
divergence depends on beta2 only through the rival predictor
eta2 = X beta2 (X the rival matrix at the support) and is convex in eta2:
Gaussian pairs give weighted least squares, logistic pairs the convex KL
divergence of two Bernoulli laws. The solve is therefore bounded Newton:
each step minimizes the box-constrained quadratic model with
`scipy.optimize.lsq_linear(method="bvls")`, and a backtracking step follows
it. One step is exact for Gaussian pairs. A convex pair's minimizer is
unique if and only if X has full column rank on the support, so the
singularity flag is that rank test. The synthetic family has no rival
matrix; its one-dimensional box is scanned and the best node polished.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import lsq_linear

from .designs import Design
from .errors import DomainError, UnsupportedModelError
from .models import GaussianRegressionPair, ModelPair, ParamBox, glm_is_regular

# Sufficient-decrease fraction and halving budget of the backtracking step.
_ARMIJO = 1e-4
_MAX_HALVINGS = 40
# Nodes of the synthetic family's box scan.
_SCAN_POINTS = 201


@dataclass(frozen=True)
class InnerConfig:
    """Stopping rule of the inner solve: Newton steps stop once the step moves
    the rival predictor by at most `local_tolerance`, or after
    `max_local_iterations` steps (also the polish budget of the scan path)."""

    local_tolerance: float = 1e-9
    max_local_iterations: int = 800

    def __post_init__(self):
        if self.local_tolerance <= 0 or self.max_local_iterations <= 0:
            raise ValueError("local tolerance and iteration budget must be positive")


@dataclass(frozen=True)
class InnerSolution:
    """Box-constrained minimizer, its value and the uniqueness diagnostic."""

    beta2_hat: np.ndarray
    value: float
    singular_flag: bool
    at_boundary: bool


def _nelder_mead_box(f, x0: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                     xatol: float, fatol: float, max_iter: int,
                     initial_step: np.ndarray):
    """Nelder-Mead with every candidate clipped into [lower, upper].

    Returns (best point, best value). Termination: simplex extent below
    `xatol` and value spread below `fatol`, or the iteration budget.
    """
    d = x0.size
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    sim = np.empty((d + 1, d))
    sim[0] = x0
    for j in range(d):
        v = x0.copy()
        step = initial_step[j]
        v[j] = v[j] + step if v[j] + step <= upper[j] else v[j] - step
        sim[j + 1] = np.clip(v, lower, upper)
    fs = np.array([f(s) for s in sim])
    for _ in range(max_iter):
        order = np.argsort(fs, kind="stable")
        sim, fs = sim[order], fs[order]
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fs[1:] - fs[0])) <= fatol * max(1.0, abs(fs[0]))):
            break
        centroid = sim[:-1].mean(axis=0)
        xr = np.clip(centroid + alpha * (centroid - sim[-1]), lower, upper)
        fr = f(xr)
        if fr < fs[0]:
            xe = np.clip(centroid + gamma * (xr - centroid), lower, upper)
            fe = f(xe)
            if fe < fr:
                sim[-1], fs[-1] = xe, fe
            else:
                sim[-1], fs[-1] = xr, fr
        elif fr < fs[-2]:
            sim[-1], fs[-1] = xr, fr
        else:
            if fr < fs[-1]:
                xc = np.clip(centroid + rho * (xr - centroid), lower, upper)
                fc = f(xc)
                shrink = fc > fr
            else:
                xc = centroid + rho * (sim[-1] - centroid)
                fc = f(xc)
                shrink = fc >= fs[-1]
            if shrink:
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fs[1:] = [f(s) for s in sim[1:]]
            else:
                sim[-1], fs[-1] = xc, fc
    i = int(np.argmin(fs))
    return sim[i], float(fs[i])


def _newton(pair: ModelPair, design: Design, rows: np.ndarray, objective,
            start: np.ndarray, config: InnerConfig) -> np.ndarray:
    """Bounded Newton descent in beta2 for a pair convex in eta2 = rows @ beta2.

    The quadratic model of the objective at eta is
    sum_i w_i h_i (eta2_i - eta_i + g_i / h_i)^2 / 2 with g, h the first and
    second derivatives of the pointwise divergence, so its box-constrained
    minimizer is a bounded weighted least-squares solution.
    """
    box = pair.theta2
    weights = design.weights
    derivatives = pair.divergence_derivatives(design.points)
    beta = start
    value = objective(beta)
    for _ in range(config.max_local_iterations):
        eta = rows @ beta
        g, h = derivatives(eta)
        scale = np.sqrt(weights * h)
        rhs = np.sqrt(weights / h) * (h * eta - g)
        target = lsq_linear(scale[:, None] * rows, rhs, bounds=(box.lower, box.upper),
                            method="bvls").x
        step = target - beta
        moved = rows @ step
        size = float(np.max(np.abs(moved)))
        if size <= config.local_tolerance:
            break
        slope = float((weights * g) @ moved)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = box.clip(beta + t * step)
            trial_value = objective(trial)
            if trial_value <= value + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break  # no decrease left above rounding
        beta, value = trial, trial_value
        if t * size <= config.local_tolerance:
            break  # the objective is flat to rounding along the step
    return beta


def _scan_and_polish(box: ParamBox, objective, config: InnerConfig) -> np.ndarray:
    """Equispaced scan of a one-dimensional box, then a simplex polish inside
    the best node's cell."""
    nodes = np.linspace(box.lower, box.upper, _SCAN_POINTS)
    best = nodes[int(np.argmin([objective(b) for b in nodes]))]
    cell = (box.upper - box.lower) / (_SCAN_POINTS - 1)
    lower = np.maximum(box.lower, best - cell)
    upper = np.minimum(box.upper, best + cell)
    # The simplex keeps its best vertex, so the polish never ends above `best`.
    polished, _ = _nelder_mead_box(objective, best, lower, upper,
                                   xatol=config.local_tolerance, fatol=1e-14,
                                   max_iter=config.max_local_iterations,
                                   initial_step=0.25 * cell)
    return polished


def minimize_beta2(pair: ModelPair, design: Design, config: InnerConfig = InnerConfig(),
                   warm_start=None) -> InnerSolution:
    """Minimize the design-averaged divergence over the rival parameter box.

    Pairs with a rival matrix take bounded Newton steps from `warm_start`
    (clipped into the box; the box midpoint when None), so the result is a
    pure function of the inputs. `singular_flag` is set exactly when the
    rival matrix on the positive-weight support is rank deficient, i.e.
    when the minimizer is not unique.
    """
    if design.size < 1:
        raise DomainError("design has no support points")
    box = pair.theta2
    weights = design.weights
    pointwise = pair.divergence_evaluator(design.points)

    def objective(b: np.ndarray) -> float:
        return float(weights @ pointwise(b))

    rows = pair.rival_matrix(design.points)
    if rows is None:
        beta2_hat = _scan_and_polish(box, objective, config)
        singular = False
    else:
        start = box.midpoint if warm_start is None else box.clip(warm_start)
        beta2_hat = _newton(pair, design, rows, objective, start, config)
        singular = not glm_is_regular(rows[weights > 0.0])
    edge = 1e-9 * (box.upper - box.lower)
    at_boundary = bool(np.any(beta2_hat <= box.lower + edge)
                       or np.any(beta2_hat >= box.upper - edge))
    return InnerSolution(
        beta2_hat=beta2_hat,
        value=objective(beta2_hat),
        singular_flag=singular,
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

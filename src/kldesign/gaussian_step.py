"""The step of the exchange loop for a Gaussian pair: a fully corrective step.

The loop's step re-solves the weights (`corrective_step`): the best design
on the support, the best point x_n and the other candidates of the
iteration's psi scan where psi > 0 comes from the minimax dual restricted to
those points (`restricted_dual`), stated in residual units, where it is a
quadratic program with linear constraints. The levelled point of the Remez
reference read off r at the start's minimizer (Remez 1934; Cheney 1966) is
often its optimum: one square solve for its KKT multipliers tells, and
accepts it (every dual of the shipped Gaussian runs ends there). Otherwise a
small active-set method (`_active_set`) solves the program exactly from the
start's minimizer. Its multipliers are the weights, and a point of zero
weight leaves. Each step is fully corrective (simplicial decomposition, von
Hohenbalken 1977), at least as good as the logistic pair's exact line
search, and the new design is solved once, by its exact least-squares fit.
"""

import math

import numpy as np

from ._active_set import _QP_ROUNDING, _active_set_qp, _kkt_optimal
from ._lapack import solve
from .designs import Design
from .errors import UnsupportedModelError
from .inner import (InnerConfig, InnerSolution, _criterion_design, _improves,
                    minimize_beta2, prepare_support)
from .models import GaussianRegressionPair, ModelPair

# A corrective-step candidate within this share of the domain width of a
# point already taken is that point: a root of r' that converges to a support
# point lands within about 1e-11 of it, and a second row there only makes the
# restricted dual near singular.
_MERGE_TOL = 1e-9


def _remez_reference(x: np.ndarray, residual: np.ndarray, size: int):
    """The indices of a Remez reference of `size` points read off
    `residual`, in the order of x, or None where r has fewer alternants.

    Walked in the order of x, the residuals fall into runs of one sign, and
    each run's largest |r_j| is an alternant. The reference is the `size`
    consecutive alternants that hold the largest |r_j| and, of those
    windows, have the largest smallest |r_j|, then the largest second
    smallest, and so on: a rule that reads the same in either direction of x
    (Remez 1934; Cheney 1966, ch. 2).
    """
    alternants = []
    for i in np.argsort(x).tolist():
        if alternants and (residual[i] < 0.0) == (residual[alternants[-1]] < 0.0):
            if abs(residual[i]) > abs(residual[alternants[-1]]):
                alternants[-1] = i
        else:
            alternants.append(i)
    if len(alternants) < size:
        return None
    magnitude = np.abs(residual[alternants])
    k = int(np.argmax(magnitude))
    first = max(range(max(0, k - size + 1), min(k, len(alternants) - size) + 1),
                key=lambda i: np.sort(magnitude[i:i + size]).tolist())
    return alternants[first:first + size]


def _levelled_optimum(x: np.ndarray, rows: np.ndarray, eta1: np.ndarray,
                      residual: np.ndarray, box):
    """(multipliers, z) at the levelled point z = (beta2, h) of the Remez
    reference (`_remez_reference`) of d + 1 points, d the columns of `rows`,
    one multiplier per point, where z is the optimum of the plain
    residual-unit dual (gamma = 0), else None.

    The levelled point solves X_R beta2 + sign_R h = eta1_R on the reference
    R, with sign_j = sign r_j, the signs of its residuals, so that r_j =
    sign_j h there. It is feasible where that solve succeeds, beta2 lies in
    the box and no other point has |r_j| > h. There the objective s^2 / 2 has
    the gradient (0, ..., 0, h), and the rows s - sign_j r_j >= 0 active on
    R, as many as the unknowns, give the multipliers of the square system
    A_R' lambda = (0, ..., 0, h). The dual is a convex quadratic program, so
    z is its optimum when no multiplier is negative beyond rounding
    (`_kkt_optimal`, the test `_active_set_qp` stops on). None where a solve
    is singular or a test fails.

    A point with h < 0 never passes that test beyond rounding, so it needs
    no branch of its own. The system asks X_R' (sign_R lambda) = 0 and
    sum lambda = h, so sign_R lambda = c w, w the left null vector of X_R.
    Multiplying the levelled equation by w gives h sum_j w_j sign_j =
    sum_j w_j r_j = sum_j w_j sign_j |r_j|. Where every lambda_j >= 0, every
    w_j sign_j has one sign, so h = sum_j |w_j| |r_j| / sum_j |w_j| >= 0.
    With the signs reversed, the same steps give -h <= 0 instead, so a
    reversed point with h < 0 fails the test as well.
    """
    m, d = rows.shape
    reference = _remez_reference(x, residual, d + 1)
    if reference is None:
        return None
    signs = np.where(residual[reference] < 0.0, -1.0, 1.0)
    try:
        z = solve(np.hstack([rows[reference], signs[:, None]]), eta1[reference])
        active = np.hstack([signs[:, None] * rows[reference], np.ones((d + 1, 1))])
        gradient = np.zeros(d + 1)
        gradient[-1] = z[-1]
        multipliers = solve(active.T, gradient)
    except np.linalg.LinAlgError:
        return None
    beta, h = z[:-1], z[-1]
    outside = np.ones(m, dtype=bool)
    outside[reference] = False
    if not (np.all((beta >= box.lower) & (beta <= box.upper))
            and np.all(np.abs(eta1[outside] - rows[outside] @ beta) <= h)
            and _kkt_optimal(multipliers)):
        return None
    out = np.zeros(m)
    out[reference] = np.maximum(multipliers, 0.0)
    return out, z


def restricted_dual(pair: ModelPair, points, warm_start=None, *, reg=None):
    """The best design on fixed points for a Gaussian pair, from the minimax
    dual restricted to them.

    The averaged divergence is linear in the weights and convex in beta2, so
    the largest criterion over designs on `points` is the minimum over
    (beta2 in the box, t) of (1-gamma) t + gamma avg_ref I(., beta2) subject to
    I(x_j, beta2) <= t for every point x_j (gamma and the reference design
    from `reg`, a `RegularizationConfig`, gamma = 0 without). At its solution
    the constraint multipliers sum to 1 - gamma, stationarity in beta2 is the
    inner first-order condition of the design they weight, and complementary
    slackness leaves a zero weight where I(x_j, beta2) < t. For a nested
    Gaussian pair the weights are those of the discrete Chebyshev
    approximation of the true mean by the rival span (Atkinson and Fedorov
    1975).

    A Gaussian pair has I(x_j, beta2) = r_j^2 / (2 sigma2), r_j =
    eta1_j - X_j beta2 the residual, so the dual is solved in residual units:
    over (beta2 in the box, s >= 0) minimize (1-gamma) s^2 / 2 +
    gamma sigma2 avg_ref I(., beta2), which is sigma2 times the objective
    above at t = s^2 / (2 sigma2), subject to the linear constraints
    -s <= r_j <= s (which imply s >= 0). That is a quadratic program. For a
    nested pair, with no reference and a box that does not bind, its optimum
    is the levelled point of a reference of Remez's exchange (Remez 1934;
    Cheney 1966, ch. 2): d + 1 points where r alternates in sign with |r_j|
    = s, its extrema, which the corrective step's points hold. So a dual
    without a reference first tests the levelled point of the reference
    read off r at `warm_start` clipped into the box (the box midpoint when
    None): where that point is feasible and its KKT multipliers, one square
    solve, pass the optimality test of the active-set method, it is the
    answer, and no program is built (`_levelled_optimum`; every dual of the
    shipped Gaussian runs ends there). Every other dual, a regularized one
    among them, builds the program and solves it exactly by
    `_active_set_qp`, from the clipped warm start, s the largest |r_j|
    there, with the row of that largest residual as the working set.
    A point's multiplier is the sum of its two rows' multipliers, rescaled
    to sum to 1 - gamma; unscaled they sum to (1-gamma) s, so all are zero
    where s is at most `_QP_ROUNDING` of the largest |eta1_j|, an exact fit
    to rounding. The value is the objective divided by sigma2.
    Neither the constraints, the objective nor the start depend on sigma2,
    on where the domain lies or on its direction, and scaling the true mean
    and the box scales the solution. Any other pair raises
    `UnsupportedModelError`: a logistic pair steps by `line_search_alpha`.

    Returns (multipliers, beta2, value), one multiplier per point; dividing
    the multipliers by their sum gives the weights.
    """
    if not isinstance(pair, GaussianRegressionPair):
        raise UnsupportedModelError("the restricted dual applies to Gaussian pairs only")
    gamma = 0.0 if reg is None else reg.gamma
    box = pair.theta2
    beta = box.midpoint if warm_start is None else box.clip(warm_start)
    rows, eta1 = pair.rival_matrix(points), pair.true_predictor(points)
    m, d = rows.shape
    residual = eta1 - rows @ beta
    levelled = (None if reg is not None
                else _levelled_optimum(np.reshape(points, m), rows, eta1, residual, box))
    if levelled is not None:
        multipliers, z = levelled
        beta = z[:-1]
    else:
        # the objective |F z - y|^2 / 2 of z = (beta2, s): (1-gamma) s^2 / 2,
        # plus gamma avg_ref r^2 / 2 when regularizing
        factor, target = np.eye(1, d + 1, d) * math.sqrt(1.0 - gamma), np.zeros(1)
        if reg is not None:
            reference = prepare_support(pair, reg.xi_tilde.points)
            root = np.sqrt(gamma * reg.xi_tilde.weights)
            factor = np.vstack([np.hstack([root[:, None] * reference.rows,
                                           np.zeros((root.size, 1))]), factor])
            target = np.append(root * reference.eta1, 0.0)
        ones, unit = np.ones((m, 1)), np.eye(d, d + 1)
        # s - r_j >= 0, s + r_j >= 0 (which imply s >= 0), the box
        constraints = np.vstack([np.hstack([rows, ones]), np.hstack([-rows, ones]),
                                 unit, -unit])
        bounds = np.concatenate([eta1, -eta1, box.lower, -box.upper])
        j = int(np.argmax(np.abs(residual)))
        z, multipliers = _active_set_qp(factor, target, constraints, bounds,
                                        np.append(beta, abs(residual[j])),
                                        [j if residual[j] >= 0.0 else m + j])
        # the box rows hold to rounding; those that bind hold exactly
        at_lower = multipliers[2 * m:2 * m + d] > 0.0
        at_upper = multipliers[2 * m + d:] > 0.0
        beta = np.where(at_lower, box.lower,
                        np.where(at_upper, box.upper, box.clip(z[:-1])))
        multipliers = multipliers[:m] + multipliers[m:2 * m]
    s = z[-1]
    total = float(np.sum(multipliers))
    if s > _QP_ROUNDING * float(np.abs(eta1).max()) and total > 0.0:
        multipliers = multipliers * ((1.0 - gamma) / total)
    else:  # an exact fit: multipliers summing to (1-gamma) s are rounding
        multipliers = np.zeros(m)
    value = (1.0 - gamma) * s * s * 0.5 / pair.sigma2
    if reg is not None:
        value += gamma * reg.xi_tilde.weights @ reference.pointwise(beta)
    return multipliers, beta, float(value)


def corrective_step(pair: ModelPair, design: Design, x_new, start: InnerSolution,
                    candidates, inner_config: InnerConfig = InnerConfig(), *,
                    reg=None):
    """The step of a Gaussian pair: the best weights on the support and x_new.

    The points are the support, x_new, and every root of r' and end of the
    domain where psi > 0 at the start's minimizer: `candidates` is (points,
    psi) of those rows of the iteration's scan, as `best_support_candidate`
    returns them, and they hold the maximum of psi. A candidate within
    `_MERGE_TOL` of the domain width of a point already taken is that point.
    `restricted_dual` gives their weights, and a point of zero weight
    leaves. The segment a line search explores lies among these designs, so
    the step is at least as good as the exact line search's. The new design
    is solved once, by the exact least-squares fit of a Gaussian inner solve,
    so U and the singular flag are read off the inner solve as at every
    iterate. `reg` is the run's `RegularizationConfig`, None for a plain
    run. Returns (the new weight at x_new, read by the same rule, the new
    design, its inner solution); (0.0, design, start) signals that no ascent
    step exists: the multipliers have no positive sum, or the value does not
    rise. Any other pair raises `UnsupportedModelError` (`restricted_dual`).
    """
    scanned, psi = candidates
    points, x_new = design.points, np.asarray(x_new, dtype=float)
    merge = _MERGE_TOL * float(design.space.upper[0] - design.space.lower[0])
    for x in [x_new, *scanned[psi > 0.0]]:
        if np.min(np.abs(points[:, 0] - x[0])) > merge:
            points = np.vstack([points, x])
    multipliers, _, _ = restricted_dual(pair, points, start.beta2_hat, reg=reg)
    keep = multipliers > 0.0
    total = float(np.sum(multipliers[keep]))
    if not (np.isfinite(total) and total > 0.0):
        return 0.0, design, start
    new = Design(design.space, points[keep], multipliers[keep] / total)
    sol = minimize_beta2(pair, _criterion_design(new, reg), inner_config)
    if not _improves(sol, start):
        return 0.0, design, start
    alpha = float(new.weights[np.abs(new.points[:, 0] - x_new[0]) <= merge].sum())
    return alpha, new, sol

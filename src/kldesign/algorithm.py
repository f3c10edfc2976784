"""First-order exchange algorithm for min-divergence optimal designs.

One iteration, given the current design xi_n:

1. inner solve: beta2_n minimizing the averaged divergence (bounded Newton,
   warm-started from the previous iterate's solution);
2. best-point search: x_n maximizing psi over the domain, read off
   `psi_scan`, the scan the certificate uses (exact for Gaussian pairs);
3. stopping check: the efficiency bound U = value / (value + psi_max),
   a lower bound on value / optimum, is evaluated here, after the
   best-point search and before any further work. A rival that attains
   the true model stops the run first, a singular inner solve the plain
   loop next; otherwise the run stops once U exceeds the target delta;
4. step size: exact line search of the criterion along the segment
   (1-a) xi_n + a delta_{x_n}. The criterion is concave along the segment,
   and each inner solve's minimizer gives its supergradient in a (Danskin),
   so the step is the root of that slope, bracketed by its signs at 0 and 1.
   A plain Gaussian step from a regular start inside the parameter box is
   that root in closed form (a rank-one update of weighted least squares),
   kept after one solve shows the box does not bind there and the slope
   vanishes.
   The search starts from step 1's solution, so a = 0 is not solved again,
   and it returns the solution on the mixture it steps to. Every trial
   a in (0, 1) weights the same points, so their rival matrix, divergence
   closures and rank test are prepared once per search (`inner.Support`);
5. housekeeping on a fixed schedule:
   support points near x_n are collapsed to a barycenter whose radius
   shrinks like 0.05 * diameter * n^-0.65 while the anchor's barycenter
   weight grows like n^0.8, then points with weight below 0.1 times the
   mean weight of the other points are pruned. When neither changes the
   mixture, the next iteration starts from the line search's solution;
   otherwise the cleaned design is solved once, and a guard falls back to
   the raw mixture and its solution if cleanup would break the
   monotone-ascent guarantee of the exact line search.

Singular problems (non-unique inner minimizer) make the directional
derivative meaningless, so the plain loop stops with reason
"stalled-regularized" when it detects one: a singular inner solve (the
rival matrix on the support is rank deficient, which covers a support
smaller than d2), or a zero step while the divergence gap is still
positive. `run_regularized` then optimizes the regularized
criterion I_gamma(xi) = I[(1-gamma) xi + gamma xi_tilde], whose directional
derivative psi_gamma(x; xi) = (1-gamma) * [I(x, b) - avg_xi I(., b)] with
b = beta2((1-gamma) xi + gamma xi_tilde) is well defined at any design.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .designs import (Design, DesignSpace, blend_designs, collapse_support,
                      mix_design, mixture_segment, prune_support, validate_design)
from .errors import DomainError, UndefinedEfficiencyError, UnsupportedModelError
from .inner import InnerConfig, InnerSolution, minimize_beta2, prepare_support
from .models import GaussianRegressionPair, ModelPair, PolynomialPair, glm_is_regular

EFFICIENCY_REACHED = "efficiency-reached"
MAX_ITERATIONS = "max-iterations"
STALLED_REGULARIZED = "stalled-regularized"
STALLED = "stalled"
RIVAL_ATTAINS_TRUTH = "rival-attains-truth"
PSI_GRID_SIZE = 2001  # grid nodes of the psi scan

# A zero line-search step only signals a singular loop when the divergence
# gap is clearly positive at this scale.
_STALL_PSI_TOL = 1e-9
# Ascent bookkeeping: drops beyond the first bound raise, beyond the second warn.
_ASCENT_HARD = 1e-8
_ASCENT_SOFT = 1e-10
# Line-search improvements below this are treated as a zero step.
_LS_IMPROVEMENT_TOL = 1e-13
# The rival attains the true model when no divergence on the domain exceeds this
# share of the all-zero rival's (rounding leaves 1e-31 Gaussian, 1e-15 logistic).
_ATTAIN_TOL = 1e-12
# Bracket width at which the root find of the line-search slope stops.
_STEP_XTOL = 1e-6
# The closed-form Gaussian step is kept when the slope there is at most this
# share of the slope at 0 (rounding leaves about 1e-13).
_GAUSSIAN_STEP_SLOPE_TOL = 1e-9
# Housekeeping schedule, step 5 of the module docstring.
_COLLAPSE_RADIUS_SHARE = 0.05
_COLLAPSE_RADIUS_EXPONENT = 0.65
_ANCHOR_WEIGHT_EXPONENT = 0.8
_PRUNE_REL = 0.1


@dataclass(frozen=True)
class AlgoConfig:
    """Outer-loop stopping rule: efficiency target and iteration budget."""

    delta: float = 0.99
    max_iterations: int = 500

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class RegularizationConfig:
    """Mixing weight and regular reference design for the regularized criterion."""

    gamma: float = 0.05
    xi_tilde: Design | None = None  # None: uniform on d2+1 equispaced points

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie strictly between 0 and 1")


@dataclass(frozen=True)
class IterationRecord:
    """State of one outer iteration, taken before the design update."""

    n: int
    design: Design
    beta2_hat: np.ndarray
    value: float
    best_point: np.ndarray
    psi_max: float
    alpha: float
    efficiency: float
    singular_flag: bool

    @property
    def support_size(self) -> int:
        return self.design.size


@dataclass(frozen=True)
class RunResult:
    """Final certified design plus the full iteration history."""

    final_design: Design
    final_value: float
    final_efficiency: float
    history: tuple[IterationRecord, ...]
    termination_reason: str
    regularized: bool = False
    gamma: float | None = None

    def to_dict(self) -> dict:
        return {
            "final_design": self.final_design.as_dict(),
            "final_value": self.final_value,
            "final_efficiency": self.final_efficiency,
            "termination_reason": self.termination_reason,
            "regularized": self.regularized,
            "gamma": self.gamma,
            "iterations": [
                {
                    "n": r.n,
                    "value": r.value,
                    "psi_max": r.psi_max,
                    "alpha": r.alpha,
                    "efficiency": r.efficiency,
                    "support_size": r.support_size,
                    "singular_flag": r.singular_flag,
                    "beta2_hat": r.beta2_hat.tolist(),
                    "best_point": r.best_point.tolist(),
                    "design": r.design.as_dict(),
                }
                for r in self.history
            ],
        }


CSV_HEADER = "n,value,psi_max,alpha,U,support_size"


def iteration_csv_line(record: IterationRecord) -> str:
    return ",".join([
        str(record.n),
        repr(float(record.value)),
        repr(float(record.psi_max)),
        repr(float(record.alpha)),
        repr(float(record.efficiency)),
        str(record.support_size),
    ])


def iterations_to_csv(history) -> str:
    lines = [CSV_HEADER]
    lines.extend(iteration_csv_line(r) for r in history)
    return "\n".join(lines) + "\n"


def efficiency_bound(value: float, psi_max: float) -> float:
    """Lower bound U = value / (value + psi_max) on the design's efficiency.

    The criterion is concave, so optimum <= value + psi_max and hence
    value / optimum >= U. Whenever psi_max >= 0 this is a number in [0, 1]
    (0 for a zero value with a positive gap, a true if weak bound); it is
    the stopping certificate of the loop.
    """
    total = value + psi_max
    if total <= 0.0:
        raise UndefinedEfficiencyError(
            "no divergence on the domain is positive; the rival model attains "
            "the true model and no efficiency bound exists")
    return value / total


def psi_scan(pair: ModelPair, design: Design, beta2_hat, space: DesignSpace,
             grid_size: int = PSI_GRID_SIZE, grid_divergence=None):
    """psi(x) at the candidate maximizers: the grid, the support points and,
    for a Gaussian pair, the roots of r' inside the domain, where r^2 peaks.

    The Gaussian maximum is thus exact; for other pairs it falls short by at
    most h^2/8 * max|psi''|, h the grid spacing. A caller that scans the
    same grid again and again passes `grid_divergence`, the grid's
    `pair.divergence_evaluator`; the values are the same floats either way.
    Returns (points, psi); the support rows start at grid_size.
    """
    grid = space.grid(grid_size)
    parts = [design.points]
    if isinstance(pair, GaussianRegressionPair):
        parts.append(pair.residual_critical_points(beta2_hat, space.lower[0], space.upper[0]))
    if grid_divergence is None:
        points = np.vstack([grid, *parts])
        values = pair.divergence(points, beta2_hat)
    else:
        candidates = np.vstack(parts)
        points = np.vstack([grid, candidates])
        values = np.concatenate([grid_divergence(np.asarray(beta2_hat, dtype=float)),
                                 pair.divergence(candidates, beta2_hat)])
    average = design.weights @ values[grid_size:grid_size + design.size]
    return points, values - average


def best_support_candidate(pair: ModelPair, design: Design, beta2_hat,
                           space: DesignSpace, grid_divergence=None):
    """(x, psi) at the top of `psi_scan`; x is copied so records keep no scan."""
    points, psi = psi_scan(pair, design, beta2_hat, space,
                           grid_divergence=grid_divergence)
    i = int(np.argmax(psi))
    return points[i].copy(), float(psi[i])


def line_search_alpha(pair: ModelPair, design: Design, x_new, start: InnerSolution,
                      inner_config: InnerConfig = InnerConfig(), *,
                      reg: RegularizationConfig | None = None):
    """Exact step size: maximize g(a) = criterion((1-a) design + a delta_x).

    g is the minimum over beta2 of functions linear in a, so it is concave,
    and by Danskin's theorem slope(a) = (1-gamma) [I(x, b_a) - avg_design
    I(., b_a)], read off the inner minimizer b_a at a (gamma = 0 unless
    regularizing), is a supergradient of g at a; it is the derivative
    wherever b_a is unique. For a concave g the sign of any supergradient
    tells on which side of a the maximum lies: slope(0) <= 0 means no ascent
    step, slope(1) >= 0 means the full step, and otherwise the step is the
    sign change of slope on (0, 1), found with `brentq`.

    A plain Gaussian search (no `reg`) from a regular start inside the box
    first takes the step in closed form. The criterion is then T-optimality
    over 2 sigma2 (Atkinson and Fedorov 1975), and moving mass a to x_new
    is a rank-one update of weighted least squares: with p = I(x_new, b_0),
    q = avg_design I(., b_0) and h = u' A0^-1 u the leverage of x_new's
    rival row u under A0 = X' diag(w0) X, the unconstrained criterion along
    the segment is
    (1-a) q + a (1-a) p / (1 - k a), k = 1 - h, whose slope
    p (1 - 2a + k a^2) / (1 - k a)^2 - q vanishes at
    alpha = (p - q) / ((p - q k) (1 + sqrt(p h / (p - q k)))).
    The one solve at alpha settles it. If the solution there is regular and
    inside the box, the box does not bind at alpha, so slope(alpha) is the
    derivative of g itself; once it is zero to 1e-9 of slope(0), alpha is
    where the concave g peaks. Otherwise (alpha outside (0, 1), a singular or
    boundary solution, or a slope left over) the root find above runs, and
    the solve at alpha stays among its trials.

    `start` is the inner solution on the design itself (blended with the
    reference when regularizing), so g(0) and b_0 are read off it and a = 0
    is never solved. Every other a is solved once, warm-started from the
    previous solve's minimizer. Every a in (0, 1) weights the same points
    (the support and x_new, merged where they coincide, and the reference's
    when regularizing), so those solves share one prepared `Support`; a = 1
    is the point mass. Returns (alpha, the inner solution at alpha);
    (0.0, start) signals that no ascent step exists.
    """
    divergence = pair.divergence_evaluator(np.append(design.points[:, 0], x_new))
    scale = 1.0 - (reg.gamma if reg is not None else 0.0)

    def gap(beta2) -> tuple[float, float]:
        row = divergence(beta2)  # the support, then x_new
        return row[-1], design.weights @ row[:-1]

    def with_slope(sol: InnerSolution) -> tuple[InnerSolution, float]:
        p, q = gap(sol.beta2_hat)
        return sol, scale * (p - q)

    points, w0, w1 = mixture_segment(design, x_new)
    interior = None  # the Support of every a in (0, 1), prepared at the first

    def solve_at(a: float) -> InnerSolution:
        nonlocal interior
        point_mass = a == 1.0
        mixed = (mix_design(design, x_new, a) if point_mass
                 else Design(design.space, points, (1.0 - a) * w0 + a * w1))
        if reg is not None:
            mixed = blend_designs(mixed, reg.xi_tilde, reg.gamma)
        if not point_mass and interior is None:
            interior = prepare_support(pair, mixed.points)
        return minimize_beta2(pair, mixed, inner_config, warm_start=warm,
                              support=None if point_mass else interior)

    p0, q0 = gap(start.beta2_hat)
    slope0 = scale * (p0 - q0)
    solved = {0.0: (start, slope0)}
    warm = start.beta2_hat

    def solve(a: float) -> tuple[InnerSolution, float]:
        nonlocal warm
        if a not in solved:
            solved[a] = with_slope(solve_at(a))
            warm = solved[a][0].beta2_hat
        return solved[a]

    if slope0 <= 0.0:
        return 0.0, start
    alpha = None
    if (isinstance(pair, GaussianRegressionPair) and reg is None
            and not (start.singular_flag or start.at_boundary)):
        interior = prepare_support(pair, points)
        trial = _gaussian_step(interior.rows, w0, w1, p0, q0)
        if 0.0 < trial < 1.0:
            sol, slope = solve(trial)
            if (not (sol.singular_flag or sol.at_boundary)
                    and abs(slope) <= _GAUSSIAN_STEP_SLOPE_TOL * slope0):
                alpha = trial
    if alpha is None:
        if solve(1.0)[1] >= 0.0:
            alpha = 1.0
        else:
            alpha = brentq(lambda a: solve(a)[1], 0.0, 1.0, xtol=_STEP_XTOL)
    sol = solve(alpha)[0]
    if sol.value - start.value <= _LS_IMPROVEMENT_TOL * max(1.0, abs(start.value)):
        return 0.0, start
    return alpha, sol


def _gaussian_step(rows: np.ndarray, w0: np.ndarray, w1: np.ndarray,
                   p: float, q: float) -> float:
    """The root in a of the Gaussian line-search slope
    p (1 - 2a + k a^2) / (1 - k a)^2 - q, k = 1 - h (see `line_search_alpha`):
    p = I(x_new, b_0) exceeds q, the w0-average of I(., b_0), and h is
    the leverage u' A0^-1 u of x_new's row u (the one w1 weights), with
    A0 = X' diag(w0) X and X = `rows`.

    h is the squared norm of the minimum-norm solution y of (sqrt(w0) X)' y = u,
    a least-squares solve on the matrix the inner solve factors. A rank test
    passed by rows of rounding size can overflow h; the step is then NaN,
    which no range check accepts.
    """
    u = rows[np.argmax(w1)]
    y = np.linalg.lstsq((np.sqrt(w0)[:, None] * rows).T, u, rcond=None)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        h = y @ y
        d = p - q * (1.0 - h)
        return float((p - q) / (d * (1.0 + np.sqrt(p * h / d))))


def default_reference_design(pair: ModelPair, space: DesignSpace) -> Design:
    """Uniform design on d2+1 equispaced points; the stock regular reference."""
    d2 = pair.theta2.dimension
    pts = np.linspace(space.lower[0], space.upper[0], d2 + 1)[:, None]
    design = Design(space, pts, np.full(d2 + 1, 1.0 / (d2 + 1)))
    rows = pair.rival_matrix(design.points)
    if not glm_is_regular(rows):
        raise DomainError("default reference design is not regular for this pair; "
                          "supply an explicit xi_tilde")
    return design


def _resolve_reference(pair: ModelPair, space: DesignSpace,
                       reg: RegularizationConfig) -> Design:
    if not isinstance(pair, PolynomialPair):  # as minimize_beta2 refuses it
        raise UnsupportedModelError("regularization applies to polynomial-predictor "
                                    "pairs only")
    xi_tilde = reg.xi_tilde or default_reference_design(pair, space)
    rows = pair.rival_matrix(xi_tilde.points)  # rank d2 needs d2 support points
    if not glm_is_regular(rows):
        raise DomainError("reference design has a singular rival design matrix")
    return xi_tilde


def _run_loop(pair: ModelPair, initial_design: Design, space: DesignSpace,
              algo: AlgoConfig, inner_cfg: InnerConfig,
              reg: RegularizationConfig | None, on_iteration=None) -> RunResult:
    report = validate_design(initial_design, space)
    if not report.ok:
        raise DomainError("invalid initial design: " + "; ".join(report.violations))

    regularizing = reg is not None
    if regularizing:
        xi_tilde = _resolve_reference(pair, space, reg)
        reg = replace(reg, xi_tilde=xi_tilde)
        gamma = reg.gamma
    else:
        gamma = 0.0

    r0 = _COLLAPSE_RADIUS_SHARE * space.diameter

    def solve_on(d: Design, warm) -> InnerSolution:
        target = blend_designs(d, reg.xi_tilde, gamma) if regularizing else d
        return minimize_beta2(pair, target, inner_cfg, warm_start=warm)

    design = initial_design
    inner = solve_on(design, None)
    grid_divergence = pair.divergence_evaluator(space.grid(PSI_GRID_SIZE))
    null_scale = float(np.max(grid_divergence(np.zeros(pair.dimension))))
    if not regularizing and inner.singular_flag:
        warnings.warn("initial design matrix is rank deficient; the plain loop "
                      "will hand off to the regularized criterion", stacklevel=2)
    history: list[IterationRecord] = []
    boundary_warned = False
    reason = MAX_ITERATIONS

    for n in range(1, algo.max_iterations + 1):
        value = inner.value
        if inner.at_boundary and not boundary_warned:
            warnings.warn(f"inner minimizer attained the parameter-box boundary "
                          f"at iteration {n}; consider enlarging the box",
                          stacklevel=2)
            boundary_warned = True

        x_n, psi_raw = best_support_candidate(pair, design, inner.beta2_hat, space,
                                              grid_divergence)
        psi_max = (1.0 - gamma) * psi_raw
        # value + psi_max is the largest divergence over the domain (mixed with
        # the reference's average when regularizing)
        attained = value + psi_max <= _ATTAIN_TOL * null_scale
        u = math.nan if attained else efficiency_bound(value, psi_max)

        alpha = 0.0
        stop = None
        # U is read off the inner minimizer, so it means nothing when the
        # rival attains the true model or the minimizer is not unique.
        if attained:
            stop = RIVAL_ATTAINS_TRUTH
        elif not regularizing and inner.singular_flag:
            stop = STALLED_REGULARIZED
        elif u > algo.delta:
            stop = EFFICIENCY_REACHED

        if stop is None:
            alpha, step_inner = line_search_alpha(pair, design, x_n, inner,
                                                  inner_cfg, reg=reg)
            if alpha == 0.0:
                if not regularizing and psi_max > _STALL_PSI_TOL * max(1.0, value):
                    stop = STALLED_REGULARIZED
                else:
                    stop = STALLED

        record = IterationRecord(
            n=n, design=design, beta2_hat=inner.beta2_hat, value=value,
            best_point=np.asarray(x_n, dtype=float), psi_max=psi_max,
            alpha=alpha, efficiency=u, singular_flag=inner.singular_flag)
        history.append(record)
        if on_iteration is not None:
            on_iteration(record)
        if len(history) >= 2:
            drop = history[-2].value - value
            if drop > _ASCENT_HARD:
                raise RuntimeError(
                    f"criterion decreased by {drop:.3e} at iteration {n}; "
                    "the exact line search guarantees ascent")
            if drop > _ASCENT_SOFT:
                warnings.warn(f"criterion dipped by {drop:.3e} at iteration {n}",
                              stacklevel=2)
        if stop is not None:
            reason = stop
            break

        mixed = mix_design(design, x_n, alpha)
        radius = r0 * n ** (-_COLLAPSE_RADIUS_EXPONENT)
        cleaned = collapse_support(mixed, x_n, radius, n ** _ANCHOR_WEIGHT_EXPONENT)
        cleaned = prune_support(cleaned, rel_threshold=_PRUNE_REL)
        if cleaned is mixed:
            next_inner = step_inner  # the line search solved this very mixture
        else:
            next_inner = solve_on(cleaned, inner.beta2_hat)
            if (next_inner.value < value - 1e-13 * max(1.0, abs(value))
                    and step_inner.value > next_inner.value):
                # Housekeeping moved the support too far; keep the raw mixture.
                cleaned, next_inner = mixed, step_inner
        design, inner = cleaned, next_inner

    last = history[-1]
    return RunResult(
        final_design=last.design,
        final_value=last.value,
        final_efficiency=last.efficiency,
        history=tuple(history),
        termination_reason=reason,
        regularized=regularizing,
        gamma=reg.gamma if regularizing else None,
    )


def run_first_order(pair: ModelPair, initial_design: Design, space: DesignSpace,
                    algo: AlgoConfig = AlgoConfig(),
                    inner_config: InnerConfig = InnerConfig(),
                    on_iteration=None) -> RunResult:
    """Run the plain exchange loop until the efficiency bound passes delta.

    Stops with reason "stalled-regularized" when a singularity trigger fires
    (a singular inner solve, or a zero step with a positive divergence gap);
    rerun with `run_regularized` from there. A rival that attains the true
    model stops it with "rival-attains-truth" and efficiency NaN.
    """
    return _run_loop(pair, initial_design, space, algo, inner_config, None,
                     on_iteration)


def run_regularized(pair: ModelPair, initial_design: Design, space: DesignSpace,
                    algo: AlgoConfig, inner_config: InnerConfig,
                    reg: RegularizationConfig, on_iteration=None) -> RunResult:
    """Exchange loop on the regularized criterion I_gamma.

    Every inner solve runs on (1-gamma) xi_n + gamma xi_tilde, which is
    regular by construction; the reported gap and stopping bound use the
    scaled derivative (1-gamma) psi, so the certificate stays valid at
    singular optima.
    """
    return _run_loop(pair, initial_design, space, algo, inner_config, reg,
                     on_iteration)

"""First-order exchange algorithm for min-divergence optimal designs.

One iteration, given the current design xi_n:

1. inner solve: beta2_n minimizing the averaged divergence (bounded Newton,
   warm-started from the previous iterate's solution);
2. best-point search: x_n maximizing psi over the domain, read off
   `psi_scan`, the scan the certificate uses (exact for Gaussian pairs);
3. stopping check: the efficiency bound U = [1 + psi_max / value]^{-1},
   a lower bound on value / optimum, is evaluated here, after the
   best-point search and before any further work. A rival that attains
   the true model stops the run first, a singular inner solve the plain
   loop next; otherwise the run stops once U exceeds the target delta;
4. step size: exact line search of the criterion along the segment
   (1-a) xi_n + a delta_{x_n} (golden section; the criterion is concave
   along the segment, so the scan is valid);
5. housekeeping: support points near x_n are collapsed to a barycenter
   whose radius shrinks like n^-0.65 while the anchor's barycenter weight
   grows like n^0.8, then low-weight points are pruned. A guard re-solves
   the cleaned design and falls back to the raw mixture if cleanup would
   break the monotone-ascent guarantee of the exact line search.

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

from .designs import (Design, DesignSpace, blend_designs, collapse_support,
                      mix_design, prune_support, validate_design)
from .errors import DomainError, UndefinedEfficiencyError
from .inner import InnerConfig, InnerSolution, minimize_beta2
from .models import (GaussianRegressionPair, ModelPair, glm_is_regular, kl_average,
                     kl_pointwise)

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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class AlgoConfig:
    """Outer-loop knobs: stopping target, line search, housekeeping schedule."""

    delta: float = 0.99
    max_iterations: int = 500
    line_search_tolerance: float = 1e-3
    collapse_radius_base: float | None = None  # None: 0.05 x domain diameter
    collapse_radius_exponent: float = 0.65
    anchor_weight_exponent: float = 0.8
    prune_abs_threshold: float = 1e-4
    prune_rel_threshold: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.line_search_tolerance <= 0:
            raise ValueError("line_search_tolerance must be positive")
        if self.collapse_radius_base is not None and self.collapse_radius_base <= 0:
            raise ValueError("collapse_radius_base must be positive")
        if self.collapse_radius_exponent <= 0 or self.anchor_weight_exponent <= 0:
            raise ValueError("collapse exponents must be positive")
        if self.prune_abs_threshold < 0 or self.prune_rel_threshold < 0:
            raise ValueError("prune thresholds must be >= 0")


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


def directional_derivative_psi(pair: ModelPair, design: Design, beta2_hat, x) -> float:
    """Gateaux derivative of the criterion at `design` toward delta_x:
    the pointwise divergence at x minus its design average."""
    return kl_pointwise(pair, x, beta2_hat) - kl_average(pair, design, beta2_hat)


def efficiency_bound(value: float, psi_max: float) -> float:
    """Lower bound U = [1 + psi_max / value]^{-1} on the design's efficiency.

    The criterion is concave, so optimum <= value + psi_max and hence
    value / optimum >= U. Whenever psi_max >= 0 this is a number in (0, 1];
    it is the stopping certificate of the loop.
    """
    if value <= 0.0:
        raise UndefinedEfficiencyError(
            "criterion value is not positive; the rival model attains the true "
            "model and no efficiency bound exists")
    return 1.0 / (1.0 + psi_max / value)


def psi_scan(pair: ModelPair, design: Design, beta2_hat, space: DesignSpace,
             grid_size: int = PSI_GRID_SIZE):
    """psi(x) at the candidate maximizers: the grid, the support points and,
    for a Gaussian pair, the roots of r' inside the domain, where r^2 peaks.

    The Gaussian maximum is thus exact; for other pairs it falls short by at
    most h^2/8 * max|psi''|, h the grid spacing. Returns (points, psi); the
    support rows start at grid_size.
    """
    parts = [space.grid(grid_size), design.points]
    if isinstance(pair, GaussianRegressionPair):
        parts.append(pair.residual_critical_points(beta2_hat, space.lower[0], space.upper[0]))
    points = np.vstack(parts)
    values = pair.divergence(points, beta2_hat)
    average = design.weights @ values[grid_size:grid_size + design.size]
    return points, values - average


def best_support_candidate(pair: ModelPair, design: Design, beta2_hat,
                           space: DesignSpace):
    """(x, psi) at the top of `psi_scan`; x is copied so records keep no scan."""
    points, psi = psi_scan(pair, design, beta2_hat, space)
    i = int(np.argmax(psi))
    return points[i].copy(), float(psi[i])


def line_search_alpha(pair: ModelPair, design: Design, x_new,
                      inner_config: InnerConfig = InnerConfig(), *,
                      tolerance: float = 1e-3,
                      reg: RegularizationConfig | None = None,
                      warm_start=None,
                      value_at_zero: float | None = None):
    """Exact step size: maximize g(a) = criterion((1-a) design + a delta_x).

    Golden-section search on [0, 1]; the criterion is concave and the path
    is linear in a, so g is concave and the bracketing is valid. Each inner
    solve is warm-started from the previous evaluation's minimizer. Returns
    (alpha, g(alpha)); alpha = 0.0 signals that no ascent step exists.
    """
    warm = {"beta": warm_start}

    def g(a: float) -> float:
        mixed = mix_design(design, x_new, a)
        if reg is not None:
            mixed = blend_designs(mixed, reg.xi_tilde, reg.gamma)
        sol = minimize_beta2(pair, mixed, inner_config, warm_start=warm["beta"])
        warm["beta"] = sol.beta2_hat
        return sol.value

    g0 = g(0.0) if value_at_zero is None else float(value_at_zero)
    best_a, best_g = 0.0, g0
    a, b = 0.0, 1.0
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = g(x1), g(x2)
    for xi, fi in ((x1, f1), (x2, f2)):
        if fi > best_g:
            best_a, best_g = xi, fi
    while (b - a) > tolerance:
        if f1 >= f2:  # maximum lies in [a, x2]
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = g(x1)
            if f1 > best_g:
                best_a, best_g = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = g(x2)
            if f2 > best_g:
                best_a, best_g = x2, f2
    f_end = g(1.0)
    if f_end > best_g:
        best_a, best_g = 1.0, f_end
    if best_g - g0 <= _LS_IMPROVEMENT_TOL * max(1.0, abs(g0)):
        return 0.0, g0
    return best_a, best_g


def default_reference_design(pair: ModelPair, space: DesignSpace) -> Design:
    """Uniform design on d2+1 equispaced points; the stock regular reference."""
    d2 = pair.theta2.dimension
    pts = np.linspace(space.lower[0], space.upper[0], d2 + 1)[:, None]
    design = Design(space, pts, np.full(d2 + 1, 1.0 / (d2 + 1)))
    rows = pair.rival_matrix(design.points)
    if rows is not None and not glm_is_regular(rows):
        raise DomainError("default reference design is not regular for this pair; "
                          "supply an explicit xi_tilde")
    return design


def _resolve_reference(pair: ModelPair, space: DesignSpace,
                       reg: RegularizationConfig) -> Design:
    xi_tilde = reg.xi_tilde or default_reference_design(pair, space)
    rows = pair.rival_matrix(xi_tilde.points)  # rank d2 needs d2 support points
    if rows is not None and not glm_is_regular(rows):
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

    r0 = algo.collapse_radius_base
    if r0 is None:
        r0 = 0.05 * space.diameter

    def solve_on(d: Design, warm) -> InnerSolution:
        target = blend_designs(d, reg.xi_tilde, gamma) if regularizing else d
        return minimize_beta2(pair, target, inner_cfg, warm_start=warm)

    null_scale = float(np.max(pair.divergence(space.grid(PSI_GRID_SIZE),
                                              np.zeros(pair.dimension))))

    design = initial_design
    inner = solve_on(design, None)
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

        x_n, psi_raw = best_support_candidate(pair, design, inner.beta2_hat, space)
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
            alpha, _ = line_search_alpha(
                pair, design, x_n, inner_cfg,
                tolerance=algo.line_search_tolerance, reg=reg,
                warm_start=inner.beta2_hat, value_at_zero=value)
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
        radius = r0 * n ** (-algo.collapse_radius_exponent)
        cleaned = collapse_support(mixed, x_n, radius, n ** algo.anchor_weight_exponent)
        cleaned = prune_support(cleaned, algo.prune_abs_threshold,
                                algo.prune_rel_threshold)
        next_inner = solve_on(cleaned, inner.beta2_hat)
        if cleaned is not mixed and next_inner.value < value - 1e-13 * max(1.0, abs(value)):
            # Housekeeping moved the support too far; keep the raw mixture.
            alt_inner = solve_on(mixed, inner.beta2_hat)
            if alt_inner.value > next_inner.value:
                cleaned, next_inner = mixed, alt_inner
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

"""First-order exchange algorithm for min-divergence optimal designs.

One iteration, given the current design xi_n:

1. inner solve: beta2_n minimizing the averaged divergence (bounded Newton,
   made by the step that produced xi_n, from that step's beta2);
2. best-point search: x_n at the argmax of `psi_scan`, the scan the
   certificate reads too (`best_support_candidate`). A Gaussian pair's psi
   peaks at an end of the domain or a root of r', so its scan is the
   support, the ends and those roots, with no grid, and is exact; a
   logistic pair's is the `PSI_GRID_SIZE`-node grid (`psi_grid`, so a
   hand-off's regularized run scans the plain run's) followed by the
   support, whose divergence it reads off step 1's solution (its
   `pointwise`, whose leading rows are the support's: a regularized solve
   runs on the blend with the reference, whose points follow the
   support's);
3. stopping check: the efficiency bound U = value / (value + psi_max),
   a lower bound on value / optimum, is evaluated here, after the
   best-point search and before any further work. A rival that attains
   the true model stops the run first, a singular inner solve the plain
   loop next; otherwise the run stops once U exceeds the target delta;
4. step, chosen by the pair's family, one solver each, in a module of its
   own:
   - a Gaussian pair re-solves the weights on the support, x_n and the
     other candidates of step 2 where psi > 0 (read off step 2's scan) by
     the minimax dual restricted to those points, and a point of zero
     weight leaves (`gaussian_step.corrective_step`, a fully corrective
     step);
   - a logistic pair takes the exact line search of the criterion along the
     segment (1-a) xi_n + a delta_{x_n} (`logistic_step.line_search_alpha`),
     from step 1's solution.
   Either way the step returns its design with that design's inner
   solution, and the next iteration starts from them. A step that does not
   raise the criterion beyond rounding is a zero step, and it ends the run
   "stalled".

Singular problems (non-unique inner minimizer) make the directional
derivative meaningless, so the plain loop stops with reason
"stalled-regularized" at a singular inner solve, its one trigger (the rival
matrix on the support is rank deficient, which covers a support smaller than
d2). `run_regularized` then optimizes the regularized criterion
I_gamma(xi) = I[(1-gamma) xi + gamma xi_tilde], whose directional
derivative psi_gamma(x; xi) = (1-gamma) * [I(x, b) - avg_xi I(., b)] with
b = beta2((1-gamma) xi + gamma xi_tilde) is well defined at any design.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .designs import Design, DesignSpace, _value_type, validate_design
from .errors import DomainError, UndefinedEfficiencyError, UnsupportedModelError
from .gaussian_step import corrective_step
from .inner import (InnerConfig, Support, _criterion_design, minimize_beta2,
                    prepare_support, refuse_negative_weights)
from .logistic_step import line_search_alpha
from .models import GaussianRegressionPair, ModelPair, PolynomialPair, glm_is_regular

EFFICIENCY_REACHED = "efficiency-reached"
MAX_ITERATIONS = "max-iterations"
STALLED_REGULARIZED = "stalled-regularized"
STALLED = "stalled"
RIVAL_ATTAINS_TRUTH = "rival-attains-truth"
PSI_GRID_SIZE = 2001  # grid nodes of the certificate's and the logistic loop's psi scan

# The rival attains the true model when no divergence on the domain exceeds this
# share of the all-zero rival's (rounding leaves 1e-31 Gaussian, 1e-15 logistic).
_ATTAIN_TOL = 1e-12


@dataclass(frozen=True)
class AlgoConfig:
    """Outer-loop stopping rule: efficiency target and iteration budget."""

    delta: float = 0.99
    max_iterations: int = 500

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("max_iterations must be an integer >= 1")


@dataclass(frozen=True)
class RegularizationConfig:
    """Mixing weight and regular reference design for the regularized criterion."""

    gamma: float = 0.05
    xi_tilde: Design | None = None  # None: uniform on d2+1 equispaced points

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie strictly between 0 and 1")


@_value_type
@dataclass(frozen=True)
class IterationRecord:
    """State of one outer iteration, taken before the design update.

    `alpha` is the step's size for a logistic pair and, for a Gaussian pair,
    the weight the new weights put on `best_point`; it is 0.0 when the
    iteration takes no step.
    """

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


@_value_type
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


# (pair, (lower, upper, size), Support) of the last grid asked for; one entry,
# read once per call, so a caller always gets the grid of its own request
_psi_grid = [None]


def psi_grid(pair: ModelPair, space: DesignSpace, size: int) -> Support:
    """The `inner.Support` of `space.grid(size)`, kept for the last (pair,
    lower, upper, size) asked for only, as a run, its hand-off and a
    certificate ask for it in turn; a grid kept per pair would grow with the
    pairs a caller keeps. The entry holds the pair, matched by identity, so
    no other pair takes its id; a pair is immutable, so the grid never goes
    stale."""
    key, last = (space.lower.tobytes(), space.upper.tobytes(), size), _psi_grid[0]
    if last is None or last[0] is not pair or last[1] != key:
        last = _psi_grid[0] = (pair, key, prepare_support(pair, space.grid(size)))
    return last[2]


def psi_scan(pair: ModelPair, design: Design, beta2_hat, space: DesignSpace,
             grid: Support | None, *, pointwise: np.ndarray | None = None):
    """psi(x) = I(x, beta2_hat) - avg_design I(., beta2_hat) on the rows of
    the scan the loop (`best_support_candidate`) and the certificate
    (`verify.equivalence_check`) both read: the nodes of `grid`, a prepared
    Support (`psi_grid`), then the design's support points, then, for a
    Gaussian pair, the domain's ends and the roots of r'. Returns (points,
    psi).

    A Gaussian pair's r^2 peaks at an end or a root of r', so its maximum
    is exact without a grid, which only its certificate scans; its support,
    ends and roots take one `pair.divergence` call. A logistic pair's
    maximum falls short by at most h^2/8 * max|psi''|, h the grid spacing;
    its support rows are the leading rows of `pointwise`, the
    `InnerSolution.pointwise` of the solve that gave beta2_hat, run on the
    design or on a blend that begins with the design's points; when None
    they are evaluated here by `pair.divergence`."""
    if isinstance(pair, GaussianRegressionPair):
        roots = pair.residual_critical_points(beta2_hat, space.lower[0], space.upper[0])
        points = np.vstack([design.points, space.lower, space.upper, roots])
        values = pair.divergence(points, beta2_hat)
    else:
        if pointwise is None:
            pointwise = pair.divergence(design.points, beta2_hat)
        points, values = design.points, pointwise[:design.size]
    average = design.weights @ values[:design.size]
    if grid is not None:
        points = np.concatenate([grid.points, points])
        values = np.concatenate([grid.pointwise(beta2_hat), values])
    return points, values - average


def best_support_candidate(pair: ModelPair, design: Design, beta2_hat,
                           space: DesignSpace, grid: Support | None, *,
                           pointwise: np.ndarray | None = None):
    """(x, psi, scan) at the top of `psi_scan` on the same arguments: the
    first row of the largest psi (or of the first NaN), as `np.argmax`
    picks it, and scan its (points, psi), whose rows `corrective_step` adds
    points from; x is copied so records keep no scan."""
    points, psi = psi_scan(pair, design, beta2_hat, space, grid, pointwise=pointwise)
    i = int(np.argmax(psi))
    return points[i].copy(), float(psi[i]), (points, psi)


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


def _solve_criterion(pair: ModelPair, design: Design, space: DesignSpace,
                     inner_config: InnerConfig, reg: RegularizationConfig | None):
    """The first solve of a run or a certificate: (reg with its reference
    resolved on `space`, the inner solution of `_criterion_design`). A
    weight of the design that is negative or NaN raises `DomainError`, as
    does a reference `_resolve_reference` refuses."""
    if reg is not None:
        refuse_negative_weights(design.weights)  # the blend's weights may hide it
        reg = replace(reg, xi_tilde=_resolve_reference(pair, space, reg))
    return reg, minimize_beta2(pair, _criterion_design(design, reg), inner_config)


def _resolve_reference(pair: ModelPair, space: DesignSpace,
                       reg: RegularizationConfig) -> Design:
    if not isinstance(pair, PolynomialPair):  # as minimize_beta2 refuses it
        raise UnsupportedModelError("regularization applies to polynomial-predictor "
                                    "pairs only")
    if reg.xi_tilde is None:
        return default_reference_design(pair, space)
    report = validate_design(reg.xi_tilde, space)
    if not report.ok:
        raise DomainError("invalid reference design: " + "; ".join(report.violations))
    rows = pair.rival_matrix(reg.xi_tilde.points)  # rank d2 needs d2 support points
    if not glm_is_regular(rows):
        raise DomainError("reference design has a singular rival design matrix")
    return reg.xi_tilde


def _run_loop(pair: ModelPair, initial_design: Design, space: DesignSpace,
              algo: AlgoConfig, inner_cfg: InnerConfig,
              reg: RegularizationConfig | None, on_iteration=None) -> RunResult:
    report = validate_design(initial_design, space)
    if not report.ok:
        raise DomainError("invalid initial design: " + "; ".join(report.violations))

    design = initial_design
    reg, inner = _solve_criterion(pair, design, space, inner_cfg, reg)
    regularizing = reg is not None
    gamma = reg.gamma if regularizing else 0.0
    zero = np.zeros(pair.dimension)
    if isinstance(pair, GaussianRegressionPair):
        # psi peaks at an end or a root of r': the scan needs no grid, and the
        # all-zero rival's divergence m1^2 / (2 sigma2) peaks at an end or a
        # root of m1', so its maximum there is exact
        peaks = pair.residual_critical_points(zero, space.lower[0], space.upper[0])
        grid = None
        null_row = pair.divergence(np.vstack([space.lower, space.upper, peaks]), zero)
    else:
        grid = psi_grid(pair, space, PSI_GRID_SIZE)
        null_row = grid.pointwise(zero)
    null_scale = float(np.max(null_row))
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

        x_n, psi_raw, candidates = best_support_candidate(
            pair, design, inner.beta2_hat, space, grid, pointwise=inner.pointwise)
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
            if isinstance(pair, GaussianRegressionPair):
                alpha, step_design, step_inner = corrective_step(
                    pair, design, x_n, inner, candidates, inner_cfg, reg=reg)
            else:
                alpha, step_design, step_inner = line_search_alpha(
                    pair, design, x_n, inner, inner_cfg, reg=reg)
            if step_inner is inner:
                stop = STALLED

        record = IterationRecord(
            n=n, design=design, beta2_hat=inner.beta2_hat, value=value,
            best_point=np.asarray(x_n, dtype=float), psi_max=psi_max,
            alpha=alpha, efficiency=u, singular_flag=inner.singular_flag)
        history.append(record)
        if on_iteration is not None:
            on_iteration(record)
        if stop is not None:
            reason = stop
            break

        design, inner = step_design, step_inner

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

    Stops with reason "stalled-regularized" when the inner solve's singular
    flag is set, the only hand-off trigger; rerun with `run_regularized`
    from there. A step that does not raise the criterion beyond rounding
    stops it with "stalled". A rival that attains the true model stops it
    with "rival-attains-truth" and efficiency NaN.
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
    singular optima. A given xi_tilde that `validate_design` refuses on the
    space, or whose rival matrix is singular, raises `DomainError`.
    """
    return _run_loop(pair, initial_design, space, algo, inner_config, reg,
                     on_iteration)

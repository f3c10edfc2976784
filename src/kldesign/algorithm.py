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
4. step, chosen by the pair's family, one solver each:
   - a Gaussian pair re-solves the weights (`corrective_step`): the best
     design on the support, x_n and the other candidates of step 2 where
     psi > 0 (read off step 2's scan) comes from the minimax dual
     restricted to those points (`restricted_dual`), stated in residual
     units, where it is a quadratic program with linear constraints, solved
     exactly by a small active-set method. It starts, where that point is
     feasible, from the levelled reference of Remez's exchange read off r
     at step 1's minimizer (Remez 1934; Cheney 1966), often the optimum
     itself (every dual of the shipped Gaussian runs takes one KKT solve).
     Its multipliers are the weights, and a point of zero weight leaves.
     Each step is fully corrective (simplicial decomposition, von
     Hohenbalken 1977), at least as good as the exact line search below,
     and the new design is solved once, by its exact least-squares fit;
   - a logistic pair takes the exact line search of the criterion along the
     segment (1-a) xi_n + a delta_{x_n} (`line_search_alpha`); its dual has
     no such exact solve, and a general-purpose one measured slower than
     this search, so `restricted_dual` is Gaussian only. The criterion
     is concave along the segment, and each inner solve's minimizer gives
     its supergradient in a (Danskin), so the step is the root of that
     slope, bracketed by its signs at 0 and 1 and found by Brent's method,
     a port of `scipy.optimize.brentq`. The search starts from step
     1's solution, so a = 0 is not solved again, and it returns the mixture
     it steps to with its solution. Every trial a in (0, 1) weights the same
     points, so their rival matrix, divergence closures and rank test are
     prepared once per search (`inner.Support`).
   Either way the next iteration starts from the step's design and
   solution. A step that does not raise the criterion beyond rounding is a
   zero step, and it ends the run "stalled".

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

from ._lapack import solve, svd
from .designs import Design, DesignSpace, blend_designs, validate_design
from .errors import DomainError, UndefinedEfficiencyError, UnsupportedModelError
from .inner import InnerConfig, InnerSolution, Support, minimize_beta2, prepare_support
from .models import GaussianRegressionPair, ModelPair, PolynomialPair, glm_is_regular

EFFICIENCY_REACHED = "efficiency-reached"
MAX_ITERATIONS = "max-iterations"
STALLED_REGULARIZED = "stalled-regularized"
STALLED = "stalled"
RIVAL_ATTAINS_TRUTH = "rival-attains-truth"
PSI_GRID_SIZE = 2001  # grid nodes of the certificate's and the logistic loop's psi scan

# Step improvements below this share of the value are treated as a zero step.
_IMPROVEMENT_TOL = 1e-13
# The rival attains the true model when no divergence on the domain exceeds this
# share of the all-zero rival's (rounding leaves 1e-31 Gaussian, 1e-15 logistic).
_ATTAIN_TOL = 1e-12
# Bracket width at which the root find of the line-search slope stops; its
# relative share and step budget are brentq's.
_STEP_XTOL = 1e-6
_ROOT_RTOL = 4 * np.finfo(float).eps
_ROOT_MAX_STEPS = 100
# A corrective-step candidate within this share of the domain width of a
# point already taken is that point: a root of r' that converges to a support
# point lands within about 1e-11 of it, and a second row there only makes the
# restricted dual near singular.
_MERGE_TOL = 1e-9
# The active-set solve treats a multiplier, a step, or a step's approach to a
# row below this share of the largest of its kind as rounding; its step budget
# is a safety cap far above the few steps a dual takes.
_EPS = np.finfo(float).eps
_QP_ROUNDING = 64 * _EPS
_QP_MAX_STEPS = 500


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
    sign change of slope on (0, 1), found by Brent's method (`_brent_root`).

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

    def slope(sol: InnerSolution) -> float:
        row = slope_support.pointwise(sol.beta2_hat)  # the support, then x_new
        return scale * (row[-1] - design.weights @ row[:-1])

    interior = None  # the Support of every a in (0, 1), prepared at the first
    warm = start.beta2_hat
    slope0 = slope(start)
    solved = {0.0: (design, start, slope0)}

    def solve(a: float) -> tuple[Design, InnerSolution, float]:
        nonlocal interior, warm
        if a not in solved:
            point_mass = a == 1.0
            mixed = blend_designs(design, mass, a)
            target = mixed if reg is None else blend_designs(mixed, reg.xi_tilde,
                                                             reg.gamma)
            if not point_mass and interior is None:
                interior = (slope_support if np.array_equal(slope_support.points,
                                                            target.points)
                            else prepare_support(pair, target.points))
            sol = minimize_beta2(pair, target, inner_config, warm_start=warm,
                                 support=None if point_mass else interior)
            solved[a] = (mixed, sol, slope(sol))
            warm = sol.beta2_hat
        return solved[a]

    if slope0 <= 0.0:
        return 0.0, design, start
    if solve(1.0)[2] >= 0.0:
        alpha = 1.0
    else:
        alpha = _brent_root(lambda a: solve(a)[2], 0.0, 1.0, _STEP_XTOL)
    mixed, sol, _ = solve(alpha)
    if not _improves(sol, start):
        return 0.0, design, start
    return alpha, mixed, sol


def _brent_root(f, xpre: float, xcur: float, xtol: float) -> float:
    """A root of f between xpre and xcur, where f changes sign, by Brent's
    method (Brent 1973, ch. 4) step for step as `scipy.optimize.brentq`'s C
    routine takes it, so at the same points: xblk holds the other end of the
    bracket, and each step is the inverse linear interpolation (from two
    points) or quadratic extrapolation (from three) when that is shorter
    than half the previous step and stays inside the bracket, else a
    bisection, and never shorter than delta = (xtol + rtol |x|) / 2. It
    returns x once f(x) is 0 or the bracket is narrower than 2 delta, with
    rtol 4 eps, and raises `RuntimeError` after 100 steps; `ValueError`
    where f is NaN or has the same sign at both ends."""

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function is NaN at {x}; the root find cannot continue")
        return fx

    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("the function has the same sign at both ends")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAX_STEPS):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"the root find did not converge in {_ROOT_MAX_STEPS} steps")


def _improves(sol: InnerSolution, start: InnerSolution) -> bool:
    """Whether a step's solution improves on the start's beyond rounding."""
    return sol.value - start.value > _IMPROVEMENT_TOL * max(1.0, abs(start.value))


def _kkt_solve(active: np.ndarray, factor: np.ndarray, target: np.ndarray,
               z: np.ndarray, correction: np.ndarray, flat: float):
    """The minimum-norm solution (p, lambda) of a working set's KKT system for
    the objective |F z - y|^2 / 2 (F = `factor`, y = `target`): p minimizes
    |F (z + p) - y| subject to A p = `correction` (A = `active`), and lambda
    solves A' lambda = F' (F (z + p) - y), the gradient there. Returns
    (p, lambda, the rank of A).

    It is solved in factored form, so that no condition number is squared:
    the SVD of A splits p into its row-space part, fixed by the correction,
    and a null-space part Z u, where u is the minimum-norm least-squares
    solution of (F Z) u = y - F (z + p). A singular value of A below
    size * eps of the largest counts as zero, as in `numpy.linalg.lstsq`,
    so rows that depend on the others to rounding share their multiplier;
    one of F Z below `flat` is a flat direction, along which p does not move.
    """
    n = z.size
    if len(active):
        left, values, right = svd(active, full=True)
        rank = np.count_nonzero(values > _EPS * max(active.shape) * values[0])
    else:
        left, values, right, rank = np.zeros((0, 0)), np.zeros(0), np.eye(n), 0
    inverse = left[:, :rank] / values[:rank]  # A = left diag(values) right, to rank
    step = right[:rank].T @ (inverse.T @ correction)
    null = right[rank:].T
    if rank < n:
        reduced_left, reduced, reduced_right = svd(factor @ null)
        keep = reduced > flat
        misfit = target - factor @ (z + step)
        step = step + null @ (reduced_right[keep].T @ (
            (reduced_left[:, keep].T @ misfit) / reduced[keep]))
    gradient = factor.T @ (factor @ (z + step) - target)
    return step, inverse @ (right[:rank] @ gradient), rank


def _active_set_qp(factor, target, rows, bounds, z, working):
    """Minimize |F z - y|^2 / 2 (F = `factor`, y = `target`) subject to
    rows @ z >= bounds, by the primal active-set method (Nocedal and Wright,
    Algorithm 16.3) from the feasible z with the working set `working`
    (indices of rows active at z).

    Each step is the minimum-norm solution of the working set's KKT system
    (`_kkt_solve`); its second block asks A_W p = b_W - A_W z, 0 but for
    rounding, so every step also puts z back on the working rows. The system
    stays consistent where F has fewer rows than z has entries: the
    gradient F'(F z - y) has no component along the flat directions, and
    the minimum norm moves z along none of them. A ratio test stops the step
    at the first row it would cross (a row the step runs parallel to, to
    rounding, never blocks), and that row joins the working set. Where the
    step is zero (after a full step, with working rows of full rank, or
    below rounding) lambda are the multipliers: z is optimal when none is
    negative beyond rounding, and otherwise the most negative row leaves. A
    working set met again at a zero step means that the multipliers it
    dropped were rounding, so z is returned there. Returns z and one
    multiplier per row, zero off the final working set.
    """
    n = z.size
    norms = np.abs(rows).max(axis=1)
    flat = _EPS * max(factor.shape) * np.linalg.norm(factor)
    working = list(working)
    minimal = False  # whether z minimizes the objective on the working set
    met = set()  # the working sets at zero steps
    for _ in range(_QP_MAX_STEPS):
        slack = rows @ z - bounds
        step, multipliers, rank = _kkt_solve(rows[working], factor, target, z,
                                             -slack[working], flat)
        size = np.abs(step).max()
        if minimal or rank == n or size <= _QP_ROUNDING * np.abs(z).max():
            z = z + step
            i = int(np.argmin(multipliers)) if working else 0
            key = frozenset(working)
            if (not working or key in met
                    or multipliers[i] >= -_QP_ROUNDING * np.abs(multipliers).max()):
                out = np.zeros(len(rows))
                out[working] = np.maximum(multipliers, 0.0)
                return z, out
            met.add(key)
            del working[i]
            minimal = False
            continue
        toward = rows @ step
        blocking = toward < (-_QP_ROUNDING * size) * norms
        blocking[working] = False
        candidates = np.flatnonzero(blocking)
        ratios = np.maximum(slack[candidates], 0.0) / -toward[candidates]
        j = int(np.argmin(ratios)) if ratios.size else -1
        if j >= 0 and ratios[j] < 1.0:
            z = z + ratios[j] * step
            working.append(int(candidates[j]))
        else:
            z = z + step
            minimal = True
    raise RuntimeError("the active-set solve did not reach an optimal working set")


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


def _levelled_start(x: np.ndarray, rows: np.ndarray, eta1: np.ndarray,
                    residual: np.ndarray, box):
    """The levelled point of the Remez reference (`_remez_reference`) of
    d + 1 points, d the columns of `rows`, as a start (z, working set) of
    the residual-unit dual, or None where it is no feasible start.

    The levelled point (beta2, h) solves X_R beta2 + sign_R h = eta1_R on
    the reference R, with the signs of its residuals, flipped where h < 0,
    so that r_j = sign_j h there. It is a start where that solve succeeds,
    beta2 lies in the box and no other point has |r_j| > h; the working set
    is then the reference's rows.
    """
    m, d = rows.shape
    reference = _remez_reference(x, residual, d + 1)
    if reference is None:
        return None
    signs = np.where(residual[reference] < 0.0, -1.0, 1.0)
    try:
        z = solve(np.hstack([rows[reference], signs[:, None]]), eta1[reference])
    except np.linalg.LinAlgError:
        return None
    if z[-1] < 0.0:
        z[-1], signs = -z[-1], -signs
    beta, h = z[:-1], z[-1]
    outside = np.ones(m, dtype=bool)
    outside[reference] = False
    if not (np.all((beta >= box.lower) & (beta <= box.upper))
            and np.all(np.abs(eta1[outside] - rows[outside] @ beta) <= h)):
        return None
    return z, [j if sign > 0.0 else m + j for j, sign in zip(reference, signs)]


def restricted_dual(pair: ModelPair, points, warm_start=None, *,
                    reg: RegularizationConfig | None = None):
    """The best design on fixed points for a Gaussian pair, from the minimax
    dual restricted to them.

    The averaged divergence is linear in the weights and convex in beta2, so
    the largest criterion over designs on `points` is the minimum over
    (beta2 in the box, t) of (1-gamma) t + gamma avg_ref I(., beta2) subject to
    I(x_j, beta2) <= t for every point x_j (gamma and the reference design
    from `reg`, gamma = 0 without). At its solution the constraint
    multipliers sum to 1 - gamma, stationarity in beta2 is the inner
    first-order condition of the design they weight, and complementary
    slackness leaves a zero weight where I(x_j, beta2) < t. For a nested
    Gaussian pair the weights are those of the discrete Chebyshev
    approximation of the true mean by the rival span (Atkinson and Fedorov
    1975).

    A Gaussian pair has I(x_j, beta2) = r_j^2 / (2 sigma2), r_j =
    eta1_j - X_j beta2 the residual, so the dual is solved in residual units:
    over (beta2 in the box, s >= 0) minimize (1-gamma) s^2 / 2 +
    gamma sigma2 avg_ref I(., beta2), which is sigma2 times the objective
    above at t = s^2 / (2 sigma2), subject to the linear constraints
    -s <= r_j <= s. That is a quadratic program, solved exactly by
    `_active_set_qp` from a feasible point read off the residuals at
    `warm_start` clipped into the box (the box midpoint when None). For a
    nested pair, with no reference and a box that does not bind, the
    optimum is the levelled point of a reference of Remez's exchange
    (Remez 1934; Cheney 1966, ch. 2): d + 1 points where r alternates in
    sign with |r_j| = s, its extrema, which the corrective step's points
    hold. So the start is the levelled point of the reference read off r at
    the warm start (`_levelled_start`), with the reference's rows as the
    working set, where that point is feasible: its solve succeeds, beta2
    lies in the box and no other point has |r_j| above s. Otherwise the
    start is the warm start itself, s the largest |r_j| there, with the row
    of that largest residual as the working set. The active-set method is
    correct from either, so a levelled start that is not optimal, as where
    gamma > 0 or the box binds, costs steps, not accuracy. A point's
    multiplier is the sum of its two rows' multipliers, rescaled to sum to
    1 - gamma (unscaled they sum to (1-gamma) s, so all are zero where
    s = 0), and the value is the objective divided by sigma2. Neither the
    constraints, the objective nor the start depend on sigma2, on where the
    domain lies or on its direction, and scaling the true mean and the box
    scales the solution. Any other pair raises `UnsupportedModelError`: a
    logistic pair steps by `line_search_alpha`.

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
    # s - r_j >= 0, s + r_j >= 0, the box, s >= 0
    constraints = np.vstack([np.hstack([rows, ones]), np.hstack([-rows, ones]),
                             unit, -unit, np.eye(1, d + 1, d)])
    bounds = np.concatenate([eta1, -eta1, box.lower, -box.upper, [0.0]])
    residual = eta1 - rows @ beta
    start = _levelled_start(np.reshape(points, m), rows, eta1, residual, box)
    if start is None:
        j = int(np.argmax(np.abs(residual)))
        start = np.append(beta, abs(residual[j])), [j if residual[j] >= 0.0 else m + j]
    z, multipliers = _active_set_qp(factor, target, constraints, bounds, *start)
    # the box rows hold to rounding; those that bind hold exactly
    at_lower = multipliers[2 * m:2 * m + d] > 0.0
    at_upper = multipliers[2 * m + d:-1] > 0.0
    beta = np.where(at_lower, box.lower,
                    np.where(at_upper, box.upper, box.clip(z[:-1])))
    s = z[-1]
    multipliers = multipliers[:m] + multipliers[m:2 * m]
    total = float(np.sum(multipliers))
    if total > 0.0:
        multipliers = multipliers * ((1.0 - gamma) / total)
    value = (1.0 - gamma) * s * s * 0.5 / pair.sigma2
    if reg is not None:
        value += gamma * reg.xi_tilde.weights @ reference.pointwise(beta)
    return multipliers, beta, float(value)


def corrective_step(pair: ModelPair, design: Design, x_new, start: InnerSolution,
                    candidates, inner_config: InnerConfig = InnerConfig(), *,
                    reg: RegularizationConfig | None = None):
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
    iterate. Returns (the new weight at x_new, read by the same rule, the new
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
    target = new if reg is None else blend_designs(new, reg.xi_tilde, reg.gamma)
    sol = minimize_beta2(pair, target, inner_config)
    if not _improves(sol, start):
        return 0.0, design, start
    alpha = float(new.weights[np.abs(new.points[:, 0] - x_new[0]) <= merge].sum())
    return alpha, new, sol


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
    regularizing = reg is not None
    if regularizing:
        reg = replace(reg, xi_tilde=_resolve_reference(pair, space, reg))
        gamma = reg.gamma
        inner = minimize_beta2(pair, blend_designs(design, reg.xi_tilde, gamma), inner_cfg)
    else:
        gamma = 0.0
        inner = minimize_beta2(pair, design, inner_cfg)
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

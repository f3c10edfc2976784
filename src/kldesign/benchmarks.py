"""Built-in end-to-end fixtures and the acceptance checks behind `kl-design benchmark`.

Two problem fixtures are shipped:

* cubic vs quadratic Gaussian regression on [-1, 1]: the optimum is known
  analytically (support at the extrema of the degree-3 Chebyshev polynomial
  with weights 1/6, 1/3, 1/3, 1/6 and criterion value 1/16), which makes it
  a convergence benchmark with exact targets.
* two logistic regressions on [0, 1] whose rival predictor has no
  intercept: the optimum concentrates all mass at zero and is singular, so
  it exercises the regularized path. The true-model coefficients (1, 1, 1)
  are a documented implementation choice; the singular geometry holds for
  any nonzero intercept.

Beside them, `SyntheticFamily` is a fixed divergence family whose closed-form
averages show that the criterion is not continuous in the design.
"""

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algorithm import (EFFICIENCY_REACHED, STALLED_REGULARIZED, AlgoConfig,
                        RegularizationConfig, RunResult, run_first_order,
                        run_regularized)
from .designs import (AffineMap, Design, DesignSpace, blend_designs, transform_design,
                      wasserstein_distance)
from .inner import InnerConfig, least_squares_oracle, minimize_beta2
from .models import (GaussianRegressionPair, LogisticGlmPair, ModelPair, ParamBox,
                     _scalar_inputs, expit, glm_is_regular,
                     reparametrize_under_affine)
from .verify import CERTIFIED, equivalence_check, invariance_check

BENCHMARK_SEED = 20240817


# ---------------------------------------------------------------------------
# Fixtures


def cubic_quadratic_pair(bound: float = 5.0) -> GaussianRegressionPair:
    """True cubic mean x^3 vs rival quadratic span {1, x, x^2}, sigma2 = 1/2."""
    box = ParamBox([-bound] * 3, [bound] * 3)
    return GaussianRegressionPair([0.0, 0.0, 0.0, 1.0], [0, 1, 2],
                                  box, sigma2=0.5)


def cubic_quadratic_space() -> DesignSpace:
    return DesignSpace([-1.0], [1.0])


def cubic_quadratic_optimum() -> Design:
    """The analytic optimum: Chebyshev extrema with weights 1/6, 1/3, 1/3, 1/6."""
    return Design(cubic_quadratic_space(),
                  [[-1.0], [-0.5], [0.5], [1.0]],
                  [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])


def cubic_quadratic_start() -> Design:
    return Design(cubic_quadratic_space(),
                  [[-1.0], [-0.6], [0.1], [0.8]], [0.25] * 4)


OPTIMUM_VALUE = 1.0 / 16.0
OPTIMUM_BETA2 = np.array([0.0, 0.75, 0.0])


def logistic_pair() -> LogisticGlmPair:
    """True predictor 1 + x + x^2 vs intercept-free rival span {x, x^2}.

    The rival matches the true predictor anywhere but at x = 0, so the
    optimum puts all mass at zero and is singular there.
    """
    return LogisticGlmPair([1.0, 1.0, 1.0], [1, 2],
                           ParamBox([-10.0, -10.0], [10.0, 10.0]))


def logistic_space() -> DesignSpace:
    return DesignSpace([0.0], [1.0])


def logistic_reference_design() -> Design:
    return Design(logistic_space(), [[0.0], [1.0 / 3.0], [2.0 / 3.0], [1.0]],
                  [0.25] * 4)


def logistic_start_design() -> Design:
    return logistic_reference_design()


def benchmark_algo_config(delta: float = 0.99, seed: int = BENCHMARK_SEED,
                          max_iterations: int = 500) -> AlgoConfig:
    """Loop settings of the shipped fixtures. `seed` is ignored: no result
    depends on one; the parameter stays for callers that pass it."""
    return AlgoConfig(delta=delta, max_iterations=max_iterations)


def benchmark_inner_config() -> InnerConfig:
    return InnerConfig(local_tolerance=1e-9)


def verify_inner_config() -> InnerConfig:
    """Tighter inner solve for one-shot certificates."""
    return InnerConfig(local_tolerance=1e-10)


# ---------------------------------------------------------------------------
# Check harness


@dataclass
class CheckResult:
    name: str
    passed: bool
    duration: float
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{status}  {self.name}  [{self.duration:.1f}s]  {parts}"


class BenchmarkContext:
    """Caches the expensive runs that several checks share."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, maker):
        if key not in self._cache:
            self._cache[key] = maker()
        return self._cache[key]

    def benchmark_run(self) -> RunResult:
        return self._get("benchmark", lambda: run_first_order(
            cubic_quadratic_pair(), cubic_quadratic_start(), cubic_quadratic_space(),
            benchmark_algo_config(), benchmark_inner_config()))

    def transformed_run(self) -> RunResult:
        return self._get("transformed", self._make_transformed)

    def _make_transformed(self) -> RunResult:
        amap = AffineMap([2.0], [[4.0]])
        pair_z = reparametrize_under_affine(cubic_quadratic_pair(), amap)
        space_z = amap.image_box(cubic_quadratic_space())
        start_z = transform_design(cubic_quadratic_start(), amap)
        return run_first_order(pair_z, start_z, space_z,
                               benchmark_algo_config(delta=0.95),
                               benchmark_inner_config())

    def logistic_plain_run(self) -> RunResult:
        return self._get("logistic-plain", lambda: run_first_order(
            logistic_pair(), logistic_start_design(), logistic_space(),
            benchmark_algo_config(delta=0.995, max_iterations=50),
            benchmark_inner_config()))

    def logistic_regularized_run(self) -> RunResult:
        return self._get("logistic-reg", lambda: run_regularized(
            logistic_pair(), logistic_start_design(), logistic_space(),
            benchmark_algo_config(delta=0.995, max_iterations=10),
            benchmark_inner_config(),
            RegularizationConfig(gamma=0.05, xi_tilde=logistic_reference_design())))


# ---------------------------------------------------------------------------
# Acceptance checks


def check_benchmark_optimum(ctx: BenchmarkContext) -> CheckResult:
    """First-order run on the cubic-vs-quadratic pair reaches the known optimum."""
    t0 = time.perf_counter()
    run = ctx.benchmark_run()
    dt = time.perf_counter() - t0
    dist = wasserstein_distance(run.final_design, cubic_quadratic_optimum())
    beta_err = float(np.max(np.abs(run.history[-1].beta2_hat - OPTIMUM_BETA2)))
    lo = OPTIMUM_VALUE * (1.0 - 0.02)
    hi = OPTIMUM_VALUE * (1.0 + 0.001)
    iterations = len(run.history)
    passed = (run.termination_reason == EFFICIENCY_REACHED
              and dist <= 0.02
              and lo <= run.final_value <= hi
              and beta_err <= 1e-3
              and iterations <= 500
              and dt <= 60.0)
    return CheckResult(
        "benchmark optimum (delta=0.99)", passed, dt,
        {"reason": run.termination_reason, "iterations": iterations,
         "wasserstein": f"{dist:.5f}", "value": f"{run.final_value:.8f}",
         "beta2_err": f"{beta_err:.2e}"})


def check_optimum_certificate(ctx: BenchmarkContext) -> CheckResult:
    """Equivalence check certifies the analytic optimum; derivative vanishes
    exactly on the support and is strictly negative off it."""
    t0 = time.perf_counter()
    pair = cubic_quadratic_pair()
    optimum = cubic_quadratic_optimum()
    report = equivalence_check(pair, optimum, grid_size=2001,
                               inner_config=verify_inner_config())
    support_err = float(np.max(np.abs(report.support_psi)))
    offsets = np.array([-0.9, -0.6, -0.4, 0.4, 0.6, 0.9])
    nearest = np.argmin(np.abs(report.grid_points - offsets), axis=0)
    off_psi = report.grid_psi[nearest]
    dt = time.perf_counter() - t0
    passed = (report.verdict == CERTIFIED
              and support_err <= 1e-8
              and bool(np.all(off_psi < 0.0)))
    return CheckResult(
        "equivalence certificate at the analytic optimum", passed, dt,
        {"verdict": report.verdict, "support_psi_max": f"{support_err:.2e}",
         "offset_psi_max": f"{float(off_psi.max()):.4e}"})


def check_affine_invariance(ctx: BenchmarkContext) -> CheckResult:
    """Run on the rescaled domain reaches the mapped optimum; criterion values
    agree across the transform."""
    t0 = time.perf_counter()
    amap = AffineMap([2.0], [[4.0]])
    run = ctx.transformed_run()
    target = transform_design(cubic_quadratic_optimum(), amap)
    dist = wasserstein_distance(run.final_design, target)
    pair = cubic_quadratic_pair()
    inv_opt = invariance_check(pair, cubic_quadratic_optimum(), amap,
                               verify_inner_config())
    pulled_back = transform_design(run.final_design, amap.inverted())
    inv_final = invariance_check(pair, pulled_back, amap, verify_inner_config())
    dt = time.perf_counter() - t0
    passed = (run.termination_reason == EFFICIENCY_REACHED
              and dist <= 0.08
              and inv_opt.difference <= 1e-8
              and inv_final.difference <= 1e-8)
    return CheckResult(
        "affine invariance on [-2, 6] (delta=0.95)", passed, dt,
        {"reason": run.termination_reason, "wasserstein": f"{dist:.5f}",
         "value_gap_optimum": f"{inv_opt.difference:.2e}",
         "value_gap_final": f"{inv_final.difference:.2e}"})


def check_singular_logistic(ctx: BenchmarkContext,
                            output_dir: Path | None = None) -> CheckResult:
    """Plain run hands off on the singular logistic problem; the regularized
    run concentrates the mass at zero with a nonpositive scaled derivative."""
    t0 = time.perf_counter()
    plain = ctx.logistic_plain_run()
    reg_run = ctx.logistic_regularized_run()
    mass_at_zero = reg_run.final_design.weight_at([0.0])
    reg = RegularizationConfig(gamma=0.05, xi_tilde=logistic_reference_design())
    report = equivalence_check(logistic_pair(), reg_run.final_design,
                               grid_size=1001, inner_config=verify_inner_config(),
                               reg=reg)
    if output_dir is not None:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        (output_dir / "logistic_psi_curve.csv").write_text(report.psi_curve_csv())
    dt = time.perf_counter() - t0
    passed = (plain.termination_reason == STALLED_REGULARIZED
              and reg_run.termination_reason == EFFICIENCY_REACHED
              and len(reg_run.history) <= 10
              and mass_at_zero >= 1.0 - 0.05
              and report.psi_max <= 1e-6)
    return CheckResult(
        "singular logistic problem (gamma=0.05)", passed, dt,
        {"plain_reason": plain.termination_reason,
         "reg_reason": reg_run.termination_reason,
         "reg_iterations": len(reg_run.history),
         "mass_at_zero": f"{mass_at_zero:.4f}",
         "psi_gamma_max": f"{report.psi_max:.2e}"})


@dataclass(frozen=True)
class SyntheticFamily:
    """Fixed piecewise divergence family on [0, 1] with a scalar parameter.

        I(x, b) = 2((2b - 1)x + (1 - b))   for b <= 1
        I(x, b) = (b + 1) x^b              for b > 1

    Both branches equal 2x at b = 1. Every one-point design has criterion
    value 0, yet the average under the uniform measure on [0, 1] is
    identically 1; the closed-form averages below expose that gap without
    needing continuous-support designs. It is not a `ModelPair`: the inner
    solve and the loop refuse it.
    """

    theta2: ParamBox = field(default_factory=lambda: ParamBox([1e-6], [1000.0]))

    def __post_init__(self):
        if self.theta2.dimension != 1:
            raise ValueError("synthetic family has a single scalar parameter")

    def divergence(self, points, beta2) -> np.ndarray:
        x = _scalar_inputs(points)
        b = float(np.asarray(beta2, dtype=float).ravel()[0])
        if b <= 1.0:
            val = 2.0 * ((2.0 * b - 1.0) * x + (1.0 - b))
        else:
            val = (b + 1.0) * np.power(x, b)
        return np.maximum(val, 0.0)

    # Closed-form averages for the continuous fixtures.

    def truncated_uniform_average(self, beta2: float, n: int) -> float:
        """Average divergence under the uniform measure on [0, 1 - 1/n]."""
        if n < 2:
            raise ValueError("n must be >= 2")
        b = float(beta2)
        if b <= 1.0:
            return 1.0 - (2.0 * b - 1.0) / n
        return float((1.0 - 1.0 / n) ** b)

    def uniform_average(self, beta2: float) -> float:
        """Average divergence under the uniform measure on [0, 1]; equals 1."""
        return 1.0

    def truncated_uniform_criterion(self, n: int, box: ParamBox | None = None) -> float:
        """Infimum over the box of the truncated-uniform average (closed form).

        Both branches decrease in the parameter and agree at 1, so the average
        is decreasing over the whole box and the infimum sits at its upper end.
        """
        box = box or self.theta2
        return self.truncated_uniform_average(float(box.upper[0]), n)

    def uniform_criterion(self, box: ParamBox | None = None) -> float:
        """Infimum over the box of the uniform-[0,1] average; identically 1."""
        return 1.0


def check_discontinuity_gap(ctx: BenchmarkContext) -> CheckResult:
    """Closed-form averages of the synthetic family match quadrature, and the
    truncated-uniform criterion stays far below the uniform-limit value. After
    x = width * t^2 (dx / width = 2 t dt on [0, 1]) each integrand is a
    polynomial in t of degree at most 21, which 16-node Gauss-Legendre
    integrates exactly (Davis & Rabinowitz 1984)."""
    # imported here: no other code needs numpy.polynomial, which takes ~4 ms to load
    from numpy.polynomial.legendre import leggauss
    t0 = time.perf_counter()
    nodes, node_weights = leggauss(16)
    t, t_weights = 0.5 * (nodes + 1.0), 0.5 * node_weights  # mapped to [0, 1]
    fam = SyntheticFamily()
    quad_err = 0.0
    formula_err = 0.0
    for n in (2, 10, 100):
        width = 1.0 - 1.0 / n
        for b in (0.25, 0.5, 1.0, 1.5, 3.0, 10.0):
            got = fam.truncated_uniform_average(b, n)
            expected = 1.0 - (2.0 * b - 1.0) / n if b <= 1.0 else (1.0 - 1.0 / n) ** b
            formula_err = max(formula_err, abs(got - expected))
            numeric = float(t_weights @ (fam.divergence(width * t * t, [b]) * 2.0 * t))
            quad_err = max(quad_err, abs(got - numeric))
    uniform_err = max(abs(fam.uniform_average(b) - 1.0)
                      for b in (0.1, 1.0, 2.0, 50.0))
    box = ParamBox([1e-6], [1000.0])
    gap = abs(fam.truncated_uniform_criterion(100, box) - fam.uniform_criterion(box))
    dt = time.perf_counter() - t0
    passed = (formula_err == 0.0 and uniform_err == 0.0
              and quad_err <= 1e-9 and gap >= 0.9)
    return CheckResult(
        "criterion discontinuity on the synthetic family", passed, dt,
        {"formula_err": f"{formula_err:.1e}", "quadrature_err": f"{quad_err:.1e}",
         "criterion_gap": f"{gap:.6f}"})


def _kl_average(pair: ModelPair, design: Design, beta2) -> float:
    """Design-weighted average of the pointwise divergence."""
    return float(design.weights @ pair.divergence(design.points, beta2))


def _glm_fisher_information(rows, weights) -> np.ndarray:
    """Fisher information J = X^T W X of the rival GLM: `rows` is X, `weights`
    the diagonal of W, i.e. the divergence's second derivative in eta2."""
    x = np.atleast_2d(np.asarray(rows, dtype=float))
    j = x.T @ (np.asarray(weights, dtype=float)[:, None] * x)
    return 0.5 * (j + j.T)


def _random_gaussian_instance(rng: np.random.Generator):
    d2 = int(rng.integers(1, 5))
    exponents = sorted(rng.choice(6, size=d2, replace=False).tolist())
    degree = int(rng.integers(0, 6))
    beta1 = rng.normal(0.0, 1.0, size=degree + 1)
    sigma2 = float(rng.uniform(0.2, 2.0))
    box = ParamBox([-50.0] * d2, [50.0] * d2)
    pair = GaussianRegressionPair(beta1, exponents, box, sigma2)
    m = int(rng.integers(1, 9))
    pts = rng.uniform(-1.0, 1.0, size=(m, 1))
    w = rng.dirichlet(np.ones(m))
    design = Design(DesignSpace([-1.0], [1.0]), pts, w)
    return pair, design


def check_oracle_suite(ctx: BenchmarkContext) -> CheckResult:
    """Property suite: solver vs least-squares oracle, derivative centering,
    ascent monotonicity of logged runs, the two Wasserstein routes (the CDF
    formula and the monotone coupling), and the proportionality of the
    regularized derivative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240601)
    inner_cfg = InnerConfig(local_tolerance=1e-9)

    oracle_err = 0.0
    centering_err = 0.0
    count = 0
    while count < 100:
        pair, design = _random_gaussian_instance(rng)
        beta_ls, value_ls = least_squares_oracle(pair, design)
        if np.max(np.abs(beta_ls)) > 40.0:
            continue  # oracle solution must sit inside the parameter box
        count += 1
        sol = minimize_beta2(pair, design, inner_cfg)
        oracle_err = max(oracle_err, abs(sol.value - value_ls))
        psi_support = (pair.divergence(design.points, sol.beta2_hat)
                       - _kl_average(pair, design, sol.beta2_hat))
        centering_err = max(centering_err, abs(float(design.weights @ psi_support)))

    ascent_drop = 0.0
    for run in (ctx.benchmark_run(), ctx.transformed_run(),
                ctx.logistic_regularized_run()):
        values = np.array([r.value for r in run.history])
        if values.size > 1:
            ascent_drop = max(ascent_drop, float(np.max(values[:-1] - values[1:])))

    w_err = 0.0
    space = DesignSpace([-1.0], [1.0])
    for _ in range(50):
        d1 = _random_design(rng, space)
        d2 = _random_design(rng, space)
        w_err = max(w_err, abs(wasserstein_distance(d1, d2)
                               - _monotone_coupling_cost(d1, d2)))

    prop_err = _psi_gamma_proportionality_error(rng)

    dt = time.perf_counter() - t0
    passed = (oracle_err <= 1e-8
              and centering_err <= 1e-10
              and ascent_drop <= 1e-10
              and w_err <= 1e-9
              and prop_err <= 1e-10)
    return CheckResult(
        "oracle and property suite", passed, dt,
        {"wls_oracle_err": f"{oracle_err:.2e}",
         "psi_centering_err": f"{centering_err:.2e}",
         "ascent_drop": f"{ascent_drop:.2e}",
         "wasserstein_route_err": f"{w_err:.2e}",
         "psi_gamma_prop_err": f"{prop_err:.2e}"})


def _monotone_coupling_cost(d1: Design, d2: Design) -> float:
    """Cost of the monotone (north-west corner) coupling of the two sorted
    supports, an optimal transport plan on the line (Villani 2003, ch. 2): the
    order-1 Wasserstein distance, by no code `wasserstein_distance` uses."""
    o1, o2 = np.argsort(d1.points[:, 0]), np.argsort(d2.points[:, 0])
    x1, m1 = d1.points[o1, 0].tolist(), d1.weights[o1].tolist()
    x2, m2 = d2.points[o2, 0].tolist(), d2.weights[o2].tolist()
    i = j = 0
    cost = 0.0
    while i < len(x1) and j < len(x2):
        mass = min(m1[i], m2[j])
        cost += mass * abs(x1[i] - x2[j])
        m1[i] -= mass
        m2[j] -= mass
        if m1[i] == 0.0:
            i += 1
        else:
            j += 1
    return cost


def _random_design(rng: np.random.Generator, space: DesignSpace,
                   max_points: int = 8) -> Design:
    m = int(rng.integers(1, max_points + 1))
    pts = rng.uniform(space.lower, space.upper, size=(m, 1))
    return Design(space, pts, rng.dirichlet(np.ones(m)))


def _psi_gamma_proportionality_error(rng: np.random.Generator) -> float:
    """Compare the two routes to the regularized directional derivative.

    Route A averages the unregularized derivative of the blended design
    against the blended direction measure; route B is the scaled form
    (1-gamma) * [I(x, b) - avg_design I(., b)]. They agree algebraically.
    """
    pair = cubic_quadratic_pair()
    space = cubic_quadratic_space()
    xi_tilde = Design(space, np.linspace(-1, 1, 4)[:, None], np.full(4, 0.25))
    cfg = InnerConfig(local_tolerance=1e-10)
    worst = 0.0
    for gamma in (0.01, 0.1, 0.5):
        for _ in range(5):
            design = _random_design(rng, space, max_points=6)
            blended = blend_designs(design, xi_tilde, gamma)
            beta = minimize_beta2(pair, blended, cfg).beta2_hat
            for x in rng.uniform(-1.0, 1.0, size=3):
                point = np.array([x])
                value_at = float(pair.divergence(point, beta)[0])
                avg_design = _kl_average(pair, design, beta)
                avg_blend = _kl_average(pair, blended, beta)
                route_b = (1.0 - gamma) * (value_at - avg_design)
                # direction measure (1-gamma) delta_x + gamma xi_tilde, centered on the blend
                psi_blend_x = value_at - avg_blend
                psi_blend_ref = (pair.divergence(xi_tilde.points, beta) - avg_blend)
                route_a = ((1.0 - gamma) * psi_blend_x
                           + gamma * float(xi_tilde.weights @ psi_blend_ref))
                worst = max(worst, abs(route_a - route_b))
    return worst


def check_glm_regularity(ctx: BenchmarkContext) -> CheckResult:
    """Rank test, information-matrix eigenvalue test and the regularity flag
    agree on 200 random logistic design matrices."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    disagreements = 0
    for k in range(200):
        d2 = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        style = k % 4
        if style == 0:
            rows = rng.normal(0.0, 1.0, size=(n, d2))
        elif style == 1:  # polynomial rows at distinct points, no intercept
            x = rng.uniform(0.05, 1.0, size=n)
            rows = np.column_stack([x ** (j + 1) for j in range(d2)])
        elif style == 2:  # duplicated / proportional rows
            base = rng.normal(0.0, 1.0, size=(max(1, n // 2), d2))
            reps = [base[rng.integers(0, base.shape[0])] * rng.choice([1.0, 2.0, -0.5])
                    for _ in range(n)]
            rows = np.vstack(reps)
        else:  # a zero column forces rank deficiency
            rows = rng.normal(0.0, 1.0, size=(n, d2))
            rows[:, rng.integers(0, d2)] = 0.0
        beta2 = rng.uniform(-2.0, 2.0, size=d2)
        by_flag = glm_is_regular(rows)
        s = np.linalg.svd(rows, compute_uv=False)
        by_rank = int(np.sum(s > max(n, d2) * (s[0] if s.size else 0.0) * 1e-12)) == d2
        p = expit(rows @ beta2)  # the logistic GLM weight p(1 - p)
        info = _glm_fisher_information(rows, p * (1.0 - p))
        eigs = np.linalg.eigvalsh(info)
        # linear-in-max_eig threshold: stays above the eigensolver noise floor
        eig_threshold = max(n, d2) * float(eigs.max()) * 1e-12
        by_eig = float(eigs.min()) > eig_threshold
        if not (by_flag == by_rank == by_eig):
            disagreements += 1
    dt = time.perf_counter() - t0
    return CheckResult(
        "GLM regularity agreement (200 matrices)", disagreements == 0, dt,
        {"disagreements": disagreements})


def check_cli_determinism(ctx: BenchmarkContext) -> CheckResult:
    """Two runs of one config give byte-identical iterations.csv and
    result.json apart from its timestamp line."""
    from . import cli
    t0 = time.perf_counter()
    workdir = Path(tempfile.mkdtemp(prefix="kl-design-determinism-"))
    try:
        config = workdir / "run.yaml"
        config.write_text(_determinism_config_yaml())
        outputs = []
        for attempt in (1, 2):
            outdir = workdir / f"run-{attempt}"
            rc = cli.main(["run", str(config), "--output-dir", str(outdir), "--quiet"])
            iterations = (outdir / "iterations.csv").read_bytes()
            result = b"".join(line for line in (outdir / "result.json").read_bytes()
                              .splitlines(keepends=True)
                              if not line.lstrip().startswith(b'"generated_at"'))
            outputs.append((rc, iterations, result))
        rc_ok = outputs[0][0] == outputs[1][0]
        csv_ok = outputs[0][1] == outputs[1][1]
        json_ok = outputs[0][2] == outputs[1][2]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    dt = time.perf_counter() - t0
    return CheckResult(
        "determinism across two identical runs", rc_ok and csv_ok and json_ok, dt,
        {"csv_identical": csv_ok, "json_identical": json_ok})


def _determinism_config_yaml() -> str:
    return """\
model:
  kind: gaussian-regression
  beta1: [0, 0, 0, 1]
  sigma2: 0.5
  rival_exponents: [0, 1, 2]
  beta2_box:
    lower: [-5, -5, -5]
    upper: [5, 5, 5]
space:
  lower: [-1]
  upper: [1]
initial_design:
  points: [[-1.0], [-0.6], [0.1], [0.8]]
  weights: [0.25, 0.25, 0.25, 0.25]
algorithm:
  delta: 0.999999
  max_iterations: 25
"""


ALL_CHECKS = (
    ("benchmark-optimum", check_benchmark_optimum),
    ("optimum-certificate", check_optimum_certificate),
    ("affine-invariance", check_affine_invariance),
    ("singular-logistic", check_singular_logistic),
    ("discontinuity-gap", check_discontinuity_gap),
    ("oracle-suite", check_oracle_suite),
    ("glm-regularity", check_glm_regularity),
    ("cli-determinism", check_cli_determinism),
)


def run_benchmarks(names=None, output_dir: Path | None = None) -> list[CheckResult]:
    ctx = BenchmarkContext()
    selected = [(n, f) for n, f in ALL_CHECKS if names is None or n in names]
    results = []
    for name, func in selected:
        if func is check_singular_logistic:
            results.append(func(ctx, output_dir=output_dir))
        else:
            results.append(func(ctx))
    return results

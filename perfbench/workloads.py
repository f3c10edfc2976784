"""The benchmark's workloads: seeded inputs, the timed call of each task, and
the rule its output is scored by.

A run repeats a fixed number of passes. Pass `k` of a workload is a list of
tasks whose inputs come from `numpy.random.default_rng([seed, k])`, so the
same seed gives the same inputs. A task is one solve or one certificate: its
`run` is the only part that is timed and its `score` runs afterwards. Every
call into the package goes through the module attribute (`algorithm.run_...`)
at call time, so the tracer's wrappers see it.

README.md in this directory says why each workload was chosen.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from kldesign import algorithm, benchmarks, config, designs, inner, models, verify

PHI_STAR = 1.0 / 16.0  # criterion value of the cubic-vs-quadratic optimum
AFFINE = designs.AffineMap([2.0], [[4.0]])
GRID_GAUSSIAN = 2001
GRID_LOGISTIC = 1001
PSI_GAMMA_TOL = 1e-6

# Distinct passes per run, each run at least once. Enough of them that the
# typical pass does not hang on a few seeded instances.
PASSES_PER_RUN = {"gaussian-exchange": 1, "logistic-singular": 36, "certify": 4}
NEAR_PER_PASS = 6
FAR_PER_PASS = 6
LOGISTIC_CERTS_PER_PASS = 10


@dataclass
class Task:
    kind: str
    run: Callable[[], Any]
    score: Callable[[Any], dict]  # {"ok": bool, plus facts the summary reports}


def build_pass(workload: str, seed: int, index: int, tiny: bool = False) -> list[Task]:
    """Tasks of pass `index`; `tiny` gives a seconds-long pass for smoke tests."""
    rng = np.random.default_rng([seed, index])
    return WORKLOADS[workload](rng, tiny)


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _design_section(points, weights) -> dict:
    return {"points": [[float(x)] for x in points],
            "weights": [float(w) for w in weights]}


def _parse(model: dict, lower: float, upper: float, start=None) -> config.RunSetup:
    data = {"model": model, "space": {"lower": [lower], "upper": [upper]}}
    if start is not None:
        data["initial_design"] = start
    return config.parse_run_config(data, Path.cwd())


# ---------------------------------------------------------------------------
# gaussian-exchange: both shipped Gaussian acceptance runs at full length.

CUBIC_MODEL = {"kind": "gaussian-regression", "beta1": [0, 0, 0, 1], "sigma2": 0.5,
               "rival_exponents": [0, 1, 2],
               "beta2_box": {"lower": [-5, -5, -5], "upper": [5, 5, 5]}}
CUBIC_START = _design_section([-1.0, -0.6, 0.1, 0.8], [0.25] * 4)


def _exchange_task(kind, pair, start, space, delta, seed, target, w1_bound) -> Task:
    algo = benchmarks.benchmark_algo_config(delta=delta, seed=seed)
    inner_cfg = benchmarks.benchmark_inner_config()

    def run():
        return algorithm.run_first_order(pair, start, space, algo, inner_cfg)

    def score(result) -> dict:
        # Pass: the loop certifies its own efficiency, the value really is
        # within delta of the known optimum, and the design is close to it.
        w1 = designs.wasserstein_distance(result.final_design, target)
        ok = (result.termination_reason == algorithm.EFFICIENCY_REACHED
              and result.final_value / PHI_STAR >= delta
              and w1 <= w1_bound)
        return {"ok": ok, "value_gap": (PHI_STAR - result.final_value) / PHI_STAR,
                "w1": w1}

    return Task(kind, run, score)


def gaussian_exchange(rng, tiny: bool) -> list[Task]:
    optimum = benchmarks.cubic_quadratic_optimum()
    start = (_design_section(optimum.points[:, 0], optimum.weights) if tiny
             else CUBIC_START)
    setup = _parse(CUBIC_MODEL, -1.0, 1.0, start)
    pair_z = models.reparametrize_under_affine(setup.pair, AFFINE)
    # Wasserstein bounds are those of the acceptance checks.
    return [
        _exchange_task("cubic", setup.pair, setup.initial_design, setup.space,
                       0.99, _seed(rng), optimum, 0.02),
        _exchange_task("affine", pair_z,
                       designs.transform_design(setup.initial_design, AFFINE),
                       AFFINE.image_box(setup.space), 0.95, _seed(rng),
                       designs.transform_design(optimum, AFFINE), 0.08),
    ]


# ---------------------------------------------------------------------------
# logistic-singular: plain loop, regularized loop, regularized certificate.

LOGISTIC_BOX = {"lower": [-10, -10], "upper": [10, 10]}
FIXTURE_BETA1 = [1.0, 1.0, 1.0]
FIXTURE_START = _design_section([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], [0.25] * 4)


def _logistic_model(beta1) -> dict:
    return {"kind": "logistic-glm", "beta1": [float(b) for b in beta1],
            "rival_exponents": [1, 2], "beta2_box": LOGISTIC_BOX}


def _seeded_logistic_beta1(rng) -> list[float]:
    """Nonzero intercept, so the rival span {x, x^2} misses the truth at 0 and
    the optimum is the singular point mass there."""
    c0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    c1, c2 = rng.uniform(-2.0, 2.0, size=2)
    return [c0, c1, c2]


def _handoff_task(kind, pair, start, space, seed, scored: bool) -> Task:
    plain_algo = benchmarks.benchmark_algo_config(delta=0.995, seed=seed,
                                                  max_iterations=50)
    reg_algo = benchmarks.benchmark_algo_config(delta=0.995, seed=seed,
                                                max_iterations=10)
    inner_cfg = benchmarks.benchmark_inner_config()
    reg = algorithm.RegularizationConfig(
        gamma=0.05, xi_tilde=benchmarks.logistic_reference_design())

    def run():
        plain = algorithm.run_first_order(pair, start, space, plain_algo, inner_cfg)
        regularized = algorithm.run_regularized(pair, start, space, reg_algo,
                                                inner_cfg, reg)
        report = verify.equivalence_check(
            pair, regularized.final_design, grid_size=GRID_LOGISTIC,
            inner_config=benchmarks.verify_inner_config(), reg=reg)
        return plain, regularized, report

    def score(outputs) -> dict:
        # The acceptance check's hand-off: the plain loop detects the singular
        # optimum, the regularized loop certifies a design massed at zero.
        plain, regularized, report = outputs
        handoff = (plain.termination_reason == algorithm.STALLED_REGULARIZED
                   and regularized.termination_reason == algorithm.EFFICIENCY_REACHED
                   and len(regularized.history) <= 10
                   and regularized.final_design.weight_at([0.0]) >= 0.95
                   and report.psi_max <= PSI_GAMMA_TOL)
        return {"ok": handoff or not scored, "handoff": handoff}

    return Task(kind, run, score)


def logistic_singular(rng, tiny: bool) -> list[Task]:
    # The fixture runs as shipped, its seed included: with other seeds its
    # plain loop misses the hand-off now and then, like the seeded instances.
    fixture = _parse(_logistic_model(FIXTURE_BETA1), 0.0, 1.0, FIXTURE_START)
    tasks = [_handoff_task("logistic-fixture", fixture.pair, fixture.initial_design,
                           fixture.space, benchmarks.BENCHMARK_SEED, scored=True)]
    if not tiny:
        beta1 = _seeded_logistic_beta1(rng)
        m = int(rng.integers(3, 6))
        start = _design_section(rng.uniform(0.0, 1.0, size=m), rng.dirichlet(np.ones(m)))
        setup = _parse(_logistic_model(beta1), 0.0, 1.0, start)
        # Hand-off misses of seeded instances are counted, not failed (README).
        tasks.append(_handoff_task("logistic-seeded", setup.pair, setup.initial_design,
                                   setup.space, _seed(rng), scored=False))
    return tasks


# ---------------------------------------------------------------------------
# certify: cold multistart certificates, no outer loop.


def _oracle_psi_max(pair, design) -> float | None:
    """Grid-and-support psi maximum at the least-squares solution, or None
    when that solution leaves the parameter box (the oracle ignores the box)."""
    beta, _ = inner.least_squares_oracle(pair, design)
    if not pair.theta2.contains(beta):
        return None
    points = np.vstack([design.space.grid(GRID_GAUSSIAN), design.points])
    values = pair.divergence(points, beta)
    return float(np.max(values) - design.weights @ values[-design.size:])


def _certificate_task(kind, pair, design, expect_certified: bool) -> Task:
    vcfg = benchmarks.verify_inner_config()

    def run():
        return verify.equivalence_check(pair, design, grid_size=GRID_GAUSSIAN,
                                        inner_config=vcfg)

    def score(report) -> dict:
        # A verdict is scored only where it is known by construction: an
        # analytic optimum certifies; a design whose oracle psi exceeds the
        # pass tolerance is rejected. Other designs are timed only.
        if expect_certified:
            return {"ok": report.verdict == verify.CERTIFIED}
        psi = _oracle_psi_max(pair, design)
        if psi is None or psi <= report.pass_tolerance:
            return {"ok": True}
        return {"ok": report.verdict == verify.REJECTED}

    return Task(kind, run, score)


def _invariance_task(pair, design) -> Task:
    vcfg = benchmarks.verify_inner_config()

    def run():
        return verify.invariance_check(pair, design, AFFINE, vcfg)

    return Task("invariance", run, lambda report: {"ok": bool(report.passed)})


def _logistic_certificate_task(pair, design) -> Task:
    vcfg = benchmarks.verify_inner_config()
    reg = algorithm.RegularizationConfig(
        gamma=0.05, xi_tilde=benchmarks.logistic_reference_design())

    def run():
        return verify.equivalence_check(pair, design, grid_size=GRID_LOGISTIC,
                                        inner_config=vcfg, reg=reg)

    return Task("cert-logistic", run, lambda report: {"ok": True})


def _near_optimum(rng, optimum) -> designs.Design:
    """The optimum with its interior points moved by up to 0.05 and its
    weights redrawn around the optimal ones."""
    points = optimum.points[:, 0].copy()
    points[1:-1] += rng.uniform(-0.05, 0.05, size=points.size - 2)
    weights = rng.dirichlet(200.0 * optimum.weights)
    return designs.Design(optimum.space, points[:, None], weights)


def _random_design(rng, space, low: int, high: int) -> designs.Design:
    m = int(rng.integers(low, high + 1))
    points = rng.uniform(space.lower[0], space.upper[0], size=(m, 1))
    return designs.Design(space, points, rng.dirichlet(np.ones(m)))


def certify(rng, tiny: bool) -> list[Task]:
    setup = _parse(CUBIC_MODEL, -1.0, 1.0)
    pair, space = setup.pair, setup.space
    optimum = benchmarks.cubic_quadratic_optimum()
    pair_z = models.reparametrize_under_affine(pair, AFFINE)
    tasks = [
        _certificate_task("cert-optimum", pair, optimum, expect_certified=True),
        _certificate_task("cert-optimum", pair_z,
                          designs.transform_design(optimum, AFFINE),
                          expect_certified=True),
    ]
    near, far = (0, 1) if tiny else (NEAR_PER_PASS, FAR_PER_PASS)
    seeded = ([("cert-near", _near_optimum(rng, optimum)) for _ in range(near)]
              + [("cert-far", _random_design(rng, space, 4, 6)) for _ in range(far)])
    for i, (kind, design) in enumerate(seeded):
        tasks.append(_certificate_task(kind, pair, design, expect_certified=False))
        if i % 2 == 0:
            tasks.append(_invariance_task(pair, design))

    logistic_space = designs.DesignSpace([0.0], [1.0])
    for i in range(1 if tiny else LOGISTIC_CERTS_PER_PASS):
        beta1 = FIXTURE_BETA1 if i == 0 else _seeded_logistic_beta1(rng)
        lpair = _parse(_logistic_model(beta1), 0.0, 1.0).pair
        design = _random_design(rng, logistic_space, 2, 5)
        if i % 2 == 0:  # most of the mass at the singular optimum
            rest = float(rng.uniform(0.0, 0.1))
            design = designs.Design(logistic_space,
                                    np.vstack([[[0.0]], design.points]),
                                    np.concatenate([[1.0 - rest], rest * design.weights]))
        tasks.append(_logistic_certificate_task(lpair, design))
    return tasks


WORKLOADS = {
    "gaussian-exchange": gaussian_exchange,
    "logistic-singular": logistic_singular,
    "certify": certify,
}

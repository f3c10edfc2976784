"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each test runs one acceptance check end to end and prints its pass/fail
line (visible with `pytest -s` or in the failure report). The same checks
back `kl-design benchmark`.
"""

from kldesign import benchmarks


def _run(check, ctx, **kwargs):
    result = check(ctx, **kwargs)
    print(result.summary())
    assert result.passed, result.summary()
    return result


class TestAcceptance:
    def test_1_benchmark_optimum(self, ctx):
        """Gaussian cubic-vs-quadratic run at delta=0.99 reaches the analytic
        optimum: Wasserstein <= 0.02, value within [-2%, +0.1%] of 1/16,
        beta2 within 1e-3 of (0, 3/4, 0), <= 500 iterations, <= 60 s."""
        _run(benchmarks.check_benchmark_optimum, ctx)

    def test_2_equivalence_certificate(self, ctx):
        """The analytic optimum certifies: |psi| <= 1e-8 on the support and
        psi < 0 strictly at the grid points 0.1 away from it."""
        _run(benchmarks.check_optimum_certificate, ctx)

    def test_3_affine_invariance(self, ctx):
        """Rescaled run on [-2, 6] at delta=0.95 lands within Wasserstein 0.08
        of the mapped optimum; criterion values agree within 1e-8."""
        _run(benchmarks.check_affine_invariance, ctx)

    def test_4_singular_logistic(self, ctx, tmp_path):
        """Plain logistic run hands off (stalled-regularized); the gamma=0.05
        run finishes in <= 10 iterations with >= 0.95 mass at zero and the
        scaled derivative <= 1e-6 on a 1001-point grid (dumped as CSV)."""
        result = _run(benchmarks.check_singular_logistic, ctx,
                      output_dir=tmp_path)
        assert (tmp_path / "logistic_psi_curve.csv").exists()

    def test_5_criterion_discontinuity(self, ctx):
        """Synthetic-family closed forms are exact (vs quadrature) and the
        truncated-uniform criterion gap at n=100 is at least 0.9."""
        _run(benchmarks.check_discontinuity_gap, ctx)

    def test_6_oracle_suite(self, ctx):
        """100 random Gaussian instances match the least-squares oracle within
        1e-8; derivative centering 1e-10; ascent monotone on every logged run;
        Wasserstein quantile vs LP within 1e-9; scaled-derivative
        proportionality within 1e-10 for gamma in {0.01, 0.1, 0.5}."""
        _run(benchmarks.check_oracle_suite, ctx)

    def test_7_glm_regularity(self, ctx):
        """Rank test, information-eigenvalue test and the regularity flag agree
        on 200 random logistic design matrices with zero disagreements."""
        _run(benchmarks.check_glm_regularity, ctx)

    def test_8_cli_determinism(self, ctx):
        """Two cmd_run calls on one config produce byte-identical
        iterations.csv and result.json apart from its timestamp."""
        _run(benchmarks.check_cli_determinism, ctx)


# The printed details of each check that are not rounding: reasons, counts and
# values whose printed digits hold on any machine. Rounding-level errors
# (support_psi_max, value gaps, psi_gamma_max, quadrature and oracle errors)
# depend on the BLAS and `exp` in use, so only the checks' own bounds hold them.
PRINTED = {
    "benchmark-optimum": {"reason": "efficiency-reached", "iterations": 3,
                          "wasserstein": "0.00360", "value": "0.06249500",
                          "beta2_err": "1.29e-05"},
    "optimum-certificate": {"verdict": "certified", "offset_psi_max": "-6.8040e-03"},
    "affine-invariance": {"reason": "efficiency-reached", "wasserstein": "0.01442"},
    "singular-logistic": {"plain_reason": "stalled-regularized",
                          "reg_reason": "efficiency-reached", "reg_iterations": 2,
                          "mass_at_zero": "1.0000"},
    "discontinuity-gap": {"criterion_gap": "0.999957"},
    "oracle-suite": {},
    "glm-regularity": {"disagreements": 0},
    "cli-determinism": {},
}


def test_every_check_prints_its_shipped_values(ctx):
    """`kl-design benchmark` passes every check with the printed values it
    shipped with, so a change that moves one shows here."""
    assert list(PRINTED) == [name for name, _ in benchmarks.ALL_CHECKS]
    for name, check in benchmarks.ALL_CHECKS:
        result = check(ctx)
        assert result.passed, result.summary()
        printed = {key: result.details[key] for key in PRINTED[name]}
        assert printed == PRINTED[name], result.summary()

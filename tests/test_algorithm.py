"""Outer exchange loop: derivative, best-point search, line search, runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kldesign.algorithm import (EFFICIENCY_REACHED, STALLED_REGULARIZED,
                                AlgoConfig, RegularizationConfig,
                                best_support_candidate, default_reference_design,
                                directional_derivative_psi, efficiency_bound,
                                line_search_alpha, psi_scan, run_first_order,
                                run_regularized)
from kldesign.benchmarks import (benchmark_inner_config, cubic_quadratic_optimum,
                                 cubic_quadratic_pair, cubic_quadratic_space,
                                 cubic_quadratic_start, logistic_pair,
                                 logistic_reference_design, logistic_space,
                                 logistic_start_design)
from kldesign.designs import Design, DesignSpace, blend_designs, mix_design
from kldesign.errors import UndefinedEfficiencyError
from kldesign.inner import InnerConfig, minimize_beta2
from kldesign.models import (GaussianRegressionPair, LogisticGlmPair, ParamBox,
                             kl_average)

TIGHT = InnerConfig(local_tolerance=1e-10, max_local_iterations=2000)
FAST = InnerConfig(local_tolerance=1e-9)
OPT_BETA = np.array([0.0, 0.75, 0.0])


class TestDirectionalDerivative:
    def test_value_at_the_center(self):
        # psi(0) = 0 - 1/16 at the analytic optimum parameters
        psi = directional_derivative_psi(cubic_quadratic_pair(),
                                         cubic_quadratic_optimum(), OPT_BETA, [0.0])
        assert psi == pytest.approx(-0.0625, abs=1e-15)

    def test_zero_at_support_points(self):
        pair = cubic_quadratic_pair()
        opt = cubic_quadratic_optimum()
        for x in (-1.0, -0.5, 0.5, 1.0):
            assert directional_derivative_psi(pair, opt, OPT_BETA,
                                              [x]) == pytest.approx(0.0, abs=1e-15)

    def test_centering_over_the_design(self):
        rng = np.random.default_rng(71)
        pair = cubic_quadratic_pair()
        space = cubic_quadratic_space()
        for _ in range(25):
            m = int(rng.integers(1, 8))
            d = Design(space, rng.uniform(-1, 1, (m, 1)), rng.dirichlet(np.ones(m)))
            b = rng.uniform(-3, 3, 3)
            psis = [directional_derivative_psi(pair, d, b, x) for x in d.points]
            assert abs(float(d.weights @ np.array(psis))) <= 1e-10


class TestBestSupportCandidate:
    def test_matches_brute_force_grid(self):
        # residual is symmetric for the delta_0 fit, maximizer at an endpoint
        pair = cubic_quadratic_pair()
        space = cubic_quadratic_space()
        d0 = Design(space, [[0.0]], [1.0])
        sol = minimize_beta2(pair, d0, TIGHT)
        x, psi = best_support_candidate(pair, d0, sol.beta2_hat, space)
        grid = np.linspace(-1, 1, 10000)
        brute = grid[np.argmax(pair.divergence(grid, sol.beta2_hat))]
        assert abs(abs(x[0]) - 1.0) <= 1e-6
        assert abs(abs(brute) - 1.0) <= 1e-3
        assert psi >= 0.0

    def test_zero_gap_at_the_optimum(self):
        pair = cubic_quadratic_pair()
        opt = cubic_quadratic_optimum()
        sol = minimize_beta2(pair, opt, TIGHT)
        _, psi = best_support_candidate(pair, opt, sol.beta2_hat,
                                        cubic_quadratic_space())
        assert abs(psi) <= 1e-8

    def test_constant_divergence(self):
        pair = logistic_pair()
        d0 = Design(logistic_space(), [[0.0]], [1.0])
        # with this beta2 the divergence is largest at 0 and the design sits there
        sol = minimize_beta2(pair, blend_designs(d0, logistic_reference_design(),
                                                 0.05), TIGHT)
        x, psi = best_support_candidate(pair, d0, sol.beta2_hat, logistic_space())
        assert x[0] == pytest.approx(0.0, abs=1e-9)
        assert psi == pytest.approx(0.0, abs=1e-9)


    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.data())
    def test_gaussian_scan_maximum_is_exact(self, data):
        # no dense grid finds a larger psi than a coarse scan, whose best
        # candidate attains the psi it reports
        d2 = data.draw(st.integers(1, 4))
        exponents = sorted(data.draw(st.lists(st.integers(0, 5), min_size=d2,
                                              max_size=d2, unique=True)))
        beta1 = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
        pair = GaussianRegressionPair.from_exponents(
            beta1, exponents, ParamBox([-5.0] * d2, [5.0] * d2),
            data.draw(st.floats(0.2, 2.0)))
        lower = data.draw(st.floats(-2.0, 1.0))
        space = DesignSpace([lower], [lower + data.draw(st.floats(0.1, 3.0))])
        m = data.draw(st.integers(1, 6))
        points = data.draw(st.lists(st.floats(space.lower[0], space.upper[0]),
                                    min_size=m, max_size=m))
        raw = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=m,
                                          max_size=m)))
        design = Design(space, np.array(points)[:, None], raw / raw.sum())
        beta = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=d2,
                                           max_size=d2)))
        grid_size = data.draw(st.integers(2, 21))

        candidates, psi = psi_scan(pair, design, beta, space, grid_size)
        i = int(np.argmax(psi))
        average = kl_average(pair, design, beta)
        # psi is a difference of divergences, so rounding scales with them
        value = float(np.max(pair.divergence(space.grid(200_001), beta)))
        tol = 1e-12 * max(1.0, value)
        assert psi[i] >= value - average - tol
        attained = float(pair.divergence(candidates[i], beta)[0]) - average
        assert attained == pytest.approx(psi[i], abs=tol)


class TestEfficiencyBound:
    def test_equality_case(self):
        assert efficiency_bound(1 / 16, 0.0) == 1.0

    def test_half(self):
        assert efficiency_bound(1 / 16, 1 / 16) == pytest.approx(0.5, abs=1e-15)

    def test_open_interval(self):
        assert efficiency_bound(0.05, 0.0125) == pytest.approx(0.8, abs=1e-15)

    def test_nonpositive_value_raises(self):
        with pytest.raises(UndefinedEfficiencyError):
            efficiency_bound(0.0, 0.1)


class TestLineSearch:
    def test_no_step_at_the_optimum(self):
        pair = cubic_quadratic_pair()
        opt = cubic_quadratic_optimum()
        sol = minimize_beta2(pair, opt, TIGHT)
        alpha, value = line_search_alpha(pair, opt, [0.3], TIGHT,
                                         warm_start=sol.beta2_hat,
                                         value_at_zero=sol.value)
        assert alpha == 0.0
        assert value == sol.value

    def test_segment_through_an_interpolatable_mixture_has_no_ascent(self):
        # two support points are always fit exactly by the quadratic rival,
        # so the criterion is identically zero along delta_{-1} -> delta_1
        pair = cubic_quadratic_pair()
        start = Design(cubic_quadratic_space(), [[-1.0]], [1.0])
        sol = minimize_beta2(pair, start, TIGHT)
        assert sol.value <= 1e-12
        alpha, value = line_search_alpha(pair, start, [1.0], TIGHT,
                                         warm_start=sol.beta2_hat,
                                         value_at_zero=sol.value)
        assert alpha == 0.0
        assert value <= 1e-12

    def test_matches_grid_scan(self):
        pair = cubic_quadratic_pair()
        start = cubic_quadratic_start()
        sol = minimize_beta2(pair, start, TIGHT)
        x_new, psi = best_support_candidate(pair, start, sol.beta2_hat,
                                            cubic_quadratic_space())
        assert psi > 0.0
        alpha, value = line_search_alpha(pair, start, x_new, TIGHT,
                                         warm_start=sol.beta2_hat,
                                         value_at_zero=sol.value)
        assert alpha > 0.0
        assert value > sol.value
        scan = [minimize_beta2(pair, mix_design(start, x_new, a), TIGHT).value
                for a in np.linspace(0, 1, 1001)]
        assert value == pytest.approx(max(scan), abs=1e-6)
        assert abs(alpha - np.linspace(0, 1, 1001)[int(np.argmax(scan))]) <= 2e-3

    def test_value_at_zero_equals_criterion(self):
        pair = cubic_quadratic_pair()
        d = cubic_quadratic_start()
        sol = minimize_beta2(pair, d, TIGHT)
        alpha, value = line_search_alpha(pair, d, d.points[0], TIGHT,
                                         warm_start=sol.beta2_hat)
        if alpha == 0.0:
            assert value == pytest.approx(sol.value, abs=1e-10)

    def test_concavity_along_segments(self):
        rng = np.random.default_rng(83)
        pair = cubic_quadratic_pair()
        space = cubic_quadratic_space()
        for _ in range(10):
            m = int(rng.integers(2, 6))
            d = Design(space, rng.uniform(-1, 1, (m, 1)), rng.dirichlet(np.ones(m)))
            x = rng.uniform(-1, 1, 1)
            a, b = sorted(rng.uniform(0, 1, 2))
            g = [minimize_beta2(pair, mix_design(d, x, t), TIGHT).value
                 for t in (a, (a + b) / 2, b)]
            assert g[1] >= (g[0] + g[2]) / 2 - 1e-8


class TestRuns:
    def test_benchmark_run_converges(self, ctx):
        run = ctx.benchmark_run()
        assert run.termination_reason == EFFICIENCY_REACHED
        assert run.final_efficiency > 0.99
        values = np.array([r.value for r in run.history])
        assert np.all(np.diff(values) >= -1e-10)
        # U is a lower bound on the efficiency value / (1/16); the affine
        # image of the fixture has the same optimum value
        for rec in run.history + ctx.transformed_run().history:
            assert rec.efficiency <= rec.value / (1 / 16) + 1e-8
            assert rec.psi_max >= -1e-9

    def test_psi_centering_along_the_run(self, ctx):
        pair = cubic_quadratic_pair()
        for rec in ctx.benchmark_run().history[::10]:
            psis = pair.divergence(rec.design.points, rec.beta2_hat) - kl_average(
                pair, rec.design, rec.beta2_hat)
            assert abs(float(rec.design.weights @ psis)) <= 1e-10

    def test_run_is_deterministic(self):
        algo = AlgoConfig(delta=0.9, max_iterations=15)
        runs = [run_first_order(cubic_quadratic_pair(), cubic_quadratic_start(),
                                cubic_quadratic_space(), algo, FAST)
                for _ in range(2)]
        assert len(runs[0].history) == len(runs[1].history)
        for a, b in zip(runs[0].history, runs[1].history):
            assert a.value == b.value
            assert a.alpha == b.alpha
            np.testing.assert_array_equal(a.design.points, b.design.points)

    def test_logistic_plain_run_hands_off(self, ctx):
        run = ctx.logistic_plain_run()
        assert run.termination_reason == STALLED_REGULARIZED
        assert not run.regularized

    def test_singular_design_is_not_certified(self):
        # The loop moves all mass to x = 0 at iteration 3, where the intercept-free
        # rival is singular and U = 1 is read off an arbitrary minimizer.
        pair = LogisticGlmPair.from_exponents(
            [-1.3049499918010312, -0.046634605256675954, 0.3678975736484933], [1, 2],
            ParamBox([-10.0, -10.0], [10.0, 10.0]))
        space = DesignSpace([0.0], [1.0])
        start = Design(space,
                       [[0.6840734264943017], [0.519704181427148], [0.15138787673324017],
                        [0.5427954899259857], [0.8889032900133069]],
                       [0.4197155770434777, 0.24353642944674372, 0.2809436060886842,
                        0.05412969371031404, 0.0016746937107803453])
        algo = AlgoConfig(delta=0.995, max_iterations=50)
        run = run_first_order(pair, start, space, algo, benchmark_inner_config())
        assert run.history[-1].singular_flag
        assert run.termination_reason == STALLED_REGULARIZED

    def test_logistic_regularized_run(self, ctx):
        run = ctx.logistic_regularized_run()
        assert run.termination_reason == EFFICIENCY_REACHED
        assert run.regularized and run.gamma == 0.05
        assert run.final_design.weight_at([0.0]) >= 0.95

    def test_regularized_records_scale_the_gap(self):
        # psi_gamma = (1 - gamma) psi with the blended-design minimizer
        pair = logistic_pair()
        reg = RegularizationConfig(gamma=0.1, xi_tilde=logistic_reference_design())
        algo = AlgoConfig(delta=0.999, max_iterations=3)
        run = run_regularized(pair, logistic_start_design(), logistic_space(),
                              algo, FAST, reg)
        for rec in run.history:
            blended = blend_designs(rec.design, logistic_reference_design(), 0.1)
            psi_raw = (float(np.max(pair.divergence(
                np.linspace(0, 1, 2001), rec.beta2_hat)))
                - kl_average(pair, rec.design, rec.beta2_hat))
            assert rec.psi_max == pytest.approx(0.9 * psi_raw, abs=2e-4)
            assert rec.value == pytest.approx(
                kl_average(pair, blended, rec.beta2_hat), abs=1e-9)

    def test_regularized_criterion_converges_as_gamma_vanishes(self):
        # |I_gamma - I| <= gamma * C at the analytic optimum; empirically
        # C ~= 0.031 here, with the gap shrinking proportionally to gamma
        pair = cubic_quadratic_pair()
        opt = cubic_quadratic_optimum()
        ref = cubic_quadratic_start()
        gaps = []
        for gamma in (0.1, 0.05, 0.01):
            value = minimize_beta2(pair, blend_designs(opt, ref, gamma),
                                   TIGHT).value
            gap = abs(value - 1 / 16)
            assert gap <= gamma * 0.05
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_default_reference_design(self):
        ref = default_reference_design(cubic_quadratic_pair(),
                                       cubic_quadratic_space())
        assert ref.size == 4  # d2 + 1 equispaced points
        np.testing.assert_allclose(ref.points.ravel(),
                                   np.linspace(-1, 1, 4), atol=1e-15)
        np.testing.assert_allclose(ref.weights, 0.25, atol=1e-15)

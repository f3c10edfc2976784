"""Outer exchange loop: derivative, best-point search, steps, runs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize

from kldesign import algorithm
from kldesign.algorithm import (EFFICIENCY_REACHED, STALLED_REGULARIZED,
                                AlgoConfig, RegularizationConfig,
                                best_support_candidate, corrective_step,
                                default_reference_design, efficiency_bound,
                                line_search_alpha, psi_scan, restricted_dual,
                                run_first_order, run_regularized)
from kldesign.benchmarks import (SyntheticFamily, _kl_average as kl_average,
                                 benchmark_inner_config, cubic_quadratic_optimum,
                                 cubic_quadratic_pair, cubic_quadratic_space,
                                 cubic_quadratic_start, logistic_pair,
                                 logistic_reference_design, logistic_space,
                                 logistic_start_design)
from kldesign.designs import (AffineMap, Design, DesignSpace, blend_designs,
                              transform_design, validate_design, wasserstein_distance)
from kldesign.errors import DomainError, UndefinedEfficiencyError, UnsupportedModelError
from kldesign.inner import InnerConfig, minimize_beta2, prepare_support
from kldesign.models import (GaussianRegressionPair, LogisticGlmPair, ParamBox,
                             reparametrize_under_affine)

TIGHT = InnerConfig(local_tolerance=1e-10)
FAST = InnerConfig(local_tolerance=1e-9)
OPT_BETA = np.array([0.0, 0.75, 0.0])


def mixture(design: Design, x, alpha: float) -> Design:
    """(1 - alpha) design + alpha delta_x, the blend with a point mass."""
    return blend_designs(design, Design(design.space, x, [1.0]), alpha)


class TestDirectionalDerivative:
    def test_value_at_the_center(self):
        # psi(0) = 0 - 1/16 at the analytic optimum parameters; the middle of
        # three grid nodes is x = 0
        points, psi = psi_scan(cubic_quadratic_pair(), cubic_quadratic_optimum(),
                               OPT_BETA, cubic_quadratic_space(), grid_size=3)
        assert points[1, 0] == 0.0
        assert psi[1] == pytest.approx(-0.0625, abs=1e-15)

    def test_zero_at_support_points(self):
        opt = cubic_quadratic_optimum()
        points, psi = psi_scan(cubic_quadratic_pair(), opt, OPT_BETA,
                               cubic_quadratic_space(), grid_size=3)
        np.testing.assert_array_equal(points[3:3 + opt.size], opt.points)
        for value in psi[3:3 + opt.size]:
            assert value == pytest.approx(0.0, abs=1e-15)

    def test_centering_over_the_design(self):
        rng = np.random.default_rng(71)
        pair = cubic_quadratic_pair()
        space = cubic_quadratic_space()
        for _ in range(25):
            m = int(rng.integers(1, 8))
            d = Design(space, rng.uniform(-1, 1, (m, 1)), rng.dirichlet(np.ones(m)))
            b = rng.uniform(-3, 3, 3)
            _, psi = psi_scan(pair, d, b, space, grid_size=2)
            assert abs(float(d.weights @ psi[2:2 + m])) <= 1e-10


    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    def test_a_held_grid_evaluator_gives_the_same_scan(self, family):
        if family == "gaussian":
            pair, design, space = (cubic_quadratic_pair(), cubic_quadratic_start(),
                                   cubic_quadratic_space())
            beta = np.array([0.1, 0.6, -0.2])
        else:
            pair, design, space = logistic_pair(), LOGISTIC_SEGMENT_START, logistic_space()
            beta = np.array([1.5, -0.5])
        size = algorithm.PSI_GRID_SIZE
        grid = prepare_support(pair, space.grid(size)).pointwise
        points, psi = psi_scan(pair, design, beta, space, grid_divergence=grid)
        # float for float the scan in one divergence call over all candidates
        values = pair.divergence(points, beta)
        average = design.weights @ values[size:size + design.size]
        np.testing.assert_array_equal(psi, values - average)
        np.testing.assert_array_equal(psi_scan(pair, design, beta, space)[1], psi)


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
        pair = GaussianRegressionPair(
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

    def test_zero_value_with_a_positive_gap_is_zero(self):
        # a rank-deficient start can have value 0; U = 0 is still a true bound
        assert efficiency_bound(0.0, 0.1) == 0.0

    def test_no_positive_divergence_raises(self):
        with pytest.raises(UndefinedEfficiencyError):
            efficiency_bound(0.0, 0.0)


class TestLineSearch:
    def test_no_step_at_the_optimum(self):
        pair = cubic_quadratic_pair()
        opt = cubic_quadratic_optimum()
        sol = minimize_beta2(pair, opt, TIGHT)
        solves = []

        def spy(*args, **kwargs):
            solves.append(args)
            return minimize_beta2(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algorithm, "minimize_beta2", spy)
            alpha, mixed, step = line_search_alpha(pair, opt, [0.3], sol, TIGHT)
        assert alpha == 0.0
        assert mixed is opt and step is sol
        assert solves == []  # g(0) and its slope are read off the start

    def test_segment_through_an_interpolatable_mixture_has_no_ascent(self):
        # two support points are always fit exactly by the quadratic rival,
        # so the criterion is identically zero along delta_{-1} -> delta_1
        pair = cubic_quadratic_pair()
        start = Design(cubic_quadratic_space(), [[-1.0]], [1.0])
        sol = minimize_beta2(pair, start, TIGHT)
        assert sol.value <= 1e-12
        alpha, _, step = line_search_alpha(pair, start, [1.0], sol, TIGHT)
        assert alpha == 0.0
        assert step.value <= 1e-12

    def test_matches_grid_scan(self):
        pair = cubic_quadratic_pair()
        start = cubic_quadratic_start()
        sol = minimize_beta2(pair, start, TIGHT)
        x_new, psi = best_support_candidate(pair, start, sol.beta2_hat,
                                            cubic_quadratic_space())
        assert psi > 0.0
        alpha, mixed, step = line_search_alpha(pair, start, x_new, sol, TIGHT)
        value = step.value
        assert alpha > 0.0
        assert value > sol.value
        # the mixture it steps to is the one its solution is of, float for float
        expected = mixture(start, x_new, alpha)
        np.testing.assert_array_equal(mixed.points, expected.points)
        np.testing.assert_array_equal(mixed.weights, expected.weights)
        assert minimize_beta2(pair, mixed, TIGHT).value == pytest.approx(value, abs=1e-12)
        scan = [minimize_beta2(pair, mixture(start, x_new, a), TIGHT).value
                for a in np.linspace(0, 1, 1001)]
        assert value == pytest.approx(max(scan), abs=1e-6)
        assert abs(alpha - np.linspace(0, 1, 1001)[int(np.argmax(scan))]) <= 2e-3

    def test_value_at_zero_equals_criterion(self):
        pair = cubic_quadratic_pair()
        d = cubic_quadratic_start()
        sol = minimize_beta2(pair, d, TIGHT)
        alpha, _, step = line_search_alpha(pair, d, d.points[0], sol, TIGHT)
        if alpha == 0.0:
            assert step.value == pytest.approx(sol.value, abs=1e-10)

    def test_point_outside_space_raises(self):
        pair, start = cubic_quadratic_pair(), cubic_quadratic_start()
        with pytest.raises(DomainError):
            line_search_alpha(pair, start, [2.0], minimize_beta2(pair, start, TIGHT), TIGHT)

    def test_concavity_along_segments(self):
        rng = np.random.default_rng(83)
        pair = cubic_quadratic_pair()
        space = cubic_quadratic_space()
        for _ in range(10):
            m = int(rng.integers(2, 6))
            d = Design(space, rng.uniform(-1, 1, (m, 1)), rng.dirichlet(np.ones(m)))
            x = rng.uniform(-1, 1, 1)
            a, b = sorted(rng.uniform(0, 1, 2))
            g = [minimize_beta2(pair, mixture(d, x, t), TIGHT).value
                 for t in (a, (a + b) / 2, b)]
            assert g[1] >= (g[0] + g[2]) / 2 - 1e-8


LOGISTIC_SEGMENT_START = Design(logistic_space(), [[0.2], [0.6], [0.9]], [0.3, 0.3, 0.4])


def segment_case(family: str, regularized: bool, where: str):
    """A line search whose root find runs: pair, design, x_new and the
    regularization, with x_new new to the design, on one of its support
    points, or on a point of the reference design. The plain Gaussian box
    binds (beta2[1] <= 0.6)."""
    if family == "gaussian":
        pair = cubic_quadratic_pair(5.0 if regularized else 0.6)
        design = cubic_quadratic_start()
        reference = default_reference_design(pair, cubic_quadratic_space())
        reg = RegularizationConfig(gamma=0.2, xi_tilde=reference) if regularized else None
        x_new = {"new": [0.5], "support": design.points[2],
                 "reference": reference.points[1]}[where]
    else:
        pair, design = logistic_pair(), LOGISTIC_SEGMENT_START
        reference = logistic_reference_design()
        reg = RegularizationConfig(gamma=0.05, xi_tilde=reference) if regularized else None
        x_new = {"new": [0.45], "support": design.points[0],
                 "reference": reference.points[2]}[where]
    return pair, design, np.asarray(x_new, dtype=float), reg


class TestLineSearchSupport:
    """Every interior trial of one search is solved on one prepared support,
    with the same result, float for float, as a fresh solve of the mixture."""

    @pytest.mark.parametrize("family,regularized,where", [
        ("gaussian", False, "new"), ("gaussian", False, "support"),
        ("gaussian", True, "new"), ("gaussian", True, "reference"),
        ("logistic", False, "support"), ("logistic", True, "new"),
        ("logistic", True, "support"), ("logistic", True, "reference")])
    def test_trials_match_fresh_solves(self, family, regularized, where):
        pair, design, x_new, reg = segment_case(family, regularized, where)
        start = design if reg is None else blend_designs(design, reg.xi_tilde, reg.gamma)
        trials, steps = [], []

        def spy(pair, design, config, warm_start=None, **kwargs):
            sol = minimize_beta2(pair, design, config, warm_start, **kwargs)
            trials.append((design, warm_start, kwargs.get("support"), sol))
            return sol

        def root(f, *args, **kwargs):
            def recorded(a):
                if 0.0 < a < 1.0 and a not in steps:
                    steps.append(a)
                return f(a)
            return brentq(recorded, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algorithm, "minimize_beta2", spy)
            patch.setattr(algorithm, "brentq", root)
            line_search_alpha(pair, design, x_new, minimize_beta2(pair, start, TIGHT),
                              TIGHT, reg=reg)
        point_mass, *interior = trials
        assert point_mass[2] is None  # a = 1 is solved on its own points
        assert len(interior) == len(steps) >= 3
        support = interior[0][2]
        assert support is not None
        assert all(t[2] is support for t in interior)
        for a, (trial, warm, _, sol) in zip(steps, interior):
            expected = mixture(design, x_new, a)
            if reg is not None:
                expected = blend_designs(expected, reg.xi_tilde, reg.gamma)
            np.testing.assert_array_equal(trial.points, expected.points)
            np.testing.assert_array_equal(trial.weights, expected.weights)
            fresh = minimize_beta2(pair, expected, TIGHT, warm_start=warm)
            np.testing.assert_array_equal(sol.beta2_hat, fresh.beta2_hat)
            assert (sol.value, sol.singular_flag, sol.at_boundary) == (
                fresh.value, fresh.singular_flag, fresh.at_boundary)


SEGMENT_REFERENCE = Design(DesignSpace([-1.0], [1.0]), np.linspace(0.2, 1.0, 6)[:, None],
                           np.full(6, 1 / 6))


@st.composite
def segments(draw, family: str, regularized: bool):
    """A line search's pair, design and regularization, with an interior step
    a at which to compare the slope with the derivative."""
    d2 = draw(st.integers(1, 3))
    exponents = sorted(draw(st.lists(st.integers(0, 4), min_size=d2, max_size=d2,
                                     unique=True)))
    beta1 = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
    if family == "logistic":
        pair = LogisticGlmPair(
            beta1, exponents, ParamBox([-10.0] * d2, [10.0] * d2))
    else:
        pair = GaussianRegressionPair(
            beta1, exponents, ParamBox([-50.0] * d2, [50.0] * d2),
            draw(st.floats(0.2, 2.0)))
    m = draw(st.integers(1, 5))
    points = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    design = Design(SEGMENT_REFERENCE.space, np.array(points)[:, None], raw / raw.sum())
    reg = None
    if regularized:
        reg = RegularizationConfig(gamma=draw(st.sampled_from([0.05, 0.2])),
                                   xi_tilde=SEGMENT_REFERENCE)
    return pair, design, reg, draw(st.floats(0.05, 0.95))


class TestLineSearchProperties:
    @pytest.mark.parametrize("regularized", [False, True], ids=["plain", "regularized"])
    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=4)
    @given(data=st.data())
    def test_step_is_the_maximum_and_the_slope_is_the_derivative(self, family,
                                                                 regularized, data):
        pair, design, reg, a = data.draw(segments(family, regularized))

        def solve(t, warm=None):
            target = mixture(design, x_new, t) if t > 0.0 else design
            if reg is not None:
                target = blend_designs(target, reg.xi_tilde, reg.gamma)
            return minimize_beta2(pair, target, TIGHT, warm_start=warm)

        # the segment the loop takes: toward the top of the psi scan
        x_new, _ = best_support_candidate(pair, design, solve(0.0).beta2_hat,
                                          design.space)

        # the slope line_search_alpha hands to its root find, if it gets there
        slopes = []

        def spy(f, *args, **kwargs):
            slopes.append(f)
            return brentq(f, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algorithm, "brentq", spy)
            alpha, _, step = line_search_alpha(pair, design, x_new, solve(0.0), TIGHT,
                                               reg=reg)
        value = step.value
        assert value == pytest.approx(solve(alpha).value, abs=1e-9)
        scan, warm = [], None
        for t in np.linspace(0.0, 1.0, 1001):
            sol = solve(t, warm)
            scan.append(sol.value)
            warm = sol.beta2_hat
        assert value >= max(scan) - 1e-9
        if slopes and not solve(a).singular_flag:
            h = 1e-5
            derivative = (solve(a + h).value - solve(a - h).value) / (2 * h)
            assert slopes[0](a) == pytest.approx(derivative, rel=1e-6, abs=1e-10)


class TestRestrictedDual:
    """The best weights on fixed points; for a nested Gaussian pair they are
    the multipliers of the discrete Chebyshev approximation."""

    def test_cubic_on_the_chebyshev_extrema(self):
        points = cubic_quadratic_optimum().points
        multipliers, beta, value = restricted_dual(cubic_quadratic_pair(), points)
        np.testing.assert_allclose(multipliers / multipliers.sum(),
                                   [1 / 6, 1 / 3, 1 / 3, 1 / 6], atol=1e-12)
        assert value == pytest.approx(1 / 16, abs=1e-12)
        np.testing.assert_allclose(beta, OPT_BETA, atol=1e-12)

    def test_quartic_on_the_chebyshev_extrema(self):
        # x^4 - T4 / 8 is the best cubic, with error 1/8 and value (1/8)^2
        pair = GaussianRegressionPair(
            [0.0, 0.0, 0.0, 0.0, 1.0], [0, 1, 2, 3], ParamBox([-5.0] * 4, [5.0] * 4), 0.5)
        points = np.array([-1.0, -np.sqrt(0.5), 0.0, np.sqrt(0.5), 1.0])[:, None]
        multipliers, _, value = restricted_dual(pair, points)
        np.testing.assert_allclose(multipliers / multipliers.sum(),
                                   [1 / 8, 1 / 4, 1 / 4, 1 / 4, 1 / 8], atol=1e-12)
        assert value == pytest.approx(1 / 64, abs=1e-12)

    def test_extra_points_get_zero_weight(self):
        points = np.array([-1.0, -0.5, 0.0, 0.5, 0.8, 1.0])[:, None]
        multipliers, _, value = restricted_dual(cubic_quadratic_pair(), points,
                                                [0.3, 0.2, -0.4])
        assert multipliers[2] == 0.0 and multipliers[4] == 0.0
        np.testing.assert_allclose(multipliers[[0, 1, 3, 5]] / multipliers.sum(),
                                   [1 / 6, 1 / 3, 1 / 3, 1 / 6], atol=1e-12)
        assert value == pytest.approx(1 / 16, abs=1e-12)

    def test_logistic_value_is_the_criterion_of_its_design(self):
        # nothing in the dual is Gaussian: a regular logistic pair on a grid
        pair = LogisticGlmPair([1.0, -2.0, 1.5], [0, 1], ParamBox([-10.0] * 2, [10.0] * 2))
        space = DesignSpace([0.0], [1.0])
        points = space.grid(41)
        multipliers, beta, value = restricted_dual(pair, points)
        keep = multipliers > 0.0
        design = Design(space, points[keep], multipliers[keep] / multipliers[keep].sum())
        sol = minimize_beta2(pair, design, TIGHT, warm_start=beta)
        assert sol.value == pytest.approx(value, abs=1e-10)
        assert np.max(pair.divergence(points, beta)) == pytest.approx(value, abs=1e-10)

    def test_regularized_value_is_the_criterion_of_its_design(self):
        # the multipliers sum to 1 - gamma, and the design they weight,
        # blended with the reference, has the dual value as its criterion
        pair, space = cubic_quadratic_pair(), cubic_quadratic_space()
        reg = RegularizationConfig(gamma=0.2,
                                   xi_tilde=default_reference_design(pair, space))
        points = np.array([-1.0, -0.6, 0.1, 0.8, 1.0])[:, None]
        multipliers, _, value = restricted_dual(pair, points, reg=reg)
        assert multipliers.sum() == pytest.approx(0.8, abs=1e-9)
        design = Design(space, points, multipliers / multipliers.sum())
        blended = blend_designs(design, reg.xi_tilde, reg.gamma)
        assert minimize_beta2(pair, blended, TIGHT).value == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize("regularized", [False, True], ids=["plain", "regularized"])
    def test_a_binding_box(self, regularized):
        # with the box at +-0.5 the slope 0.75 of the best quadratic is out of
        # reach: beta2[1] stops at the bound, and the dual value is still the
        # criterion of the design its multipliers weight
        pair, space = cubic_quadratic_pair(bound=0.5), cubic_quadratic_space()
        reg = (RegularizationConfig(gamma=0.2,
                                    xi_tilde=default_reference_design(pair, space))
               if regularized else None)
        gamma = reg.gamma if regularized else 0.0
        points = np.array([-1.0, -0.6, 0.1, 0.8, 1.0])[:, None]
        multipliers, beta, value = restricted_dual(pair, points, reg=reg)
        assert multipliers.sum() == pytest.approx(1.0 - gamma, abs=1e-12)
        assert beta[1] == pytest.approx(0.5, abs=1e-12)
        keep = multipliers > 0.0
        design = Design(space, points[keep], multipliers[keep] / multipliers.sum())
        target = design if reg is None else blend_designs(design, reg.xi_tilde, gamma)
        assert minimize_beta2(pair, target, TIGHT).value == pytest.approx(value, abs=1e-10)


def counting_slsqp(patch) -> list:
    """Patch the SLSQP call of `restricted_dual`; the returned list collects
    (evaluations, status) of every solve."""
    solves = []

    def spy(*args, **kwargs):
        res = minimize(*args, **kwargs)
        solves.append((res.nfev, res.status))
        return res

    patch.setattr(algorithm, "minimize", spy)
    return solves


class TestCorrectiveStep:
    def test_no_step_at_the_optimum(self):
        pair, opt = cubic_quadratic_pair(), cubic_quadratic_optimum()
        sol = minimize_beta2(pair, opt, TIGHT)
        alpha, design, step = corrective_step(pair, opt, [0.3], sol,
                                              cubic_quadratic_space(), TIGHT)
        assert (alpha, design, step) == (0.0, opt, sol)

    def test_new_support_lies_among_the_candidates(self):
        # the support, x_new, and the roots of r' and ends of the domain
        # where psi > 0
        pair, design, space = (cubic_quadratic_pair(), cubic_quadratic_start(),
                               cubic_quadratic_space())
        start = minimize_beta2(pair, design, TIGHT)
        x_new, _ = best_support_candidate(pair, design, start.beta2_hat, space)
        _, new, _ = corrective_step(pair, design, x_new, start, space, TIGHT)
        candidates, psi = psi_scan(pair, design, start.beta2_hat, space, grid_size=2)
        allowed = np.concatenate([design.points[:, 0], x_new, candidates[psi > 0.0, 0]])
        for x in new.points[:, 0]:
            assert np.min(np.abs(allowed - x)) == 0.0
        assert new.size < allowed.size  # points of zero weight left

    @pytest.mark.parametrize("regularized", [False, True], ids=["plain", "regularized"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(data=st.data())
    def test_at_least_the_line_search_step(self, regularized, data):
        pair, design, reg, _ = data.draw(segments("gaussian", regularized))
        target = design if reg is None else blend_designs(design, reg.xi_tilde, reg.gamma)
        start = minimize_beta2(pair, target, TIGHT)
        x_new, _ = best_support_candidate(pair, design, start.beta2_hat, design.space)
        alpha, new, step = corrective_step(pair, design, x_new, start, design.space,
                                           TIGHT, reg=reg)
        searched = line_search_alpha(pair, design, x_new, start, TIGHT, reg=reg)[2]
        assert step.value >= searched.value - 1e-9 * max(1.0, searched.value)
        if step is start:
            assert (alpha, new) == (0.0, design)
            return
        assert validate_design(new).ok
        assert alpha == new.weight_at(x_new)
        assert step.value > start.value
        fresh = new if reg is None else blend_designs(new, reg.xi_tilde, reg.gamma)
        assert minimize_beta2(pair, fresh, TIGHT).value == pytest.approx(step.value,
                                                                         abs=1e-9)


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
        for rec in ctx.benchmark_run().history:
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

    def test_each_design_is_solved_once(self):
        # the loop solves the start, then each iteration that steps solves its
        # new design once; the stopping iteration solves nothing
        solved, solved_by = [], []

        def spy(pair, design, *args, **kwargs):
            solved.append((design.points.tobytes(), design.weights.tobytes()))
            return minimize_beta2(pair, design, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algorithm, "minimize_beta2", spy)
            run = run_first_order(cubic_quadratic_pair(), cubic_quadratic_start(),
                                  cubic_quadratic_space(),
                                  AlgoConfig(delta=1.0 - 1e-12, max_iterations=10),
                                  benchmark_inner_config(),
                                  on_iteration=lambda r: solved_by.append(len(solved)))
        assert run.termination_reason == EFFICIENCY_REACHED
        assert len(run.history) >= 4
        assert np.diff([1] + solved_by).tolist() == [1] * (len(run.history) - 1) + [0]
        assert len(set(solved)) == len(solved)

    def test_random_nested_gaussian_instances_reach_delta(self):
        # Truth of degree d, the rival every lower monomial, four random start
        # points: a regular problem each. Support collapsing and pruning used
        # to undo steps on some and leave others singular. Every dual ends
        # with SLSQP's status 0, not 8 (a line search that cannot descend).
        rng = np.random.default_rng(7)
        space = DesignSpace([-1.0], [1.0])
        reasons = []
        with pytest.MonkeyPatch.context() as patch:
            solves = counting_slsqp(patch)
            for _ in range(25):
                d = int(rng.integers(2, 5))
                pair = GaussianRegressionPair(
                    rng.normal(size=d + 1), list(range(d)),
                    ParamBox([-50.0] * d, [50.0] * d), 0.5)
                start = Design(space, rng.uniform(-1.0, 1.0, 4)[:, None],
                               rng.dirichlet(np.ones(4)))
                run = run_first_order(pair, start, space,
                                      AlgoConfig(delta=0.99, max_iterations=300),
                                      benchmark_inner_config())
                reasons.append(run.termination_reason)
        assert reasons == [EFFICIENCY_REACHED] * 25
        assert len(solves) >= 25
        assert [status for _, status in solves] == [0] * len(solves)

    def test_dual_work_is_invariant_under_scale_and_position(self):
        # The dual is solved in residual units, so neither sigma2 nor the
        # affine image z = 2 + 4x changes the SLSQP work of any step (a few
        # evaluations each), and every run ends at the image of the same design.
        amap = AffineMap([2.0], [[4.0]])
        space, start = cubic_quadratic_space(), cubic_quadratic_start()
        counts, finals = [], []
        for sigma2 in [0.5, 0.05, 0.005, 0.0005]:
            pair = replace(cubic_quadratic_pair(), sigma2=sigma2)
            for problem in [(pair, start, space),
                            (reparametrize_under_affine(pair, amap),
                             transform_design(start, amap), amap.image_box(space))]:
                with pytest.MonkeyPatch.context() as patch:
                    solves = counting_slsqp(patch)
                    run = run_first_order(*problem, AlgoConfig(delta=0.99),
                                          benchmark_inner_config())
                assert run.termination_reason == EFFICIENCY_REACHED
                counts.append([evaluations for evaluations, _ in solves])
                finals.append(run.final_design)
        assert len(counts[0]) >= 2 and max(counts[0]) <= 4
        assert counts == [counts[0]] * len(counts)
        finals[0::2] = [transform_design(d, amap) for d in finals[0::2]]
        assert max(wasserstein_distance(finals[0], d) for d in finals) <= 1e-12

    def test_affine_image_takes_the_same_steps(self):
        # the step is equivariant under z = 2 + 4x: the same values, and the
        # image of each design
        amap = AffineMap([2.0], [[4.0]])
        algo = AlgoConfig(delta=1.0 - 1e-9, max_iterations=10)
        pair, start, space = (cubic_quadratic_pair(), cubic_quadratic_start(),
                              cubic_quadratic_space())
        run = run_first_order(pair, start, space, algo, FAST)
        image = run_first_order(reparametrize_under_affine(pair, amap),
                                transform_design(start, amap), amap.image_box(space),
                                algo, FAST)
        assert len(image.history) == len(run.history) >= 4
        for a, b in zip(run.history, image.history):
            assert b.value == pytest.approx(a.value, abs=1e-15)
            mapped = transform_design(a.design, amap)
            assert wasserstein_distance(mapped, b.design) <= 1e-13

    @pytest.mark.parametrize("offset, scale", [(1e3, 1.0), (1e3, -1e3), (1e3, 1e-3),
                                               (1e6, 1.0), (1e6, -1e3), (1e6, 1e-3)])
    def test_far_images_of_the_shipped_start_reach_delta(self, offset, scale):
        # the image pair evaluates in its frame, so an offset far from the
        # domain costs no digits
        amap = AffineMap(offset, scale)
        pair, start, space = (cubic_quadratic_pair(), cubic_quadratic_start(),
                              cubic_quadratic_space())
        run = run_first_order(reparametrize_under_affine(pair, amap),
                              transform_design(start, amap), amap.image_box(space),
                              AlgoConfig(delta=0.99), benchmark_inner_config())
        assert run.termination_reason == EFFICIENCY_REACHED
        pulled_back = transform_design(run.final_design, amap.inverted())
        assert wasserstein_distance(pulled_back, cubic_quadratic_optimum()) <= 0.02

    def test_regularized_gaussian_run_from_a_one_point_start(self):
        # the plain loop hands a one-point start off; the regularized loop
        # takes the corrective step from it
        pair, space = cubic_quadratic_pair(), cubic_quadratic_space()
        run = run_regularized(pair, Design(space, [[0.0]], [1.0]), space,
                              AlgoConfig(delta=0.99, max_iterations=50), FAST,
                              RegularizationConfig(gamma=0.05))
        assert run.termination_reason == EFFICIENCY_REACHED
        values = [r.value for r in run.history]
        assert np.all(np.diff(values) > 0.0)

    def test_logistic_loop_steps_to_the_raw_mixture(self, ctx):
        # no support is merged or dropped: each iterate is the blend of the
        # last with a point mass at its best point, float for float
        steps = 0
        for run in (ctx.logistic_plain_run(), ctx.logistic_regularized_run()):
            for rec, following in zip(run.history, run.history[1:]):
                expected = mixture(rec.design, rec.best_point, rec.alpha)
                np.testing.assert_array_equal(following.design.points, expected.points)
                np.testing.assert_array_equal(following.design.weights, expected.weights)
                steps += 1
        assert steps >= 2

    def test_one_point_start_hands_off(self):
        # value 0 with psi_max > 0 gives U = 0, not an undefined bound
        space = cubic_quadratic_space()
        with pytest.warns(UserWarning, match="rank deficient"):
            run = run_first_order(cubic_quadratic_pair(), Design(space, [[0.0]], [1.0]),
                                  space, AlgoConfig(), FAST)
        assert run.termination_reason == STALLED_REGULARIZED
        assert run.history[0].value == 0.0
        assert run.history[0].psi_max > 0.0
        assert run.history[0].efficiency == 0.0

    def test_logistic_plain_run_hands_off(self, ctx):
        run = ctx.logistic_plain_run()
        assert run.termination_reason == STALLED_REGULARIZED
        assert not run.regularized

    def test_singular_design_is_not_certified(self):
        # The loop moves all mass to x = 0 at iteration 3, where the intercept-free
        # rival is singular and U = 1 is read off an arbitrary minimizer.
        pair = LogisticGlmPair(
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

    def test_plain_run_refuses_the_synthetic_family(self):
        start = Design(DesignSpace([0.0], [1.0]), [[0.2], [0.9]], [0.5, 0.5])
        with pytest.raises(UnsupportedModelError):
            run_first_order(SyntheticFamily(), start, start.space)

    def test_regularized_run_refuses_the_synthetic_family(self):
        start = Design(DesignSpace([0.0], [1.0]), [[0.2], [0.9]], [0.5, 0.5])
        with pytest.raises(UnsupportedModelError):
            run_regularized(SyntheticFamily(), start, start.space, AlgoConfig(),
                            InnerConfig(), RegularizationConfig())

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

"""Outer exchange loop: derivative, best-point search, steps, runs."""

import contextlib
import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from kldesign import algorithm, inner
from kldesign.algorithm import (EFFICIENCY_REACHED, STALLED, STALLED_REGULARIZED,
                                AlgoConfig, RegularizationConfig, _slope_root,
                                best_support_candidate, corrective_step,
                                default_reference_design, efficiency_bound,
                                line_search_alpha, psi_grid, psi_scan,
                                restricted_dual, run_first_order, run_regularized)
from kldesign.benchmarks import (BenchmarkContext, SyntheticFamily,
                                 _kl_average as kl_average, benchmark_inner_config,
                                 cubic_quadratic_optimum, cubic_quadratic_pair,
                                 cubic_quadratic_space, cubic_quadratic_start,
                                 logistic_pair, logistic_reference_design,
                                 logistic_space, logistic_start_design)
from kldesign.designs import (AffineMap, Design, DesignSpace, blend_designs,
                              transform_design, validate_design, wasserstein_distance)
from kldesign.errors import DomainError, UndefinedEfficiencyError, UnsupportedModelError
from kldesign.inner import InnerConfig, minimize_beta2, prepare_support
from kldesign.models import (GaussianRegressionPair, LogisticGlmPair, ParamBox,
                             PolynomialPair, reparametrize_under_affine)
from kldesign.verify import CERTIFIED, equivalence_check

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
        pair, space = cubic_quadratic_pair(), cubic_quadratic_space()
        points, psi = psi_scan(pair, cubic_quadratic_optimum(), OPT_BETA, space,
                               psi_grid(pair, space, 3))
        assert points[1, 0] == 0.0
        assert psi[1] == pytest.approx(-0.0625, abs=1e-15)

    def test_zero_at_support_points(self):
        pair, space = cubic_quadratic_pair(), cubic_quadratic_space()
        opt = cubic_quadratic_optimum()
        points, psi = psi_scan(pair, opt, OPT_BETA, space, psi_grid(pair, space, 3))
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
            _, psi = psi_scan(pair, d, b, space, None)
            assert abs(float(d.weights @ psi[:m])) <= 1e-10


    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    def test_a_held_grid_evaluator_gives_the_same_scan(self, family):
        # the grid's nodes, the support, then a Gaussian pair's ends and roots
        # of r'; psi is the divergence less its average over the design. A
        # logistic support's rows are the leading rows of `pointwise` as
        # given, the floats of a Support prepared on its points when None; a
        # Gaussian scan reads no `pointwise`
        if family == "gaussian":
            pair, design, space = (cubic_quadratic_pair(), cubic_quadratic_start(),
                                   cubic_quadratic_space())
            beta = np.array([0.1, 0.6, -0.2])
            tail = [space.lower, space.upper,
                    pair.residual_critical_points(beta, -1.0, 1.0)]
        else:
            pair, design, space = logistic_pair(), LOGISTIC_SEGMENT_START, logistic_space()
            beta, tail = np.array([1.5, -0.5]), []
        grid = psi_grid(pair, space, 101)
        points, psi = psi_scan(pair, design, beta, space, grid)
        np.testing.assert_array_equal(points, np.vstack([grid.points, design.points,
                                                         *tail]))
        values = pair.divergence(points, beta)
        average = design.weights @ values[101:101 + design.size]
        np.testing.assert_allclose(psi, values - average, rtol=0, atol=1e-15)
        rows = prepare_support(pair, design.points).pointwise(beta)
        if family == "logistic":
            assert psi[101:].tobytes() == (rows - design.weights @ rows).tobytes()
        for held in (rows, np.append(rows, [np.nan, 1.0]),
                     *([np.full(design.size, np.nan)] if family == "gaussian" else [])):
            held_points, held_psi = psi_scan(pair, design, beta, space, grid,
                                             pointwise=held)
            assert held_points.tobytes() == points.tobytes()
            assert held_psi.tobytes() == psi.tobytes()
        without = psi_scan(pair, design, beta, space, None)
        assert without[0].tobytes() == points[101:].tobytes()
        assert without[1].tobytes() == psi[101:].tobytes()


class TestPsiGrid:
    def test_the_same_request_gets_the_same_support(self):
        pair, space = logistic_pair(), logistic_space()
        grid = psi_grid(pair, space, 101)
        np.testing.assert_array_equal(grid.points, space.grid(101))
        assert psi_grid(pair, DesignSpace([0.0], [1.0]), 101) is grid

    def test_another_pair_size_or_frame_gets_a_new_support(self):
        pair, space = logistic_pair(), logistic_space()
        amap = AffineMap([2.0], [[4.0]])
        for other, other_space, size in ((logistic_pair(), space, 101),
                                         (pair, space, 201),
                                         (pair, DesignSpace([0.0], [2.0]), 101),
                                         (reparametrize_under_affine(pair, amap),
                                          amap.image_box(space), 101),
                                         (reparametrize_under_affine(pair, amap),
                                          space, 101)):
            grid = psi_grid(pair, space, 101)
            fresh = psi_grid(other, other_space, size)
            assert fresh is not grid
            np.testing.assert_array_equal(fresh.points, other_space.grid(size))

    def test_only_the_last_grid_is_kept(self):
        first, second, space = logistic_pair(), logistic_pair(), logistic_space()
        grid = psi_grid(first, space, 101)
        psi_grid(second, space, 101)
        assert psi_grid(first, space, 101) is not grid  # the first one was dropped
        released = weakref.ref(second)
        del second
        gc.collect()
        assert released() is None  # and so was the pair it held


@st.composite
def gaussian_scans(draw):
    """(pair, design, beta2, space): a Gaussian pair of random degree and
    exponents on a random interval, a random design and beta2, and in half
    the draws all of it mapped by a random affine frame."""
    d2 = draw(st.integers(1, 4))
    exponents = sorted(draw(st.lists(st.integers(0, 5), min_size=d2, max_size=d2,
                                     unique=True)))
    beta1 = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
    pair = GaussianRegressionPair(beta1, exponents, ParamBox([-5.0] * d2, [5.0] * d2),
                                  draw(st.floats(0.2, 2.0)))
    lower = draw(st.floats(-2.0, 1.0))
    space = DesignSpace([lower], [lower + draw(st.floats(0.1, 3.0))])
    m = draw(st.integers(1, 6))
    points = draw(st.lists(st.floats(space.lower[0], space.upper[0]), min_size=m,
                           max_size=m))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    design = Design(space, np.array(points)[:, None], raw / raw.sum())
    beta = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=d2, max_size=d2)))
    if draw(st.booleans()):
        amap = AffineMap(draw(st.floats(-10.0, 10.0)),
                         draw(st.sampled_from([-3.0, -0.5, 0.25, 2.0, 40.0])))
        pair = reparametrize_under_affine(pair, amap)
        design, space = transform_design(design, amap), amap.image_box(space)
    return pair, design, beta, space


class TestBestSupportCandidate:
    def test_matches_brute_force_grid(self):
        # residual is symmetric for the delta_0 fit, maximizer at an endpoint
        pair = cubic_quadratic_pair()
        space = cubic_quadratic_space()
        d0 = Design(space, [[0.0]], [1.0])
        sol = minimize_beta2(pair, d0, TIGHT)
        x, psi, _ = best_support_candidate(pair, d0, sol.beta2_hat, space, None)
        grid = np.linspace(-1, 1, 10000)
        brute = grid[np.argmax(pair.divergence(grid, sol.beta2_hat))]
        assert abs(abs(x[0]) - 1.0) <= 1e-6
        assert abs(abs(brute) - 1.0) <= 1e-3
        assert psi >= 0.0

    def test_candidates_are_the_scan_rows(self):
        # (x, psi) is the first largest row of psi_scan on the same arguments,
        # whose rows it returns as they stand, with a grid or without
        for pair, design, space, beta in (
                (cubic_quadratic_pair(), cubic_quadratic_start(), cubic_quadratic_space(),
                 np.array([0.1, 0.6, -0.2])),
                (logistic_pair(), LOGISTIC_SEGMENT_START, logistic_space(),
                 np.array([1.5, -0.5]))):
            for grid in (None, psi_grid(pair, space, algorithm.PSI_GRID_SIZE)):
                x, psi, scan = best_support_candidate(pair, design, beta, space, grid)
                expected = psi_scan(pair, design, beta, space, grid)
                for got, rows in zip(scan, expected):
                    assert got.tobytes() == rows.tobytes()
                i = int(np.argmax(expected[1]))
                assert_same_top((x, psi), (expected[0][i], float(expected[1][i])))

    def test_zero_gap_at_the_optimum(self):
        pair = cubic_quadratic_pair()
        opt = cubic_quadratic_optimum()
        sol = minimize_beta2(pair, opt, TIGHT)
        _, psi, _ = best_support_candidate(pair, opt, sol.beta2_hat,
                                           cubic_quadratic_space(), None)
        assert abs(psi) <= 1e-8

    def test_constant_divergence(self):
        pair = logistic_pair()
        d0 = Design(logistic_space(), [[0.0]], [1.0])
        # with this beta2 the divergence is largest at 0 and the design sits there
        sol = minimize_beta2(pair, blend_designs(d0, logistic_reference_design(),
                                                 0.05), TIGHT)
        x, psi, _ = best_support_candidate(pair, d0, sol.beta2_hat, logistic_space(),
                                           loop_grid(pair, logistic_space()))
        assert x[0] == pytest.approx(0.0, abs=1e-9)
        assert psi == pytest.approx(0.0, abs=1e-9)


    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(gaussian_scans(), st.integers(2, 21))
    def test_gaussian_scan_maximum_is_exact(self, scan, grid_size):
        # no dense grid finds a larger psi than a coarse scan, whose best
        # candidate attains the psi it reports
        pair, design, beta, space = scan
        candidates, psi = psi_scan(pair, design, beta, space,
                                   psi_grid(pair, space, grid_size))
        i = int(np.argmax(psi))
        average = kl_average(pair, design, beta)
        # psi is a difference of divergences, so rounding scales with them
        value = float(np.max(pair.divergence(space.grid(200_001), beta)))
        tol = 1e-12 * max(1.0, value)
        assert psi[i] >= value - average - tol
        attained = float(pair.divergence(candidates[i], beta)[0]) - average
        assert attained == pytest.approx(psi[i], abs=tol)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(gaussian_scans())
    def test_gaussian_candidates_hold_the_grid_maximum(self, scan):
        # a Gaussian loop scans only the ends, the support and the roots of
        # r'; no node of the certificate's grid finds a larger psi
        pair, design, beta, space = scan
        _, psi, _ = best_support_candidate(pair, design, beta, space, None)
        grid_max = float(np.max(psi_scan(pair, design, beta, space, psi_grid(
            pair, space, algorithm.PSI_GRID_SIZE))[1]))
        tol = 1e-12 * max(1.0, float(np.max(pair.divergence(design.points, beta))),
                          abs(grid_max))
        assert psi >= grid_max - tol


    @pytest.mark.parametrize("size", [2, 101, 4001])
    def test_a_held_grid_of_any_size(self, size):
        # the loop's top on a held grid of any size is the certificate's at
        # that size, float for float
        pair, design, space = logistic_pair(), LOGISTIC_SEGMENT_START, logistic_space()
        sol = minimize_beta2(pair, design)
        report = equivalence_check(pair, design, space, grid_size=size)
        top = best_support_candidate(pair, design, sol.beta2_hat, space,
                                     psi_grid(pair, space, size), pointwise=sol.pointwise)
        assert report.beta2_hat.tobytes() == sol.beta2_hat.tobytes()
        assert_same_top(top, (report.psi_argmax, report.psi_max))

    def test_the_loop_and_the_certificate_read_the_same_floats(self):
        # at the same beta2 the loop's top is the certificate's, bit for bit;
        # before the two read one scan, they differed on 43 of these 300
        # instances
        rng = np.random.default_rng(2031)
        for k in range(300):
            pair, design, _, space, grid = logistic_scan_instance(rng, k % 2 == 0)
            sol = minimize_beta2(pair, design)
            x, psi, _ = best_support_candidate(pair, design, sol.beta2_hat, space, grid,
                                               pointwise=sol.pointwise)
            report = equivalence_check(pair, design, space)
            assert report.beta2_hat.tobytes() == sol.beta2_hat.tobytes()
            assert_same_top((x, psi), (report.psi_argmax, report.psi_max))

    def test_the_regularized_loop_and_certificate_read_the_same_floats(self):
        # a regularized loop's top, read off its solve on the blend with the
        # reference and scaled by 1 - gamma, is the regularized certificate's
        # at the same design, bit for bit
        rng = np.random.default_rng(2037)
        reg = RegularizationConfig(gamma=0.05)
        for k in range(300):
            pair, design, _, space, grid = logistic_scan_instance(rng, k % 2 == 0)
            reference = default_reference_design(pair, space)
            sol = minimize_beta2(pair, blend_designs(design, reference, reg.gamma))
            x, psi, _ = best_support_candidate(pair, design, sol.beta2_hat, space, grid,
                                               pointwise=sol.pointwise)
            report = equivalence_check(pair, design, space, reg=reg)
            assert report.beta2_hat.tobytes() == sol.beta2_hat.tobytes()
            assert_same_top((x, (1.0 - reg.gamma) * psi),
                            (report.psi_argmax, report.psi_max))

    def test_a_held_support_gives_the_same_top(self):
        # the design's rows given alone, given with a reference's rows after
        # them (as a regularized solve holds them) or not given give the same
        # top, float for float; where the grid's and the support's maxima
        # tie, the grid node wins
        rng = np.random.default_rng(2029)
        ties = above = 0
        for k in range(120):
            pair, design, beta, space, grid = logistic_scan_instance(rng, k % 2 == 0)
            rows = prepare_support(pair, design.points).pointwise(beta)
            reference = prepare_support(pair, space.grid(3)).pointwise(beta)
            expected = best_support_candidate(pair, design, beta, space, grid)
            for held in (rows, np.concatenate([rows, reference])):
                assert_same_top(best_support_candidate(pair, design, beta, space, grid,
                                                       pointwise=held), expected)
            psi, size = expected[2][1], len(grid.points)
            lead = psi[size:].max() - psi[:size].max()
            ties, above = ties + (lead == 0.0), above + (lead > 0.0)
            if lead == 0.0:
                assert int(np.argmax(psi)) < size
        assert ties >= 10 and above >= 1  # 56 and 2 of the 120

    def test_a_grid_node_tied_with_the_support_wins(self):
        # a rival that attains a constant truth: psi is 0 on every row, and
        # the top of the scan is the first grid node
        pair = LogisticGlmPair([0.7], [0], ParamBox([-5.0], [5.0]))
        space, beta = logistic_space(), np.array([0.7])
        design = LOGISTIC_SEGMENT_START
        x, psi, (_, rows) = best_support_candidate(
            pair, design, beta, space, psi_grid(pair, space, algorithm.PSI_GRID_SIZE),
            pointwise=prepare_support(pair, design.points).pointwise(beta))
        assert x.tolist() == [0.0] and psi == 0.0 and not rows.any()


def loop_grid(pair, space):
    """The grid the loop scans: none for a Gaussian pair, whose scan is
    exact without one, and the `PSI_GRID_SIZE`-node grid otherwise."""
    if isinstance(pair, GaussianRegressionPair):
        return None
    return psi_grid(pair, space, algorithm.PSI_GRID_SIZE)


def assert_same_top(got, expected):
    """Two scans' (x, psi, ...) tops hold the same x and psi, bit for bit."""
    (x, psi), (x0, psi0) = got[:2], expected[:2]
    assert x.tobytes() == x0.tobytes() and x.shape == (1,)
    assert psi.hex() == psi0.hex()


def logistic_scan_instance(rng, on_peak: bool):
    """(pair, design, beta2, space, grid): a logistic pair of random degree
    and exponents, an interval, a random design (holding the grid node where
    the divergence at beta2 peaks when `on_peak`), a beta2 in the box, and
    the interval's `PSI_GRID_SIZE`-node grid (`psi_grid`)."""
    d2 = int(rng.integers(1, 4))
    exponents = sorted(rng.choice(5, d2, replace=False).tolist())
    pair = LogisticGlmPair(rng.uniform(-2.0, 2.0, int(rng.integers(1, 5))), exponents,
                           ParamBox([-10.0] * d2, [10.0] * d2))
    lower = float(rng.uniform(-2.0, 1.0))
    space = DesignSpace([lower], [lower + float(rng.uniform(0.1, 3.0))])
    grid = psi_grid(pair, space, algorithm.PSI_GRID_SIZE)
    beta = rng.uniform(-3.0, 3.0, d2)
    m = int(rng.integers(1, 7))
    points = rng.uniform(space.lower[0], space.upper[0], (m, 1))
    if on_peak:
        points[rng.integers(m)] = grid.points[np.argmax(grid.pointwise(beta))]
    return pair, Design(space, points, rng.dirichlet(np.ones(m))), beta, space, grid


class TestAlgoConfig:
    @pytest.mark.parametrize("iterations", [2.5, 3.0, True, 0, -1, "5"])
    def test_max_iterations_is_an_integer_of_at_least_one(self, iterations):
        # as a config file's `algorithm.max_iterations` is; `range` would
        # refuse a float only once the loop starts
        with pytest.raises(ValueError, match="max_iterations"):
            AlgoConfig(max_iterations=iterations)

    def test_a_numpy_integer_is_an_integer(self):
        assert AlgoConfig(max_iterations=np.int64(3)).max_iterations == 3


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
        x_new, psi, _ = best_support_candidate(pair, start, sol.beta2_hat,
                                               cubic_quadratic_space(), None)
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

    @pytest.mark.parametrize("where", ["new", "support", "near_support"])
    def test_trials_are_blends_with_the_point_mass(self, where):
        # each mixture the search solves, and the one it returns, is the
        # blend of the design with the point mass; an x_new within rounding
        # of a support point merges into it, and every a in (0, 1) weights
        # the same points, which the shared prepared support relies on
        rng = np.random.default_rng(5)
        pair, space = cubic_quadratic_pair(), cubic_quadratic_space()
        interior_trials = 0
        for _ in range(10):
            m = int(rng.integers(4, 7))
            d = Design(space, rng.uniform(-1.0, 1.0, (m, 1)), rng.dirichlet(np.ones(m)))
            sol = minimize_beta2(pair, d, TIGHT)
            top = d.points[int(np.argmax(pair.divergence(d.points, sol.beta2_hat)))]
            x = {"new": lambda: best_support_candidate(pair, d, sol.beta2_hat, space,
                                                       None)[0],
                 "support": lambda: top, "near_support": lambda: top + 5e-13}[where]()
            trials, steps = [], []

            def spy(pair, design, *args, **kwargs):
                trials.append(design)
                return minimize_beta2(pair, design, *args, **kwargs)

            def root(f, *args, **kwargs):
                return _slope_root(lambda a: steps.append(a) or f(a), *args, **kwargs)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(algorithm, "minimize_beta2", spy)
                patch.setattr(algorithm, "_slope_root", root)
                alpha, mixed, _ = line_search_alpha(pair, d, x, sol, TIGHT)
            assert alpha > 0.0
            point_mass, *interior = trials
            assert len(interior) == len(steps)
            for a, trial in [(1.0, point_mass), (alpha, mixed), *zip(steps, interior)]:
                expected = mixture(d, x, a)
                np.testing.assert_array_equal(trial.points, expected.points)
                np.testing.assert_array_equal(trial.weights, expected.weights)
            for trial in interior:
                assert trial.size == m + (where == "new")
                np.testing.assert_array_equal(trial.points, interior[0].points)
            interior_trials += len(interior)
        assert interior_trials > 0

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
            return _slope_root(lambda a: steps.append(a) or f(a), *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algorithm, "minimize_beta2", spy)
            patch.setattr(algorithm, "_slope_root", root)
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


    @pytest.mark.parametrize("regularized,where", [(False, "new"), (False, "support"),
                                                   (True, "new"), (True, "reference")])
    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    def test_each_point_set_is_prepared_once(self, family, regularized, where):
        # the slope's rows (the support, then x_new) are the interior trials'
        # points when x_new is new and no reference is blended in
        pair, design, x_new, reg = segment_case(family, regularized, where)
        start = design if reg is None else blend_designs(design, reg.xi_tilde, reg.gamma)
        prepared, supports = [], []

        def counted(pair, points):
            prepared.append(np.ravel(points))
            return prepare_support(pair, points)

        def spy(*args, support=None, **kwargs):
            supports.append(support)
            return minimize_beta2(*args, support=support, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algorithm, "prepare_support", counted)
            patch.setattr(algorithm, "minimize_beta2", spy)
            line_search_alpha(pair, design, x_new, minimize_beta2(pair, start, TIGHT),
                              TIGHT, reg=reg)
        assert supports[1:] and all(s is supports[1] for s in supports[1:])
        assert len(prepared) == (1 if where == "new" and not regularized else 2)
        if len(prepared) == 2:
            assert not np.array_equal(*prepared)


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


def assert_step_is_the_maximum_and_the_slope_is_the_derivative(pair, design, reg, a):
    """The line search's step is the best on its segment (a 1,001-step scan),
    and the slope it hands to its search is the derivative at a."""

    def solve(t, warm=None):
        target = mixture(design, x_new, t) if t > 0.0 else design
        if reg is not None:
            target = blend_designs(target, reg.xi_tilde, reg.gamma)
        return minimize_beta2(pair, target, TIGHT, warm_start=warm)

    # the segment the loop takes: toward the top of the psi scan
    x_new, _, _ = best_support_candidate(pair, design, solve(0.0).beta2_hat,
                                         design.space, loop_grid(pair, design.space))

    # the slope line_search_alpha hands to its search, if it gets there
    slopes = []

    def spy(f, *args, **kwargs):
        slopes.append(f)
        return _slope_root(f, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithm, "_slope_root", spy)
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
        assert slopes[0](a)[0] == pytest.approx(derivative, rel=1e-6, abs=1e-10)


class TestLineSearchProperties:
    @pytest.mark.parametrize("regularized", [False, True], ids=["plain", "regularized"])
    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=4)
    @given(data=st.data())
    def test_step_is_the_maximum_and_the_slope_is_the_derivative(self, family,
                                                                 regularized, data):
        assert_step_is_the_maximum_and_the_slope_is_the_derivative(
            *data.draw(segments(family, regularized)))

    def test_slope_where_a_warm_solve_ends_flat_to_rounding(self):
        # The warm solve at a = 0.8 used to stop 1.4e-8 short in beta2: its
        # last Newton step promised less decrease than the objective's
        # rounding, Armijo accepted only a tiny t, and the slope read off it
        # was 1.2e-5 off the derivative.
        pair = LogisticGlmPair([0.8048906951598931, 0.4, -0.6], [1],
                               ParamBox([-10.0], [10.0]))
        design = Design(SEGMENT_REFERENCE.space,
                        [[0.99], [-0.5050500874129561], [0.1608533523348401]],
                        [0.369837934883209, 0.1812616680396219, 0.44890039707716917])
        reg = RegularizationConfig(gamma=0.2, xi_tilde=SEGMENT_REFERENCE)
        assert_step_is_the_maximum_and_the_slope_is_the_derivative(pair, design, reg, 0.8)


def monotone_function(rng, k: int):
    """A seeded function decreasing through a root in (0, 1): a cubic with a
    linear term, a tanh, an exponential or a wavy line, in turn."""
    r, c = rng.uniform(0.01, 0.99), rng.uniform(0.1, 10.0)
    s, p = rng.uniform(0.5, 20.0), int(rng.integers(1, 6))
    return [lambda a: c * (r - a) ** 3 + 1e-3 * (r - a),
            lambda a: math.tanh(s * (r - a)),
            lambda a: c * (math.exp(-p * a) - math.exp(-p * r)),
            lambda a: c * (r - a) * (1.0 + 0.5 * math.sin(7.0 * a))][k % 4]


def plateau_slope(a: float) -> float:
    """A slope that falls steeply and then lies flat: -3.39e-4 at
    a = 0.0073, -4.18e-4 at 0.937 and a root at 0.00315, as the line search
    of a `logistic-singular` round meets it."""
    return 1.56 * math.exp(-2680.0 * a) - (3.39e-4 + 8.5e-5 * (a - 0.0073) / 0.9297)


class TestSlopeRoot:
    @staticmethod
    def search(f, xtol):
        """(the returned step, its payload, the trials) of `_slope_root` on f."""
        trials = []
        a, payload = _slope_root(lambda t: trials.append(t) or (f(t), -t), f(0.0), xtol)
        return a, payload, trials

    @pytest.mark.parametrize("xtol", [algorithm._STEP_XTOL, 1e-12])
    def test_finds_brentqs_root_within_xtol(self, xtol):
        bound = 4 * math.ceil(math.log2(1.0 / xtol))
        rng = np.random.default_rng(23)
        for k in range(2000):
            f = monotone_function(rng, k)
            a, payload, trials = self.search(f, xtol)
            assert abs(a - brentq(f, 0.0, 1.0, xtol=1e-15)) <= xtol, k
            assert payload == -a and len(trials) <= bound, k
            assert all(0.0 < t < 1.0 for t in trials) and len(set(trials)) == len(trials)
            # of the final bracket's ends that are trials, the one whose slope is nearer 0
            positive = {t for t in trials if f(t) > 0.0}
            ends = [max(positive, default=None), min(set(trials) - positive, default=None)]
            assert a == min((t for t in ends if t is not None), key=lambda t: abs(f(t))), k

    def test_a_smooth_slope_takes_few_trials(self):
        # the model converges and one trial past the root closes the bracket:
        # 9.3 trials a root over the 2,000 cases, 10.1 without that last step
        # and 9.7 with a bisection whenever two trials have not halved the
        # bracket
        rng = np.random.default_rng(23)
        trials = sum(len(self.search(monotone_function(rng, k), algorithm._STEP_XTOL)[2])
                     for k in range(2000))
        assert trials <= 19_000

    def test_the_plateau_takes_fewer_trials_than_brents_method(self):
        # brentq evaluates 16 points inside (0, 1); leaving (0, slope0) out of
        # the model takes 16 trials too
        brent = brentq(plateau_slope, 0.0, 1.0, xtol=algorithm._STEP_XTOL,
                       full_output=True)[1].function_calls - 2
        assert len(self.search(plateau_slope, algorithm._STEP_XTOL)[2]) <= 12 < brent

    @pytest.mark.parametrize("f, root", [
        (plateau_slope, brentq(plateau_slope, 0.0, 1.0, xtol=1e-15)),
        *[(lambda a, r=r: 1.0 if a < r else -1.0, r) for r in (1e-7, 0.3, 0.5, 0.9999995)],
        *[(lambda a, c=c: 1.0 / (a + 1e-9) - c, 1.0 / c - 1e-9) for c in (2.0, 1e3, 1e8)],
        (lambda a: math.copysign(abs(0.3 - a) ** 10, 0.3 - a), 0.3)],
        ids=["plateau", "step-1e-7", "step-0.3", "step-0.5", "step-0.9999995",
             "pole-2", "pole-1e3", "pole-1e8", "flat-to-10th-order"])
    def test_hard_shapes_stop_within_the_bound(self, f, root):
        # a plateau, a step, a pole, and a sign change flat to tenth order,
        # where the model alone takes 97 trials, each stop within the bound
        a, _, trials = self.search(f, algorithm._STEP_XTOL)
        assert abs(a - root) <= algorithm._STEP_XTOL
        assert len(trials) <= 4 * math.ceil(math.log2(1.0 / algorithm._STEP_XTOL)) == 80

    @pytest.mark.parametrize("where", [0.0, 1.0, 0.5])
    def test_a_nan_slope_raises(self, where):
        # at the start, at the point mass, or at the first interior trial
        pair, design = logistic_pair(), LOGISTIC_SEGMENT_START
        start = minimize_beta2(pair, design, TIGHT)
        x_new = np.array([0.45])

        def spy(pair, design, *args, **kwargs):
            sol = minimize_beta2(pair, design, *args, **kwargs)
            if design.weight_at(x_new) == where:
                sol = replace(sol, beta2_hat=np.full_like(sol.beta2_hat, math.nan))
            return sol

        if where == 0.0:
            start = replace(start, beta2_hat=np.full_like(start.beta2_hat, math.nan))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algorithm, "minimize_beta2", spy)
            with pytest.raises(ValueError, match="NaN"):
                line_search_alpha(pair, design, x_new, start, TIGHT)


class TestRestrictedDual:
    """The best weights on fixed points; for a nested Gaussian pair they are
    the multipliers of the discrete Chebyshev approximation."""

    def test_cubic_on_the_chebyshev_extrema(self):
        points = cubic_quadratic_optimum().points
        result = restricted_dual(cubic_quadratic_pair(), points)
        assert_gaussian_dual_is_a_kkt_point(cubic_quadratic_pair(), points, None, result)
        multipliers, beta, value = result
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
        result = restricted_dual(cubic_quadratic_pair(), points, [0.3, 0.2, -0.4])
        assert_gaussian_dual_is_a_kkt_point(cubic_quadratic_pair(), points, None, result)
        multipliers, _, value = result
        assert multipliers[2] == 0.0 and multipliers[4] == 0.0
        np.testing.assert_allclose(multipliers[[0, 1, 3, 5]] / multipliers.sum(),
                                   [1 / 6, 1 / 3, 1 / 3, 1 / 6], atol=1e-12)
        assert value == pytest.approx(1 / 16, abs=1e-12)

    def test_the_remez_reference_reads_the_same_in_either_direction(self):
        # d + 1 consecutive alternants, the runs' largest |r| along x, that
        # hold the largest |r|: reversing x chooses the same points
        rng = np.random.default_rng(11)
        longer = 0
        for _ in range(500):
            m, d = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            x, residual = rng.permutation(m).astype(float), rng.normal(size=m)
            reference = algorithm._remez_reference(x, residual, d + 1)
            mirrored = algorithm._remez_reference(-x, residual, d + 1)
            if reference is None:
                assert mirrored is None
                continue
            assert mirrored == reference[::-1]
            assert int(np.argmax(np.abs(residual))) in reference
            signs = residual[reference] > 0.0
            assert np.all(signs[1:] != signs[:-1]) and np.all(np.diff(x[reference]) > 0.0)
            longer += np.count_nonzero(np.diff(residual[np.argsort(x)] > 0.0)) > d
        assert longer >= 100

    def test_an_exact_fit_has_zero_multipliers_on_every_path(self):
        # The truth 0.5 - x^2 lies in the rival span {1, x^2}, and r at the
        # warm start is + - + on -1, 0, 0.5, so the levelled point is the
        # truth's beta2 with h = 0. Accepted there, or solved by the
        # active-set method from the argmax-row start: zero multipliers, the
        # truth's beta2 and value 0.
        pair = exact_fit_pair()
        points = np.array([-1.0, 0.0, 0.5])[:, None]
        results = []
        with pytest.MonkeyPatch.context() as patch:
            entries = active_set_entries(patch)
            results.append(restricted_dual(pair, points, [0.6, -1.8]))
            assert not entries
            forced_active_set(patch)
            results.append(restricted_dual(pair, points, [0.6, -1.8]))
            assert len(entries) == 1
        for multipliers, beta, value in results:
            assert np.all(multipliers == 0.0) and value == 0.0
            np.testing.assert_allclose(beta, [0.5, -1.0], rtol=0.0, atol=1e-15)

    def test_an_exact_fit_to_rounding_has_zero_multipliers(self):
        # in the Haar span {1, x, x^2} the truth's fit on -1, 0, 1 leaves s
        # at 5e-32, not 0: multipliers of that size are rounding, not weights
        pair, points = haar_exact_fit_pair(), np.array([-1.0, 0.0, 1.0])[:, None]
        warm = minimize_beta2(pair, Design(DesignSpace([-1.0], [1.0]), points,
                                           [0.3, 0.4, 0.3]), TIGHT).beta2_hat
        multipliers, beta, value = restricted_dual(pair, points, warm)
        assert np.all(multipliers == 0.0) and value <= 1e-60
        np.testing.assert_allclose(beta, [0.5, 0.0, -1.0], rtol=0.0, atol=1e-15)

    def test_a_levelled_start_with_a_negative_multiplier_goes_to_the_qp(self, monkeypatch):
        # {x} is no Haar span on [-1, 1]: r alternates on the reference and
        # the levelled point is feasible, yet a multiplier is negative, so
        # the active-set method solves the program from the argmax row
        pair = GaussianRegressionPair([-0.48, 1.21, 0.71, 0.03], [1],
                                      ParamBox([-10.0], [10.0]), 0.5)
        points = np.array([-0.96, 0.33, 0.82])[:, None]
        rows, eta1 = pair.rival_matrix(points), pair.true_predictor(points)
        residual = eta1 - rows @ [1.29]
        reference = algorithm._remez_reference(points[:, 0], residual, 2)
        signs = np.sign(residual[reference])
        beta, h = np.linalg.solve(np.column_stack([rows[reference], signs]), eta1[reference])
        assert reference == [0, 1] and h > abs(eta1[2] - rows[2, 0] * beta)
        active = np.column_stack([signs[:, None] * rows[reference], np.ones(2)])
        assert np.linalg.solve(active.T, [0.0, h]).min() < 0.0
        entries = active_set_entries(monkeypatch)
        result = restricted_dual(pair, points, [1.29])
        assert len(entries) == 1
        z, working = entries[0][-2:]
        j = int(np.argmax(np.abs(residual)))
        np.testing.assert_array_equal(z, [1.29, abs(residual[j])])
        assert working == [j if residual[j] >= 0.0 else 3 + j]
        assert_gaussian_dual_is_a_kkt_point(pair, points, None, result)

    def test_logistic_pair_is_refused(self):
        # a logistic pair steps by the line search; its dual has no solver
        pair = LogisticGlmPair([1.0, -2.0, 1.5], [0, 1], ParamBox([-10.0] * 2, [10.0] * 2))
        with pytest.raises(UnsupportedModelError):
            restricted_dual(pair, DesignSpace([0.0], [1.0]).grid(41))

    def test_regularized_value_is_the_criterion_of_its_design(self, monkeypatch):
        # the multipliers sum to 1 - gamma, and the design they weight,
        # blended with the reference, has the dual value as its criterion;
        # a regularized dual is solved by the active-set method
        pair, space = cubic_quadratic_pair(), cubic_quadratic_space()
        reg = RegularizationConfig(gamma=0.2,
                                   xi_tilde=default_reference_design(pair, space))
        points = np.array([-1.0, -0.6, 0.1, 0.8, 1.0])[:, None]
        entries = active_set_entries(monkeypatch)
        result = restricted_dual(pair, points, reg=reg)
        assert len(entries) == 1
        assert_gaussian_dual_is_a_kkt_point(pair, points, reg, result)
        multipliers, _, value = result
        assert multipliers.sum() == pytest.approx(0.8, abs=1e-9)
        design = Design(space, points, multipliers / multipliers.sum())
        blended = blend_designs(design, reg.xi_tilde, reg.gamma)
        assert minimize_beta2(pair, blended, TIGHT).value == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize("regularized", [False, True], ids=["plain", "regularized"])
    def test_a_binding_box(self, regularized, monkeypatch):
        # with the box at +-0.5 the slope 0.75 of the best quadratic is out of
        # reach: beta2[1] stops at the bound, which the active-set method
        # finds, and the dual value is still the criterion of the design its
        # multipliers weight
        pair, space = cubic_quadratic_pair(bound=0.5), cubic_quadratic_space()
        reg = (RegularizationConfig(gamma=0.2,
                                    xi_tilde=default_reference_design(pair, space))
               if regularized else None)
        gamma = reg.gamma if regularized else 0.0
        points = np.array([-1.0, -0.6, 0.1, 0.8, 1.0])[:, None]
        entries = active_set_entries(monkeypatch)
        result = restricted_dual(pair, points, reg=reg)
        assert len(entries) == 1
        assert_gaussian_dual_is_a_kkt_point(pair, points, reg, result)
        multipliers, beta, value = result
        assert multipliers.sum() == pytest.approx(1.0 - gamma, abs=1e-12)
        assert beta[1] == 0.5
        keep = multipliers > 0.0
        design = Design(space, points[keep], multipliers[keep] / multipliers.sum())
        target = design if reg is None else blend_designs(design, reg.xi_tilde, gamma)
        assert minimize_beta2(pair, target, TIGHT).value == pytest.approx(value, abs=1e-10)


def recording_duals(patch) -> list:
    """Patch `restricted_dual`, its active-set solves and their KKT solves;
    the returned list collects one dict per dual: its pair, points, warm
    start, reg, result, entries into `_active_set_qp` ("qp") and KKT solves
    ("solves")."""
    duals = []
    dual = algorithm.restricted_dual

    def counted(key, function):
        def call(*args):
            duals[-1][key] += 1
            return function(*args)
        return call

    def recorded(pair, points, warm_start=None, *, reg=None):
        duals.append({"pair": pair, "points": points, "warm_start": warm_start, "reg": reg,
                      "qp": 0, "solves": 0})
        duals[-1]["result"] = dual(pair, points, warm_start, reg=reg)
        return duals[-1]["result"]

    patch.setattr(algorithm, "_kkt_solve", counted("solves", algorithm._kkt_solve))
    patch.setattr(algorithm, "_active_set_qp", counted("qp", algorithm._active_set_qp))
    patch.setattr(algorithm, "restricted_dual", recorded)
    return duals


def exact_fit_pair() -> GaussianRegressionPair:
    """The truth 0.5 - x^2 and the rival span {1, x^2}, which holds it."""
    return GaussianRegressionPair([0.5, 0.0, -1.0], [0, 2], ParamBox([-2.0] * 2, [2.0] * 2),
                                  0.5)


def haar_exact_fit_pair() -> GaussianRegressionPair:
    """The truth 0.5 - x^2 and the rival span {1, x, x^2}, which holds it."""
    return GaussianRegressionPair([0.5, 0.0, -1.0], [0, 1, 2],
                                  ParamBox([-5.0] * 3, [5.0] * 3), 0.5)


def active_set_entries(patch) -> list:
    """Patch `_active_set_qp` to record its calls; the returned list holds
    one entry per call."""
    calls, qp = [], algorithm._active_set_qp
    patch.setattr(algorithm, "_active_set_qp", lambda *args: calls.append(args) or qp(*args))
    return calls


def forced_active_set(patch) -> None:
    """Refuse every levelled point, so that each dual builds the quadratic
    program and solves it by `_active_set_qp` from the argmax row."""
    patch.setattr(algorithm, "_levelled_optimum", lambda *args: None)


def assert_gaussian_dual_is_a_kkt_point(pair, points, reg, result):
    """Optimality of the residual-unit dual at rounding, judged from its
    result alone: beta2 in the box; multipliers >= 0 summing to 1 - gamma;
    the value that of s = max |r_j|, so the returned s is feasible and no
    larger; a positive multiplier only where |r_j| = s; and stationarity in
    beta2, the inner first-order condition of the design the multipliers
    weight (blended with the reference), signed where the box binds.
    Rounding is measured against the terms of r = eta1 - X beta2."""
    multipliers, beta, value = result
    gamma = 0.0 if reg is None else reg.gamma
    box, rows, eta1 = pair.theta2, pair.rival_matrix(points), pair.true_predictor(points)
    residual = eta1 - rows @ beta
    s = float(np.max(np.abs(residual)))
    tol = 5e-15 * (np.max(np.abs(eta1)) + np.max(np.abs(rows) @ np.abs(beta)))
    edge = 1e-15 * (box.upper - box.lower)
    assert np.all(beta >= box.lower - edge) and np.all(beta <= box.upper + edge)
    assert np.all(multipliers >= 0.0)
    assert multipliers.sum() == pytest.approx(1.0 - gamma, abs=1e-15)
    gradient = rows.T @ (multipliers * residual)  # minus the inner gradient
    expected = (1.0 - gamma) * s * s / (2.0 * pair.sigma2)
    if reg is not None:
        reference = prepare_support(pair, reg.xi_tilde.points)
        gradient += gamma * reference.rows.T @ (
            reg.xi_tilde.weights * (reference.eta1 - reference.rows @ beta))
        expected += gamma * reg.xi_tilde.weights @ reference.pointwise(beta)
    assert abs(value - expected) <= s * tol / pair.sigma2
    assert np.all(np.abs(residual[multipliers > 0.0]) >= s - tol)
    tol *= np.max(np.abs(rows))
    at_lower, at_upper = beta <= box.lower + edge, beta >= box.upper - edge
    assert np.all(np.where(at_lower, gradient <= tol,
                           np.where(at_upper, gradient >= -tol, np.abs(gradient) <= tol)))


class TestCorrectiveStep:
    def test_an_exact_fit_takes_a_zero_step(self):
        # the truth lies in the rival span: psi is rounding, the dual's
        # multipliers are all zero and the step is the zero step
        pair, space = exact_fit_pair(), DesignSpace([-1.0], [1.0])
        design = Design(space, [-1.0, 0.0, 0.5], [0.3, 0.4, 0.3])
        sol = minimize_beta2(pair, design, TIGHT)
        x_new, _, candidates = best_support_candidate(pair, design, sol.beta2_hat, space,
                                                      None)
        with pytest.MonkeyPatch.context() as patch:
            duals = recording_duals(patch)
            alpha, new, step = corrective_step(pair, design, x_new, sol, candidates, TIGHT)
        assert len(duals) == 1 and np.all(duals[0]["result"][0] == 0.0)
        assert alpha == 0.0 and new is design and step is sol

    def test_an_exact_fit_to_rounding_takes_a_zero_step_with_no_solve(self):
        # the dual's multipliers at an s of rounding are zero, so no design
        # is built and solved only to be rejected
        pair, space = haar_exact_fit_pair(), DesignSpace([-1.0], [1.0])
        design = Design(space, [-1.0, 0.0, 1.0], [0.3, 0.4, 0.3])
        sol = minimize_beta2(pair, design, TIGHT)
        x_new, _, candidates = best_support_candidate(pair, design, sol.beta2_hat, space,
                                                      None)
        solves = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algorithm, "minimize_beta2",
                          lambda *args, **kwargs: solves.append(1) or minimize_beta2(
                              *args, **kwargs))
            duals = recording_duals(patch)
            alpha, new, step = corrective_step(pair, design, x_new, sol, candidates, TIGHT)
        assert len(duals) == 1 and np.all(duals[0]["result"][0] == 0.0)
        assert (alpha, new, step) == (0.0, design, sol) and not solves

    def test_no_step_at_the_optimum(self):
        pair, opt = cubic_quadratic_pair(), cubic_quadratic_optimum()
        sol = minimize_beta2(pair, opt, TIGHT)
        candidates = best_support_candidate(pair, opt, sol.beta2_hat,
                                            cubic_quadratic_space(), None)[2]
        alpha, design, step = corrective_step(pair, opt, [0.3], sol, candidates, TIGHT)
        assert (alpha, design, step) == (0.0, opt, sol)

    def test_new_support_lies_among_the_candidates(self):
        # the support, x_new, and the roots of r' and ends of the domain
        # where psi > 0
        pair, design, space = (cubic_quadratic_pair(), cubic_quadratic_start(),
                               cubic_quadratic_space())
        start = minimize_beta2(pair, design, TIGHT)
        x_new, _, scanned = best_support_candidate(pair, design, start.beta2_hat, space,
                                                   None)
        _, new, _ = corrective_step(pair, design, x_new, start, scanned, TIGHT)
        candidates, psi = psi_scan(pair, design, start.beta2_hat, space, None)
        allowed = np.concatenate([design.points[:, 0], x_new, candidates[psi > 0.0, 0]])
        for x in new.points[:, 0]:
            assert np.min(np.abs(allowed - x)) == 0.0
        assert new.size < allowed.size  # points of zero weight left

    def test_a_point_beside_a_support_point_merges_into_it(self):
        # x_new 3e-11 from the support point -1 is that point, and the step's
        # alpha is the weight the dual puts there
        pair, design, space = (cubic_quadratic_pair(), cubic_quadratic_start(),
                               cubic_quadratic_space())
        start = minimize_beta2(pair, design, TIGHT)
        _, _, scanned = best_support_candidate(pair, design, start.beta2_hat, space, None)
        alpha, new, _ = corrective_step(pair, design, [-1.0 + 3e-11], start, scanned, TIGHT)
        assert -1.0 + 3e-11 not in new.points
        assert alpha == new.weight_at(-1.0) > 0.0

    def test_roots_of_r_prime_at_support_points_do_not_enter_the_dual_twice(self):
        # the roots of r' converge to the support points: in this run one
        # lands 9.2e-12 from 0.5, and the dual must take it as 0.5
        with pytest.MonkeyPatch.context() as patch:
            duals = recording_duals(patch)
            run = run_first_order(cubic_quadratic_pair(), cubic_quadratic_start(),
                                  cubic_quadratic_space(),
                                  AlgoConfig(delta=1.0 - 1e-12, max_iterations=10),
                                  benchmark_inner_config())
        assert run.termination_reason == EFFICIENCY_REACHED
        assert len(duals) >= 4
        for dual in duals:
            gaps = np.diff(np.sort(dual["points"][:, 0]))
            assert gaps.min() > algorithm._MERGE_TOL * 2.0

    @pytest.mark.parametrize("regularized", [False, True], ids=["plain", "regularized"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(data=st.data())
    def test_at_least_the_line_search_step(self, regularized, data):
        pair, design, reg, _ = data.draw(segments("gaussian", regularized))
        target = design if reg is None else blend_designs(design, reg.xi_tilde, reg.gamma)
        start = minimize_beta2(pair, target, TIGHT)
        x_new, _, candidates = best_support_candidate(pair, design, start.beta2_hat,
                                                      design.space, None)
        alpha, new, step = corrective_step(pair, design, x_new, start, candidates,
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


def assert_ascends(run):
    """Each recorded value exceeds the one before it: the loop takes a step
    only where its solution improves on the start beyond rounding."""
    values = [r.value for r in run.history]
    assert all(b > a for a, b in zip(values, values[1:]))


class TestRuns:
    def test_benchmark_run_converges(self, ctx):
        run = ctx.benchmark_run()
        assert run.termination_reason == EFFICIENCY_REACHED
        assert run.final_efficiency > 0.99
        assert_ascends(run)
        assert_ascends(ctx.transformed_run())
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

    @staticmethod
    def nested_gaussian_suite(scale: float, top: int, delta: float):
        """Runs on 25 seed-7 instances: truth of degree d (d from 2 to top - 1)
        with coefficients scaled by `scale`, the rival every lower monomial in
        a box of half-width 50 scale, four random start points. Returns the
        (d, termination reason) of every run and every dual's record."""
        rng = np.random.default_rng(7)
        space = DesignSpace([-1.0], [1.0])
        runs = []
        with pytest.MonkeyPatch.context() as patch:
            duals = recording_duals(patch)
            for _ in range(25):
                d = int(rng.integers(2, top))
                pair = GaussianRegressionPair(
                    scale * rng.normal(size=d + 1), list(range(d)),
                    ParamBox([-50.0 * scale] * d, [50.0 * scale] * d), 0.5)
                start = Design(space, rng.uniform(-1.0, 1.0, 4)[:, None],
                               rng.dirichlet(np.ones(4)))
                # more rival coefficients than start points: the plain loop
                # warns that the start is singular, and hands off
                with (pytest.warns(UserWarning, match="rank deficient") if d > 4
                      else contextlib.nullcontext()):
                    run = run_first_order(pair, start, space,
                                          AlgoConfig(delta=delta, max_iterations=300),
                                          benchmark_inner_config())
                assert_ascends(run)
                runs.append((d, run.termination_reason))
        for dual in duals:
            assert_gaussian_dual_is_a_kkt_point(dual["pair"], dual["points"], dual["reg"],
                                                dual["result"])
        return runs, duals

    def test_random_nested_gaussian_instances_reach_delta(self):
        # A regular problem each. Support collapsing and pruning used to undo
        # steps on some and leave others singular. Every dual ends at a KKT
        # point of its quadratic program.
        runs, duals = self.nested_gaussian_suite(1.0, 5, 0.99)
        assert [reason for _, reason in runs] == [EFFICIENCY_REACHED] * 25
        assert len(duals) >= 25

    def test_random_nested_gaussian_instances_scaled_by_ten(self):
        # The truth and the box times 10, and a tighter delta: every dual still
        # ends at a KKT point (an SLSQP solve with an absolute tolerance left 5
        # of them at a line search that could not descend). With d = 5 the
        # four start points are singular, and the plain loop hands off.
        runs, duals = self.nested_gaussian_suite(10.0, 6, 0.999)
        assert len(duals) == 52
        assert [reason for d, reason in runs if d < 5] == [EFFICIENCY_REACHED] * 20
        assert [reason for d, reason in runs if d == 5] == [STALLED_REGULARIZED] * 5

    def test_levelled_start_reaches_the_dual_of_the_argmax_row_start(self):
        # Each dual of the 25 seed-7 nested runs and of the fixed-point cases
        # of TestRestrictedDual, solved again by the active-set method from
        # the argmax-row start (the levelled point refused): both are KKT
        # points, with the same multipliers, beta2 and value to 1e-14 of the
        # terms of r, whether the levelled point was accepted or not.
        _, duals = self.nested_gaussian_suite(1.0, 5, 0.99)
        cases = [(d["pair"], d["points"], d["warm_start"], d["reg"]) for d in duals]
        space, points = cubic_quadratic_space(), np.array([-1.0, -0.6, 0.1, 0.8, 1.0])[:, None]
        for pair, gamma in [(cubic_quadratic_pair(bound=0.5), None),
                            (cubic_quadratic_pair(bound=0.5), 0.2),
                            (cubic_quadratic_pair(), 0.2)]:
            reg = None if gamma is None else RegularizationConfig(
                gamma, default_reference_design(pair, space))
            cases.append((pair, points, None, reg))
        accepted = 0
        for pair, points, warm_start, reg in cases:
            with pytest.MonkeyPatch.context() as patch:
                entries = active_set_entries(patch)
                new = restricted_dual(pair, points, warm_start, reg=reg)
                accepted += not entries
                forced_active_set(patch)
                old = restricted_dual(pair, points, warm_start, reg=reg)
            rows, eta1 = pair.rival_matrix(points), pair.true_predictor(points)
            terms = np.max(np.abs(eta1)) + np.max(np.abs(rows) @ np.abs(old[1]))
            for result in (new, old):
                assert_gaussian_dual_is_a_kkt_point(pair, points, reg, result)
            assert np.max(np.abs(new[0] - old[0])) <= 1e-14
            assert np.max(np.abs(rows @ (new[1] - old[1]))) <= 1e-14 * terms
            assert abs(new[2] - old[2]) <= 1e-14 * terms * terms / pair.sigma2
        assert len(cases) >= 28 and 0 < accepted < len(cases)

    def test_each_dual_of_the_shipped_gaussian_runs_is_accepted_at_its_levelled_start(self):
        # the corrective step's candidates hold r's alternating extrema, so
        # the levelled reference is the optimum, its multipliers pass the
        # optimality test, and no dual enters the active-set method (which
        # took one KKT solve to confirm it, and 4 from the argmax-row start)
        for name in ("benchmark_run", "transformed_run"):
            with pytest.MonkeyPatch.context() as patch:
                duals = recording_duals(patch)
                getattr(BenchmarkContext(), name)()
            assert len(duals) >= 2
            for dual in duals:
                assert (dual["qp"], dual["solves"]) == (0, 0)
                assert_gaussian_dual_is_a_kkt_point(dual["pair"], dual["points"], None,
                                                    dual["result"])

    def test_dual_work_is_invariant_under_scale_and_position(self):
        # The dual is solved in residual units, so neither sigma2 nor the
        # affine images z = 2 + 4x and z = 2 - 4x change the active-set work
        # of any step (none: each levelled reference is accepted), and
        # every run ends at the image of the same design. The reflection
        # reverses the order of x, which the reference is read in. The truth
        # and the box times 10 scale the whole solve, so that rung takes the
        # same solves to the same design.
        maps = [AffineMap([2.0], [[4.0]]), AffineMap([2.0], [[-4.0]])]
        space, start = cubic_quadratic_space(), cubic_quadratic_start()
        base = cubic_quadratic_pair()
        scaled = replace(base, beta1=10.0 * base.beta1,
                         theta2=ParamBox(10.0 * base.theta2.lower, 10.0 * base.theta2.upper))
        problems = [(scaled, start, space, None)]
        for sigma2 in [0.5, 0.05, 0.005, 0.0005]:
            pair = replace(base, sigma2=sigma2)
            problems.append((pair, start, space, None))
            problems += [(reparametrize_under_affine(pair, amap),
                          transform_design(start, amap), amap.image_box(space), amap)
                         for amap in maps]
        counts, finals = [], []
        for pair, initial, domain, amap in problems:
            with pytest.MonkeyPatch.context() as patch:
                duals = recording_duals(patch)
                run = run_first_order(pair, initial, domain, AlgoConfig(delta=0.99),
                                      benchmark_inner_config())
            assert run.termination_reason == EFFICIENCY_REACHED
            counts.append([(dual["qp"], dual["solves"]) for dual in duals])
            finals.append(run.final_design if amap is None
                          else transform_design(run.final_design, amap.inverted()))
        assert len(counts[0]) >= 2 and counts[0] == [(0, 0)] * len(counts[0])
        assert counts == [counts[0]] * len(counts)
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

    @pytest.mark.parametrize("family", ["gaussian", "affine image", "logistic"])
    def test_only_a_logistic_loop_prepares_the_psi_grid(self, family):
        # a Gaussian scan holds its maximum at an end or a root of r', so its
        # loop prepares no support on the 2001-node grid, and no divergence
        # call of its scans or its null scale (the ends and the roots of m1')
        # takes more than a few rows; a logistic loop prepares one and scans
        # it at every iteration, its support off prepared Supports alone
        pair, start, space = (cubic_quadratic_pair(), cubic_quadratic_start(),
                              cubic_quadratic_space())
        if family == "affine image":
            amap = AffineMap([2.0], [[4.0]])
            pair = reparametrize_under_affine(pair, amap)
            start, space = transform_design(start, amap), amap.image_box(space)
        elif family == "logistic":
            pair, start, space = logistic_pair(), LOGISTIC_SEGMENT_START, logistic_space()
        rows, divergence_rows, divergence = [], [], PolynomialPair.divergence

        def recorded(pair, points):
            rows.append(len(points))
            return prepare_support(pair, points)

        def recorded_divergence(pair, points, beta2):
            divergence_rows.append(np.size(points))
            return divergence(pair, points, beta2)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algorithm, "prepare_support", recorded)
            patch.setattr(inner, "prepare_support", recorded)
            patch.setattr(PolynomialPair, "divergence", recorded_divergence)
            run = run_first_order(pair, start, space, AlgoConfig(max_iterations=5), FAST)
        assert len(run.history) >= 2 and rows
        assert bool(divergence_rows) == (family != "logistic")
        expected = 1 if family == "logistic" else 0
        assert rows.count(algorithm.PSI_GRID_SIZE) == expected
        if family != "logistic":
            assert max(divergence_rows) <= 24

    def test_a_hand_off_prepares_its_psi_grid_once(self):
        # the regularized run after the plain one, on the same pair and
        # space, scans the grid the plain run prepared (`psi_grid`); the
        # parent prepared it again
        pair, space = logistic_pair(), logistic_space()
        rows = []

        def recorded(pair, points):
            rows.append(len(points))
            return prepare_support(pair, points)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algorithm, "prepare_support", recorded)
            patch.setattr(inner, "prepare_support", recorded)
            plain = run_first_order(pair, logistic_start_design(), space,
                                    AlgoConfig(max_iterations=50), FAST)
            regularized = run_regularized(pair, logistic_start_design(), space,
                                          AlgoConfig(max_iterations=5), FAST,
                                          RegularizationConfig(gamma=0.05))
        assert plain.termination_reason == STALLED_REGULARIZED
        assert len(regularized.history) >= 2
        assert rows.count(algorithm.PSI_GRID_SIZE) == 1

    @pytest.mark.parametrize("regularized", [False, True], ids=["plain", "regularized"])
    def test_a_logistic_loop_scans_its_support_off_prepared_supports(self, regularized):
        # no scan of a logistic loop prepares or evaluates the design's
        # points: their rows are read off the inner solution's `pointwise`,
        # solved on the design's points in a plain run and on the blend with
        # the reference, which begins with them, in a regularized run
        pair, space = logistic_pair(), logistic_space()
        prepared, scanning, divergence_rows = [], [], []
        best, divergence = algorithm.best_support_candidate, PolynomialPair.divergence

        def scan(*args, **kwargs):
            scanning.append(True)
            try:
                return best(*args, **kwargs)
            finally:
                scanning.pop()

        def recorded(pair, points):
            if scanning:
                prepared.append(len(points))
            return prepare_support(pair, points)

        def recorded_divergence(pair, points, beta2):
            divergence_rows.append(np.size(points))
            return divergence(pair, points, beta2)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algorithm, "best_support_candidate", scan)
            patch.setattr(algorithm, "prepare_support", recorded)
            patch.setattr(PolynomialPair, "divergence", recorded_divergence)
            if regularized:
                run = run_regularized(pair, logistic_start_design(), space,
                                      AlgoConfig(max_iterations=5), FAST,
                                      RegularizationConfig(gamma=0.05))
            else:
                run = run_first_order(pair, LOGISTIC_SEGMENT_START, space,
                                      AlgoConfig(max_iterations=5), FAST)
        assert len(run.history) >= 2 and divergence_rows == [] and prepared == []

    def test_regularized_gaussian_run_from_a_one_point_start(self):
        # the plain loop hands a one-point start off; the regularized loop
        # takes the corrective step from it
        pair, space = cubic_quadratic_pair(), cubic_quadratic_space()
        run = run_regularized(pair, Design(space, [[0.0]], [1.0]), space,
                              AlgoConfig(delta=0.99, max_iterations=50), FAST,
                              RegularizationConfig(gamma=0.05))
        assert run.termination_reason == EFFICIENCY_REACHED
        assert_ascends(run)

    def test_logistic_loop_steps_to_the_raw_mixture(self, ctx):
        # no support is merged or dropped: each iterate is the blend of the
        # last with a point mass at its best point, float for float
        steps = 0
        for run in (ctx.logistic_plain_run(), ctx.logistic_regularized_run()):
            assert_ascends(run)
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

    def test_zero_step_at_a_regular_design_ends_stalled(self):
        # The last step finds a = 3.0e-6 and raises the value by 2.6e-14, below
        # the improvement floor, so it is a zero step. The design is regular and
        # certifies: a zero step is not a singularity, and no hand-off follows.
        pair = LogisticGlmPair([1, 1, 1], [0, 1], ParamBox([-10, -10], [10, 10]))
        space = DesignSpace([0.0], [1.0])
        start = Design(space, [[0.0], [0.4175], [1.0]], [0.22, 0.46, 0.32])
        run = run_first_order(pair, start, space, AlgoConfig(delta=0.99999))
        last = run.history[-1]
        assert run.termination_reason == STALLED
        assert not last.singular_flag
        assert last.alpha == 0.0
        assert 0.0 < last.psi_max <= 1e-6
        assert equivalence_check(pair, run.final_design, space).verdict == CERTIFIED

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

    @pytest.mark.parametrize("entry", ["run", "certificate"])
    @pytest.mark.parametrize("points, weights, violation", [
        ([[0.0], [1.0 / 3.0], [2.0 / 3.0], [1.5]], [0.25] * 4,
         r"point 3 = \[1.5\] outside box"),
        ([[0.0], [1.0 / 3.0], [2.0 / 3.0], [1.0]], [math.nan, 0.25, 0.25, 0.25],
         "non-finite weight nan at index 0"),
    ], ids=["outside", "nan-weight"])
    def test_an_invalid_reference_design_is_refused(self, entry, points, weights,
                                                    violation):
        # a library caller's reference is validated as the initial design is,
        # by the regularized run and by the regularized certificate
        pair, space, start = logistic_pair(), logistic_space(), logistic_start_design()
        reg = RegularizationConfig(gamma=0.05, xi_tilde=Design(space, points, weights))
        with pytest.raises(DomainError, match=f"invalid reference design: {violation}"):
            if entry == "run":
                run_regularized(pair, start, space, AlgoConfig(), FAST, reg)
            else:
                equivalence_check(pair, start, space, inner_config=FAST, reg=reg)

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

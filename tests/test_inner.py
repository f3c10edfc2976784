"""Inner bounded Newton solve, its singularity flag and its oracles."""

import copy
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear
from scipy.special import expit

from kldesign.designs import Design, DesignSpace, blend_designs
from kldesign import inner
from kldesign.inner import (InnerConfig, least_squares_oracle, minimize_beta2,
                            prepare_support)
from kldesign.errors import DomainError, UnsupportedModelError
from kldesign.benchmarks import SyntheticFamily, _kl_average as kl_average
from kldesign.models import GaussianRegressionPair, LogisticGlmPair, ParamBox
from kldesign.verify import equivalence_check

BOX3 = ParamBox([-5.0] * 3, [5.0] * 3)
TIGHT = InnerConfig(local_tolerance=1e-10)
# Fixed example sequence, so the suite stays deterministic.
EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def cubic_pair() -> GaussianRegressionPair:
    return GaussianRegressionPair([0, 0, 0, 1], [0, 1, 2], BOX3, 0.5)


def chebyshev_design() -> Design:
    return Design(DesignSpace([-1.0], [1.0]), [[-1.0], [-0.5], [0.5], [1.0]],
                  [1 / 6, 1 / 3, 1 / 3, 1 / 6])


def random_gaussian_instance(rng):
    d2 = int(rng.integers(1, 5))
    exponents = sorted(rng.choice(6, size=d2, replace=False).tolist())
    beta1 = rng.normal(0.0, 1.0, size=int(rng.integers(1, 7)))
    pair = GaussianRegressionPair(
        beta1, exponents, ParamBox([-50.0] * d2, [50.0] * d2),
        float(rng.uniform(0.2, 2.0)))
    m = int(rng.integers(1, 9))
    design = Design(DesignSpace([-1.0], [1.0]), rng.uniform(-1, 1, (m, 1)),
                    rng.dirichlet(np.ones(m)))
    return pair, design


def _weights(draw, m: int) -> np.ndarray:
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    return raw / raw.sum()


@st.composite
def gaussian_instances(draw):
    d2 = draw(st.integers(1, 4))
    exponents = sorted(draw(st.lists(st.integers(0, 5), min_size=d2, max_size=d2,
                                     unique=True)))
    beta1 = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
    sigma2 = draw(st.floats(0.2, 2.0))
    pair = GaussianRegressionPair(
        beta1, exponents, ParamBox([-50.0] * d2, [50.0] * d2), sigma2)
    m = draw(st.integers(1, 8))
    points = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    design = Design(DesignSpace([-1.0], [1.0]), np.array(points)[:, None],
                    _weights(draw, m))
    return pair, design


@st.composite
def logistic_instances(draw):
    d2 = draw(st.integers(1, 3))
    exponents = sorted(draw(st.lists(st.integers(0, 3), min_size=d2, max_size=d2,
                                     unique=True)))
    beta1 = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
    pair = LogisticGlmPair(
        beta1, exponents, ParamBox([-10.0] * d2, [10.0] * d2))
    m = draw(st.integers(1, 6))
    points = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    design = Design(DesignSpace([0.0], [1.0]), np.array(points)[:, None],
                    _weights(draw, m))
    return pair, design


def nelder_mead_box(f, x0: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                    xatol: float, fatol: float, max_iter: int,
                    initial_step: np.ndarray):
    """Nelder-Mead with every candidate clipped into [lower, upper].

    Returns (best point, best value). Termination: simplex extent below
    `xatol` and value spread below `fatol`, or the iteration budget.
    """
    d = x0.size
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    sim = np.empty((d + 1, d))
    sim[0] = x0
    for j in range(d):
        v = x0.copy()
        step = initial_step[j]
        v[j] = v[j] + step if v[j] + step <= upper[j] else v[j] - step
        sim[j + 1] = np.clip(v, lower, upper)
    fs = np.array([f(s) for s in sim])
    for _ in range(max_iter):
        order = np.argsort(fs, kind="stable")
        sim, fs = sim[order], fs[order]
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fs[1:] - fs[0])) <= fatol * max(1.0, abs(fs[0]))):
            break
        centroid = sim[:-1].mean(axis=0)
        xr = np.clip(centroid + alpha * (centroid - sim[-1]), lower, upper)
        fr = f(xr)
        if fr < fs[0]:
            xe = np.clip(centroid + gamma * (xr - centroid), lower, upper)
            fe = f(xe)
            if fe < fr:
                sim[-1], fs[-1] = xe, fe
            else:
                sim[-1], fs[-1] = xr, fr
        elif fr < fs[-2]:
            sim[-1], fs[-1] = xr, fr
        else:
            if fr < fs[-1]:
                xc = np.clip(centroid + rho * (xr - centroid), lower, upper)
                fc = f(xc)
                shrink = fc > fr
            else:
                xc = centroid + rho * (sim[-1] - centroid)
                fc = f(xc)
                shrink = fc >= fs[-1]
            if shrink:
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fs[1:] = [f(s) for s in sim[1:]]
            else:
                sim[-1], fs[-1] = xc, fc
    i = int(np.argmin(fs))
    return sim[i], float(fs[i])


def multistart_simplex_value(pair, design, starts) -> float:
    """Best value of box-clipped Nelder-Mead descents from the given starts:
    an oracle that knows nothing of convexity."""
    box = pair.theta2
    best = np.inf
    for start in starts:
        _, value = nelder_mead_box(
            lambda b: float(design.weights @ pair.divergence(design.points, b)),
            box.clip(start), box.lower, box.upper, xatol=1e-10, fatol=1e-14,
            max_iter=2000, initial_step=0.05 * (box.upper - box.lower))
        best = min(best, value)
    return best


def fixture_logistic_pair(lower, upper) -> LogisticGlmPair:
    # the logistic fixture's truth 1 + x + x^2 against the rival {x, x^2}
    return LogisticGlmPair([1.0, 1.0, 1.0], [1, 2], ParamBox(lower, upper))


def fixture_start() -> Design:
    return Design(DesignSpace([0.0], [1.0]), [[0.0], [1 / 3], [2 / 3], [1.0]], [0.25] * 4)


def count_bounded_lstsq(monkeypatch) -> list:
    """Record every call of `inner._bounded_lstsq`, one per Newton model."""
    calls = []
    bounded_lstsq = inner._bounded_lstsq

    def counting(*args):
        calls.append(args)
        return bounded_lstsq(*args)

    monkeypatch.setattr(inner, "_bounded_lstsq", counting)
    return calls


# The fixture's inner minimum at its 4-point start.
FIXTURE_MIN_BETA2 = [4.5834, -1.7013]
FIXTURE_MIN_VALUE = 0.028444


class TestBenchmarkSolve:
    def test_recovers_the_analytic_minimizer(self):
        sol = minimize_beta2(cubic_pair(), chebyshev_design(), TIGHT)
        assert np.max(np.abs(sol.beta2_hat - np.array([0.0, 0.75, 0.0]))) <= 1e-4
        assert sol.value == pytest.approx(0.0625, abs=1e-6)
        assert not sol.singular_flag
        assert not sol.at_boundary

    def test_value_is_the_average_at_beta2_hat(self):
        sol = minimize_beta2(cubic_pair(), chebyshev_design(), TIGHT)
        assert sol.value == pytest.approx(
            kl_average(cubic_pair(), chebyshev_design(), sol.beta2_hat), abs=1e-12)

    def test_value_not_above_any_multistart(self):
        pair, design = cubic_pair(), chebyshev_design()
        starts = [BOX3.midpoint, BOX3.lower, BOX3.upper, [2.0, -3.0, 4.0]]
        sol = minimize_beta2(pair, design, TIGHT)
        assert sol.value <= multistart_simplex_value(pair, design, starts) + 1e-12

    def test_nested_attainable_pair_reaches_zero(self):
        # true mean x^2 lies inside the rival span {1, x, x^2}
        pair = GaussianRegressionPair([0, 0, 1], [0, 1, 2], BOX3, 0.5)
        design = Design(DesignSpace([-1.0], [1.0]),
                        [[-0.9], [-0.2], [0.4], [0.8]], [0.25] * 4)
        sol = minimize_beta2(pair, design, TIGHT)
        assert sol.value <= 1e-12
        assert np.max(np.abs(sol.beta2_hat - np.array([0.0, 0.0, 1.0]))) <= 1e-4


class TestSingularDiagnostics:
    def test_logistic_point_mass_at_zero_is_singular(self):
        pair = LogisticGlmPair([1.0, 1.0, 1.0], [1, 2], ParamBox([-10, -10], [10, 10]))
        d0 = Design(DesignSpace([0.0], [1.0]), [[0.0]], [1.0])
        sol = minimize_beta2(pair, d0)
        # eta2(0) = 0 for every beta2: the average is constant over the box
        c0 = float(expit(1.0) + np.log(2.0 / (1.0 + np.e)))
        assert sol.value == pytest.approx(c0, abs=1e-12)
        assert sol.singular_flag

    def test_regular_design_is_not_singular(self):
        assert not minimize_beta2(cubic_pair(), chebyshev_design(), TIGHT).singular_flag

    @pytest.mark.parametrize("family", [GaussianRegressionPair, LogisticGlmPair])
    def test_a_row_below_the_newton_stop_is_singular(self, family):
        # X = [[1.7e-131]] has full rank, yet no beta2 in the box moves eta2
        # by more than 1.7e-130, far below the stopping tolerance: the solve
        # cannot tell any two points of the box apart.
        pair = family([1.0], [1], ParamBox([-5.0], [5.0]))
        design = Design(DesignSpace([-1.0], [1.0]), [[1.7e-131]], [1.0])
        assert minimize_beta2(pair, design).singular_flag

    @EXAMPLES
    @given(st.data())
    def test_flag_is_the_rank_test(self, data):
        # the logistic fixture's rival {x, x^2} on a few nodes, zero included,
        # so duplicated points and the point mass at zero come up often; a
        # zero-weight point does not count toward the rank
        pair = LogisticGlmPair([1.0, 1.0, 1.0], [1, 2], ParamBox([-10, -10], [10, 10]))
        m = data.draw(st.integers(1, 5))
        points = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                    min_size=m, max_size=m))
        raw = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]),
                                          min_size=m, max_size=m)))
        assume(raw.sum() > 0.0)
        design = Design(DesignSpace([0.0], [1.0]), np.array(points)[:, None],
                        raw / raw.sum())
        rows = pair.rival_matrix(design.points)[design.weights > 0.0]
        rank = np.linalg.matrix_rank(rows)
        assert minimize_beta2(pair, design).singular_flag == (rank < 2)


class TestNewtonStop:
    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, 0.0, -1e-9])
    def test_the_tolerance_is_finite_and_positive(self, tolerance):
        # as a config file's `inner.local_tolerance` is: a NaN tolerance never
        # stops Newton before its step cap, an infinite one stops every solve
        # at its start
        with pytest.raises(ValueError, match="local_tolerance"):
            InnerConfig(local_tolerance=tolerance)

    def test_stops_where_the_objective_is_flat_to_rounding(self, monkeypatch):
        # A regularized certificate's design: the Newton step stalls near 2e-8
        # in eta, above the tolerance, where the objective no longer changes
        # in floating point. The solve must stop there, not spend its budget.
        calls = []
        kernels = LogisticGlmPair.kernels

        def counting(pair, eta1):
            values, derivatives = kernels(pair, eta1)

            def counted(eta2):
                calls.append(eta2)
                return values(eta2)

            return counted, derivatives

        # the Support's kernel closure is evaluated once per objective value
        monkeypatch.setattr(LogisticGlmPair, "kernels", counting)
        pair = LogisticGlmPair([1.0, 1.0, 1.0], [1, 2], ParamBox([-10, -10], [10, 10]))
        space = DesignSpace([0.0], [1.0])
        design = Design(space, [[0.0], [0.4018743098334744], [0.5496760922866587],
                                [0.3221779015061581]],
                        [0.9142693785823744, 0.010434275301807771,
                         0.02241725443792389, 0.05287909167789391])
        reference = Design(space, [[0.0], [1 / 3], [2 / 3], [1.0]], [0.25] * 4)
        sol = minimize_beta2(pair, blend_designs(design, reference, 0.05), TIGHT)
        assert not sol.singular_flag
        assert len(calls) < 200


class TestBoundedStep:
    @pytest.mark.parametrize("half_width, binds", [(1e3, False), (0.2, True)],
                             ids=["interior", "binding"])
    @EXAMPLES
    @given(data=st.data())
    def test_is_the_bvls_solution(self, half_width, binds, data):
        # the same floats as lsq_linear(method="bvls"), whether the
        # unconstrained solution lies in the box or the box binds, also on
        # rank-deficient matrices and columns scaled by 1e-3 and 1e3
        m, d = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 4))
        entries = st.lists(st.floats(-3.0, 3.0), min_size=m * (d + 1),
                           max_size=m * (d + 1))
        a, rhs = np.split(np.array(data.draw(entries)).reshape(m, d + 1), [d], axis=1)
        rhs = rhs[:, 0]
        if m > 1 and data.draw(st.booleans()):
            a[-1] = data.draw(st.sampled_from([1.0, -2.0])) * a[0]
        if d > 1 and data.draw(st.booleans()):
            a[:, -1] = data.draw(st.sampled_from([0.0, 1.0, 3.0])) * a[:, 0]
        a *= 10.0 ** np.array(data.draw(st.lists(st.sampled_from([-3.0, 0.0, 3.0]),
                                                 min_size=d, max_size=d)))
        box = ParamBox([-half_width] * d, [half_width] * d)
        assume(box.contains(np.linalg.lstsq(a, rhs, rcond=-1)[0]) != binds)
        expected = lsq_linear(a, rhs, bounds=(box.lower, box.upper), method="bvls").x
        np.testing.assert_array_equal(inner._bounded_lstsq(a, rhs, box), expected)

    def test_is_the_bvls_solution_on_a_seeded_sweep(self):
        # 3,000 seeded problems, most of them binding, and the two of the
        # first 40,000 whose result depends on BVLS's cost-change stop; a
        # free-set solve at rcond -1, or one loop-A iteration fewer, changes
        # the floats of some of the 3,000
        for k in [*range(3000), 16151, 35518]:
            rng = np.random.default_rng([23, k])
            m, d = int(rng.integers(1, 10)), int(rng.integers(1, 5))
            a = rng.normal(size=(m, d)) * 10.0 ** rng.choice([-3.0, 0.0, 3.0], size=d)
            if m > 1 and rng.random() < 0.3:
                a[-1] = a[0] * rng.choice([1.0, -2.0])
            if d > 1 and rng.random() < 0.3:
                a[:, -1] = a[:, 0] * rng.choice([0.0, 1.0, 3.0])
            rhs = rng.normal(size=m) * 10.0 ** rng.choice([-3.0, 0.0, 3.0])
            half_width = 10.0 ** rng.uniform(-2.0, 1.0)
            box = ParamBox(-half_width * rng.uniform(0.1, 1.0, d),
                           half_width * rng.uniform(0.1, 1.0, d))
            expected = lsq_linear(a, rhs, bounds=(box.lower, box.upper), method="bvls").x
            assert inner._bounded_lstsq(a, rhs, box).tobytes() == expected.tobytes(), k


class TestPreparedSupport:
    def test_gaussian_solve_stops_after_its_exact_step(self, monkeypatch):
        # the quadratic model is the Gaussian objective: a solve, cold or
        # warm, is one bounded least-squares fit and one evaluation of the
        # objective, and a warm start does not move it
        evaluations = []
        kernels = GaussianRegressionPair.kernels

        def counting(pair, eta1):
            values, derivatives = kernels(pair, eta1)

            def counted(eta2):
                evaluations.append(eta2)
                return values(eta2)

            return counted, derivatives

        monkeypatch.setattr(GaussianRegressionPair, "kernels", counting)
        calls = count_bounded_lstsq(monkeypatch)
        sol = minimize_beta2(cubic_pair(), chebyshev_design(), TIGHT)
        assert (len(calls), len(evaluations)) == (1, 1)
        np.testing.assert_allclose(sol.beta2_hat, [0.0, 0.75, 0.0], atol=1e-12)
        calls.clear()
        evaluations.clear()
        warm = minimize_beta2(cubic_pair(), chebyshev_design(), TIGHT, [1.0, -2.0, 0.5])
        assert (len(calls), len(evaluations)) == (1, 1)
        np.testing.assert_array_equal(warm.beta2_hat, sol.beta2_hat)
        assert warm.value == sol.value
        calls.clear()
        minimize_beta2(fixture_logistic_pair((-10, -10), (10, 10)),
                       Design(DesignSpace([0.0], [1.0]), [[0.2], [0.6], [0.9]],
                              [0.3, 0.3, 0.4]), TIGHT)
        assert len(calls) > 2  # a logistic solve still iterates

    def test_support_on_other_points_raises(self):
        design = chebyshev_design()
        support = prepare_support(cubic_pair(), design.points[:3])
        with pytest.raises(ValueError, match="other points"):
            minimize_beta2(cubic_pair(), design, TIGHT, support=support)

    def test_solve_on_a_prepared_support_is_the_plain_solve(self):
        pair, design = cubic_pair(), chebyshev_design()
        support = prepare_support(pair, design.points)
        for warm in (None, [1.0, -2.0, 0.5]):
            a = minimize_beta2(pair, design, TIGHT, warm, support=support)
            b = minimize_beta2(pair, design, TIGHT, warm)
            np.testing.assert_array_equal(a.beta2_hat, b.beta2_hat)
            assert (a.value, a.singular_flag, a.at_boundary) == (
                b.value, b.singular_flag, b.at_boundary)

    @pytest.mark.parametrize("case", ["gaussian", "logistic cold", "logistic warm",
                                      "warm start restarts", "regularized"])
    def test_a_solution_keeps_the_rows_of_its_points(self, case):
        # `pointwise` is the divergence at beta2_hat on the points the solve
        # ran on, the floats a Support prepared on them gives, read-only; a
        # regularized solve runs on the blend, whose leading rows are the
        # design's
        pair, design, warm = fixture_logistic_pair((-10, -10), (10, 10)), fixture_start(), None
        if case == "gaussian":
            pair, design = cubic_pair(), chebyshev_design()
        elif case == "logistic warm":
            warm = [1.0, -2.0]
        elif case == "warm start restarts":
            pair, warm = fixture_logistic_pair((-10, -10), (1000, 1000)), [495.0, 495.0]
        elif case == "regularized":
            plain = Design(design.space, [[0.25], [1.0]], [0.5, 0.5])
            reference = Design(design.space, [[0.0], [0.5], [1.0]], [1 / 3] * 3)
            design = blend_designs(plain, reference, 0.05)
            assert design.points[:2].tobytes() == plain.points.tobytes()
            assert design.size == 4
        sol = minimize_beta2(pair, design, TIGHT, warm)
        expected = prepare_support(pair, design.points).pointwise(sol.beta2_hat)
        assert sol.pointwise.tobytes() == expected.tobytes()
        assert sol.value == float(design.weights @ expected)
        assert not sol.pointwise.flags.writeable

    def test_a_pickled_or_copied_solution_keeps_its_rows(self):
        design = Design(DesignSpace([0.0], [1.0]), [[0.2], [0.6], [0.9]], [0.3, 0.3, 0.4])
        for pair, d in ((cubic_pair(), chebyshev_design()),
                        (fixture_logistic_pair((-10, -10), (10, 10)), design)):
            sol = minimize_beta2(pair, d, TIGHT)
            for twin in (pickle.loads(pickle.dumps(sol)), copy.copy(sol),
                         copy.deepcopy(sol), replace(sol)):
                assert twin.pointwise.tobytes() == sol.pointwise.tobytes()
                assert twin.beta2_hat.tobytes() == sol.beta2_hat.tobytes()
                assert (twin.value, twin.singular_flag, twin.at_boundary) == (
                    sol.value, sol.singular_flag, sol.at_boundary)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    def test_a_point_that_is_not_finite_is_refused_before_lapack(self, capfd, family,
                                                                 bad):
        # `Design` takes the point; the solve names it before dgelsd reads
        # it, so LAPACK prints no "On entry to DLASCL" line and raises no
        # LinAlgError
        pair = cubic_pair() if family == "gaussian" else fixture_logistic_pair(
            (-10, -10), (10, 10))
        design = Design(DesignSpace([0.0], [1.0]), [[0.0], [bad], [1.0]], [1 / 3] * 3)
        with pytest.raises(DomainError, match=f"point {bad} is not finite"):
            minimize_beta2(pair, design, TIGHT)
        assert "DLASCL" not in capfd.readouterr().out

    @pytest.mark.parametrize("bad", [-0.5, np.nan])
    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    def test_a_negative_or_nan_weight_is_refused_before_lapack(self, capfd, family, bad):
        # `Design` takes the weight; the solve names it before sqrt(w h) or
        # dgelsd reads it, so no RuntimeWarning, no "On entry to DLASCL" line
        # and no LinAlgError; a certificate solves through here too
        pair = cubic_pair() if family == "gaussian" else fixture_logistic_pair(
            (-10, -10), (10, 10))
        design = Design(DesignSpace([0.0], [1.0]), [[0.0], [0.5], [1.0]],
                        [0.75, bad, 0.75])
        for check in (minimize_beta2, equivalence_check):
            with pytest.raises(DomainError, match=f"weight {bad} is not nonnegative"):
                check(pair, design)
        assert "DLASCL" not in capfd.readouterr().out

    def test_zero_weight_point_keeps_the_flag(self):
        # three points give the quadratic rival full rank, two do not; the
        # rank test on one support follows each design's positive weights
        pair = cubic_pair()
        space = DesignSpace([-1.0], [1.0])
        points = [[-1.0], [1.0], [0.5]]
        support = prepare_support(pair, np.asarray(points))
        for weights, singular in (([0.5, 0.5, 0.0], True), ([0.4, 0.4, 0.2], False),
                                  ([0.5, 0.0, 0.5], True), ([0.5, 0.5, 0.0], True)):
            design = Design(space, points, weights)
            assert minimize_beta2(pair, design, TIGHT, support=support).singular_flag \
                == singular
            assert minimize_beta2(pair, design, TIGHT).singular_flag == singular


class TestColdStart:
    """A cold solve starts from the minimizer of the model taken at eta2 = eta1."""

    BOXES = [((-10, -10), (10, 10)), ((-50, -50), (50, 50)),
             ((-10, -10), (1000, 1000)), ((-1000, -1000), (10, 10))]

    def test_does_not_depend_on_the_box(self, monkeypatch):
        calls = count_bounded_lstsq(monkeypatch)
        solutions, counts = [], []
        for lower, upper in self.BOXES:
            calls.clear()
            solutions.append(minimize_beta2(fixture_logistic_pair(lower, upper),
                                            fixture_start()))
            counts.append(len(calls))
        for sol in solutions:
            np.testing.assert_array_equal(sol.beta2_hat, solutions[0].beta2_hat)
            assert sol.value == solutions[0].value
        assert counts == [counts[0]] * len(self.BOXES)

    def test_takes_at_most_four_models(self, monkeypatch):
        # the start's model and at most three Newton models
        calls = count_bounded_lstsq(monkeypatch)
        minimize_beta2(fixture_logistic_pair((-10, -10), (10, 10)), fixture_start())
        assert len(calls) <= 4

    def test_midpoint_where_expit_prime_underflows(self):
        # At the box midpoint (495, 495), expit'(990) is 0 at x = 1 and the
        # Newton model is not finite; a cold solve does not start there.
        sol = minimize_beta2(fixture_logistic_pair((-10, -10), (1000, 1000)),
                             fixture_start())
        np.testing.assert_allclose(sol.beta2_hat, FIXTURE_MIN_BETA2, atol=1e-4)
        assert sol.value == pytest.approx(FIXTURE_MIN_VALUE, abs=1e-6)
        assert not sol.at_boundary

    def test_warm_start_with_a_model_that_is_not_finite_restarts(self):
        # the solve restarts once from the model start
        pair = fixture_logistic_pair((-10, -10), (1000, 1000))
        sol = minimize_beta2(pair, fixture_start(), warm_start=[495.0, 495.0])
        np.testing.assert_allclose(sol.beta2_hat, FIXTURE_MIN_BETA2, atol=1e-4)
        assert sol.value == pytest.approx(FIXTURE_MIN_VALUE, abs=1e-6)
        cold = minimize_beta2(pair, fixture_start())
        np.testing.assert_array_equal(sol.beta2_hat, cold.beta2_hat)

    def test_restart_warns_nothing(self):
        # the curvature is tested before the model divides by it: a warning
        # raised as an error would stop the solve before its restart
        pair = fixture_logistic_pair((-10, -10), (1000, 1000))
        cold = minimize_beta2(pair, fixture_start())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = minimize_beta2(pair, fixture_start(), warm_start=[495.0, 495.0])
        np.testing.assert_array_equal(sol.beta2_hat, cold.beta2_hat)

    @pytest.mark.parametrize("case", ["seeded", "point mass", "zero weights",
                                      "sigma2 1e300", "sigma2 max"])
    def test_gaussian_start_is_the_generic_model_start(self, case):
        # a Gaussian start skips the derivatives and the keep mask: g is +0
        # and h the scalar 1 / sigma2, so the floats are the generic route's.
        # At sigma2 = the largest float h = w / max_float at w = 1, and the
        # keep rule drops that row, so the start is the empty fit's 0.
        def generic(pair, support, weights):
            g, h = pair.kernels(support.eta1)[1](support.eta1)
            keep = h > weights * inner._INV_MAX
            scale, rhs = inner._model(weights[keep], support.eta1[keep], g[keep], h[keep])
            return inner._bounded_lstsq(scale[:, None] * support.rows[keep], rhs,
                                        pair.theta2)

        rng = np.random.default_rng(2027)
        space = DesignSpace([-1.0], [1.0])
        if case == "seeded":
            instances = [random_gaussian_instance(rng) for _ in range(40)]
        else:
            sigma2 = {"sigma2 1e300": 1e300, "sigma2 max": np.finfo(float).max}.get(case, 0.5)
            pair = GaussianRegressionPair([0.3, 0, 0, 1], [0, 1, 2], BOX3, sigma2)
            if case == "zero weights":
                design = Design(space, [[-1.0], [0.0], [0.5], [1.0]], [0.5, 0.0, 0.5, 0.0])
            else:
                design = Design(space, [[0.7]], [1.0])  # a point mass
            instances = [(pair, design)]
        for pair, design in instances:
            support = prepare_support(pair, design.points)
            start = support.model_start(design.weights, pair.theta2)
            np.testing.assert_array_equal(start, generic(pair, support, design.weights))
        if case == "sigma2 max":
            np.testing.assert_array_equal(start, np.zeros(3))

    def test_model_start_leaves_out_rows_whose_curvature_underflowed(self):
        # expit'(800) is 0, so w / h is not finite at x = 1. At x = 0 the
        # start is eta1 = 0; the minimizer solves expit(b) = (1/2 + 1) / 2.
        space = DesignSpace([0.0], [1.0])
        design = Design(space, [[0.0], [1.0]], [0.5, 0.5])
        box = ParamBox([-1000.0], [1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = minimize_beta2(LogisticGlmPair([0.0, 800.0], (0,), box), design)
            # eta1 = 800 at both points: no row is left, and the infimum is 0
            flat = minimize_beta2(LogisticGlmPair([800.0], (0,), box), design)
        assert sol.beta2_hat[0] == pytest.approx(np.log(3.0), abs=1e-9)
        assert sol.value == pytest.approx(1.5 * np.log(2.0) - 0.75 * np.log(3.0),
                                          rel=1e-12)
        assert sol.value == pytest.approx(0.215761554, abs=1e-9)
        assert box.contains(flat.beta2_hat) and flat.value == pytest.approx(0.0, abs=1e-12)

    @EXAMPLES
    @given(logistic_instances())
    def test_agrees_with_the_midpoint_start(self, instance):
        # Values agree to the rounding of the softplus-form objective, and the
        # predictors to 1e-8: a Newton step that promises less decrease than
        # that rounding is taken whole, so neither solve stops short on it.
        # Regular means what the solver's flag says: a point like 1.5e-104
        # leaves the rival matrix of full rank, yet the flag calls it singular.
        pair, design = instance
        rows = pair.rival_matrix(design.points)
        cold = minimize_beta2(pair, design, TIGHT)
        assume(not cold.singular_flag)
        midpoint = minimize_beta2(pair, design, TIGHT, warm_start=pair.theta2.midpoint)
        assert cold.value == pytest.approx(midpoint.value, rel=1e-12, abs=1e-14)
        np.testing.assert_allclose(rows @ cold.beta2_hat, rows @ midpoint.beta2_hat,
                                   rtol=0.0, atol=1e-8)


class TestMultistartContract:
    """What the solve still guarantees from the multistart contract it
    replaced: results in the box, repeatable, continuous under warm starts."""

    def test_beta2_stays_in_the_box(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            pair, design = random_gaussian_instance(rng)
            sol = minimize_beta2(pair, design)
            assert pair.theta2.contains(sol.beta2_hat)

    def test_deterministic(self):
        pair, design = random_gaussian_instance(np.random.default_rng(51))
        a = minimize_beta2(pair, design, TIGHT)
        b = minimize_beta2(pair, design, TIGHT)
        np.testing.assert_array_equal(a.beta2_hat, b.beta2_hat)
        assert a.value == b.value

    def test_warm_start_continuity(self):
        pair = cubic_pair()
        design = chebyshev_design()
        base = minimize_beta2(pair, design, TIGHT)
        bound = max(float(np.max(pair.divergence(
            np.linspace(-1, 1, 101), base.beta2_hat))), base.value)
        for alpha in (1e-3, 1e-2):
            mixed = blend_designs(design, Design(design.space, [0.2], [1.0]), alpha)
            sol = minimize_beta2(pair, mixed, TIGHT, warm_start=base.beta2_hat)
            assert abs(sol.value - base.value) <= 2.0 * bound * alpha


class TestOracle:
    @EXAMPLES
    @given(gaussian_instances())
    def test_solver_matches_least_squares(self, instance):
        pair, design = instance
        beta_ls, value_ls = least_squares_oracle(pair, design)
        assume(np.max(np.abs(beta_ls)) <= 40.0)  # the oracle ignores the box
        # a cold Gaussian solve is the least-squares fit itself
        sol = minimize_beta2(pair, design, InnerConfig(local_tolerance=1e-9))
        assert sol.value == pytest.approx(value_ls, rel=1e-12, abs=1e-15)
        rows = pair.rival_matrix(design.points)
        np.testing.assert_allclose(rows @ sol.beta2_hat, rows @ beta_ls,
                                   rtol=0.0, atol=1e-8)

    @EXAMPLES
    @given(logistic_instances(), st.lists(st.floats(-10.0, 10.0), min_size=3,
                                          max_size=3))
    def test_logistic_kkt_and_multistart_oracle(self, instance, warm):
        pair, design = instance
        box = pair.theta2
        sol = minimize_beta2(pair, design, TIGHT, warm_start=warm[:box.dimension])
        rows = pair.rival_matrix(design.points)
        residual = expit(rows @ sol.beta2_hat) - expit(pair.true_predictor(design.points))
        gradient = rows.T @ (design.weights * residual)
        projected = sol.beta2_hat - box.clip(sol.beta2_hat - gradient)
        assert np.max(np.abs(projected)) <= 1e-8
        starts = [box.midpoint, box.lower, box.upper]
        assert sol.value <= multistart_simplex_value(pair, design, starts) + 1e-10

    def test_oracle_rejects_non_gaussian(self):
        d0 = Design(DesignSpace([0.0], [1.0]), [[0.5]], [1.0])
        with pytest.raises(UnsupportedModelError):
            least_squares_oracle(SyntheticFamily(), d0)

    def test_solve_rejects_the_synthetic_family(self):
        d0 = Design(DesignSpace([0.0], [1.0]), [[0.5]], [1.0])
        with pytest.raises(UnsupportedModelError):
            minimize_beta2(SyntheticFamily(), d0)


class TestCriterionValue:
    def test_synthetic_uniform_fixture(self):
        fam = SyntheticFamily(ParamBox([1e-6], [50.0]))
        assert fam.uniform_criterion() == 1.0

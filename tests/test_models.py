"""Divergence models, GLM information, and affine reparametrization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad
from scipy.special import expit as scipy_expit

from kldesign.designs import (AffineMap, Design, DesignSpace, blend_designs,
                              transform_design)
from kldesign.benchmarks import (SyntheticFamily, _glm_fisher_information as
                                 glm_fisher_information, _kl_average as kl_average)
from kldesign.errors import UnsupportedModelError
from kldesign.inner import prepare_support
from kldesign import models
from kldesign.models import (GaussianRegressionPair, LogisticGlmPair, ParamBox,
                             PolynomialPair, expit, glm_is_regular,
                             reparametrize_under_affine, softplus)

BOX3 = ParamBox([-5.0] * 3, [5.0] * 3)
# Fixed example sequence, so the suite stays deterministic.
EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=100)
# Coefficient vectors of degree 0 to 6, exact and signed zeros included.
COEFFICIENTS = st.lists(st.one_of(st.floats(-10.0, 10.0),
                                  st.sampled_from([0.0, -0.0, 1.0])),
                        min_size=1, max_size=7).map(np.array)
POINTS = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=9).map(np.array)


def assert_same_floats(actual, expected):
    # equal values and equal signs of zero
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def cubic_pair(sigma2=0.5) -> GaussianRegressionPair:
    return GaussianRegressionPair([0, 0, 0, 1], [0, 1, 2], BOX3, sigma2)


def logistic_pair() -> LogisticGlmPair:
    return LogisticGlmPair([1.0, 1.0, 1.0], [1, 2], ParamBox([-10, -10], [10, 10]))


def chebyshev_design() -> Design:
    return Design(DesignSpace([-1.0], [1.0]), [[-1.0], [-0.5], [0.5], [1.0]],
                  [1 / 6, 1 / 3, 1 / 3, 1 / 6])


class TestPointwiseDivergence:
    def test_gaussian_benchmark_point(self):
        # (1 - 3/4)^2 with sigma2 = 1/2
        assert cubic_pair().divergence(1.0, [0.0, 0.75, 0.0])[0] == pytest.approx(
            0.0625, abs=1e-15)

    def test_logistic_zero_when_predictors_match(self):
        pair = logistic_pair()
        # eta2(x) = x + x^2 equals eta1(x) - 1 nowhere, so build a matching pair
        match = LogisticGlmPair([0.0, 2.0, -1.0], [1, 2], ParamBox([-10, -10], [10, 10]))
        assert match.divergence(0.7, [2.0, -1.0])[0] == pytest.approx(0.0, abs=1e-15)
        # and at any x where eta1 = eta2 by construction
        assert pair.divergence(0.0, [3.0, -2.0])[0] == pytest.approx(
            pair.divergence(0.0, [0.0, 0.0])[0], abs=1e-15)

    def test_synthetic_upper_branch(self):
        fam = SyntheticFamily()
        assert fam.divergence(0.5, [2.0])[0] == pytest.approx(0.75, abs=1e-15)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(17)
        pairs = [cubic_pair(), logistic_pair(), SyntheticFamily()]
        for pair in pairs:
            d2 = pair.theta2.dimension
            for _ in range(200):
                x = rng.uniform(-1.0, 1.0) if not isinstance(pair, SyntheticFamily) \
                    else rng.uniform(0.0, 1.0)
                b = pair.theta2.lower + rng.uniform(0, 1, d2) * (
                    pair.theta2.upper - pair.theta2.lower)
                assert pair.divergence(x, b)[0] >= 0.0

    def test_gaussian_zero_where_means_match(self):
        pair = cubic_pair()
        # x^3 - 0.25 x vanishes at 0 and +-1/2, so the divergence does too
        b = np.array([0.0, 0.25, 0.0])
        for x in (0.0, 0.5, -0.5):
            assert pair.divergence(x, b)[0] == pytest.approx(0.0, abs=1e-15)
        assert pair.divergence(1.0, b)[0] > 0.0

    def test_logistic_stable_for_large_predictors(self):
        pair = LogisticGlmPair([0.0, 700.0], [1, 2], ParamBox([-700, -700], [700, 700]))
        val = pair.divergence(1.0, [-700.0, 0.0])[0]
        assert np.isfinite(val) and val > 0


class TestPolynomialPair:
    def test_families_state_only_their_kernel(self):
        # the shared methods live on the base class alone, once
        shared = {"divergence", "rival_matrix", "true_predictor"}
        for cls in (GaussianRegressionPair, LogisticGlmPair):
            assert issubclass(cls, PolynomialPair)
            assert not shared & set(vars(cls))

    @pytest.mark.parametrize("exponents", [[1.5, 2.9], [True, 2]])
    def test_exponents_that_are_not_integers_are_refused(self, exponents):
        # neither is truncated to the span {x, x^2}
        with pytest.raises(ValueError, match="must be integers"):
            GaussianRegressionPair([0, 0, 1], exponents, ParamBox([-5, -5], [5, 5]))

    @pytest.mark.parametrize("pair", [cubic_pair(sigma2=0.7), logistic_pair()],
                             ids=["gaussian", "logistic"])
    def test_derivatives_match_the_kernel(self, pair):
        rng = np.random.default_rng(41)
        eta1, eta2 = rng.uniform(-3, 3, 50), rng.uniform(-3, 3, 50)
        value, derivatives = pair.kernels(eta1)
        g, h = derivatives(eta2)
        step = 1e-5
        np.testing.assert_allclose(g, (value(eta2 + step) - value(eta2 - step))
                                   / (2 * step), atol=1e-8)
        g_plus, _ = derivatives(eta2 + step)
        g_minus, _ = derivatives(eta2 - step)
        np.testing.assert_allclose(h, (g_plus - g_minus) / (2 * step), atol=1e-8)

    @pytest.mark.parametrize("pair", [cubic_pair(sigma2=0.7), logistic_pair()],
                             ids=["gaussian", "logistic"])
    def test_shared_kernels_give_the_separate_closures_floats(self, pair):
        # `kernels` builds the kernel and its derivatives from one reading of
        # eta1 (one expit(eta1) for a logistic pair); on 1 to 300 points,
        # across `_SOFTPLUS_VECTOR_SIZE`, both give the floats of closures
        # that each read eta1
        rng = np.random.default_rng(47)
        for n in range(1, 301):
            eta1 = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-3, 2.5, n)
            eta2 = eta1 + rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-12, 1, n)
            values, derivatives = separate_kernel_closures(pair, eta1)
            expected = [values(eta2), *derivatives(eta2)]
            shared_values, shared_derivatives = pair.kernels(eta1)
            got = [shared_values(eta2), *shared_derivatives(eta2)]
            for a, b in zip(got, expected, strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), n

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the reference values need extended precision")
    @pytest.mark.parametrize("pair", [logistic_pair()], ids=["logistic"])
    def test_rounding_bounds_the_kernel_error(self, pair):
        # eps times kernel_rounding bounds the kernel's float64 error to a few
        # units, with predictors from 1e-3 to 1e2 apart by 1e-12 to 10; only
        # the logistic family, whose solve takes Newton steps, states it
        rng = np.random.default_rng(43)
        eta1 = rng.normal(0.0, 1.0, 2000) * 10.0 ** rng.uniform(-3, 2, 2000)
        eta2 = eta1 + rng.normal(0.0, 1.0, 2000) * 10.0 ** rng.uniform(-12, 1, 2000)
        one, two = eta1.astype(np.longdouble), eta2.astype(np.longdouble)
        exact = ((one - two) * scipy_expit(one) + np.logaddexp(np.longdouble(0), two)
                 - np.logaddexp(np.longdouble(0), one))
        error = np.abs(pair.kernels(eta1)[0](eta2) - exact)
        assert np.all(error <= 4 * np.finfo(float).eps * pair.kernel_rounding(eta1)(eta2))

    @pytest.mark.parametrize("pair", [cubic_pair(sigma2=0.7), logistic_pair()],
                             ids=["gaussian", "logistic"])
    def test_evaluator_equals_divergence(self, pair):
        # a Support's closure over fixed points gives the floats of divergence
        xs = np.linspace(-1.0, 1.0, 9)
        beta2 = np.linspace(-0.8, 0.6, pair.dimension)
        np.testing.assert_array_equal(prepare_support(pair, xs).pointwise(beta2),
                                      pair.divergence(xs, beta2))


def separate_kernel_closures(pair, eta1):
    """The family's kernel eta2 -> I and its derivatives eta2 -> (dI/deta2,
    d2I/deta2^2) at eta1, in its formulas, as two closures that each read
    eta1 themselves."""
    if isinstance(pair, GaussianRegressionPair):
        half_inv_var, inv_var = 0.5 / pair.sigma2, 1.0 / pair.sigma2
        return (lambda eta2: (eta1 - eta2) * (eta1 - eta2) * half_inv_var,
                lambda eta2: ((eta2 - eta1) * inv_var, np.full(eta2.shape, inv_var)))

    def values(eta2):
        return np.maximum((eta1 - eta2) * expit(eta1) + softplus(eta2) - softplus(eta1),
                          0.0)

    return values, lambda eta2: (expit(eta2) - expit(eta1), expit(eta2) * expit(-eta2))


class TestExpit:
    @pytest.mark.parametrize("scale", [40.0, 800.0])
    def test_within_four_ulp_of_scipy(self, scale):
        # numpy's exp against the C library's, which scipy calls
        x = np.random.default_rng(25).uniform(-scale, scale, 200_000)
        ours, scipys = expit(x), scipy_expit(x)
        # both nonnegative, so the distance of the bit patterns counts ulps
        assert np.max(np.abs(ours.view(np.int64) - scipys.view(np.int64))) <= 4

    def test_tails_and_nan(self):
        far = np.array([745.5, 800.0, 1e4, 1e308, np.inf])
        np.testing.assert_array_equal(expit(far), np.ones(far.size))
        np.testing.assert_array_equal(expit(-far), np.zeros(far.size))
        assert not np.signbit(expit(-far)).any()
        np.testing.assert_array_equal(expit(np.array([np.nan, 0.0])), [np.nan, 0.5])
        assert np.isnan(expit(np.nan))

    @pytest.mark.parametrize("state", [{"all": "raise"}, {"over": "warn"}],
                             ids=["raise", "warn"])
    def test_ignores_the_callers_error_state(self, state):
        # exp overflows below -709.78 and underflows above 745.13, and the
        # result is subnormal near -709; none of it warns or raises
        x = np.array([-800.0, -745.5, -709.5, -709.0, 0.0, 709.0, 800.0, np.inf, np.nan])
        quiet = expit(x)
        with np.errstate(**state):
            found = np.geterr(), np.geterrcall()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loud = expit(x)
            assert (np.geterr(), np.geterrcall()) == found
        np.testing.assert_array_equal(loud, quiet)


def softplus_both_ways(x: np.ndarray) -> dict:
    """`softplus` of x on the whole array and in pieces short enough to take
    `np.logaddexp` (a pure function of each value either way)."""
    short = models._SOFTPLUS_VECTOR_SIZE - 1
    return {"long": softplus(x),
            "short": np.concatenate([softplus(x[i:i + short])
                                     for i in range(0, x.size, short)])}


class TestSoftplus:
    @pytest.mark.parametrize("scale", [40.0, 800.0])
    def test_within_two_ulp_of_logaddexp(self, scale):
        # numpy's SIMD exp and log1p against logaddexp's scalar libm calls
        x = np.random.default_rng(27).uniform(-scale, scale, 200_000)
        reference = np.logaddexp(0.0, x)
        for values in softplus_both_ways(x).values():
            # both nonnegative, so the distance of the bit patterns counts ulps
            assert np.max(np.abs(values.view(np.int64) - reference.view(np.int64))) <= 2

    def test_infinities_nan_and_sign(self):
        x = np.tile([np.inf, -np.inf, np.nan, -1e308, -800.0, -40.0, 0.0, 40.0, 1e308],
                    60)
        for values in softplus_both_ways(x).values():
            np.testing.assert_array_equal(values[:3], [np.inf, 0.0, np.nan])
            number = ~np.isnan(values)
            assert number.sum() == values.size - 60
            assert not np.signbit(values[number]).any()  # no -0.0 either

    @pytest.mark.parametrize("state", [{"all": "raise"}, {"under": "warn"}],
                             ids=["raise", "warn"])
    def test_ignores_the_callers_error_state(self, state):
        # exp(-|x|) underflows above |x| = 745.13 and is subnormal near 709
        x = np.tile([-800.0, -745.5, -709.5, 0.0, 709.5, 800.0, np.inf, -np.inf, np.nan],
                    60)
        quiet = softplus_both_ways(x)
        with np.errstate(**state):
            found = np.geterr(), np.geterrcall()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loud = softplus_both_ways(x)
            assert (np.geterr(), np.geterrcall()) == found
        for size in ("long", "short"):
            np.testing.assert_array_equal(loud[size], quiet[size])


class TestNonFiniteParameters:
    # refused when built, as the config refuses them: downstream a NaN true
    # mean failed a certificate in LAPACK, an infinite box bound warned in
    # the inner solve and an infinite beta1 gave a NaN psi_max
    @pytest.mark.parametrize("lower, upper", [([-5, -5, -np.inf], [5] * 3),
                                              ([-5] * 3, [5, np.inf, 5]),
                                              ([-5] * 3, [5, 5, np.nan])])
    def test_box_bounds(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            ParamBox(lower, upper)

    @pytest.mark.parametrize("family", [GaussianRegressionPair, LogisticGlmPair])
    @pytest.mark.parametrize("beta1", [[np.nan, 0, 0, 1], [1, np.inf, 1], [-np.inf]])
    def test_beta1(self, family, beta1):
        with pytest.raises(ValueError, match="beta1"):
            family(beta1, [0, 1, 2], BOX3)

    @pytest.mark.parametrize("sigma2", [np.inf, np.nan])
    def test_sigma2(self, sigma2):
        with pytest.raises(ValueError, match="sigma2"):
            cubic_pair(sigma2=sigma2)

    def test_finite_parameters_are_kept(self):
        pair = reparametrize_under_affine(cubic_pair(sigma2=1e300), AffineMap(1.0, 2.0))
        assert pair.sigma2 == 1e300 and pair.beta1.tolist() == [0, 0, 0, 1]
        assert ParamBox([-1e308], [1e308]).dimension == 1


class TestPolynomialKernels:
    """The predictor kernels return the floats of the numpy routine they
    replace."""

    @EXAMPLES
    @given(st.lists(st.integers(0, 8), min_size=1, max_size=4, unique=True), POINTS)
    def test_rival_matrix_is_polyval_per_column(self, exponents, x):
        d2 = len(exponents)
        pair = GaussianRegressionPair([1.0], exponents, ParamBox([-1.0] * d2, [1.0] * d2))
        assert_same_floats(pair.rival_matrix(x),
                           np.column_stack([polyval(x, np.eye(e + 1)[e]) for e in exponents]))

    @EXAMPLES
    @given(COEFFICIENTS, POINTS)
    def test_true_predictor_is_polyval(self, beta1, x):
        pair = GaussianRegressionPair(beta1, (0,), ParamBox([-1.0], [1.0]))
        assert_same_floats(pair.true_predictor(x), polyval(x, beta1))


class TestAverageDivergence:
    def test_point_mass_average(self):
        pair = cubic_pair()
        d = Design(DesignSpace([-1.0], [1.0]), [[0.3]], [1.0])
        assert kl_average(pair, d, [0.1, 0.2, 0.3]) == pytest.approx(
            pair.divergence(0.3, [0.1, 0.2, 0.3])[0], abs=1e-16)

    def test_chebyshev_average_at_optimum_parameters(self):
        # |x^3 - 0.75 x| = 1/4 at all four support points
        assert kl_average(cubic_pair(), chebyshev_design(),
                          [0.0, 0.75, 0.0]) == pytest.approx(0.0625, abs=1e-15)

    def test_linearity_in_the_design(self):
        rng = np.random.default_rng(23)
        pair = cubic_pair()
        space = DesignSpace([-1.0], [1.0])
        for _ in range(25):
            m = int(rng.integers(1, 6))
            d = Design(space, rng.uniform(-1, 1, (m, 1)), rng.dirichlet(np.ones(m)))
            x = rng.uniform(-1, 1, 1)
            a = float(rng.uniform(0, 1))
            b = rng.uniform(-2, 2, 3)
            mixed = blend_designs(d, Design(space, x, [1.0]), a)
            expected = (1 - a) * kl_average(pair, d, b) + a * pair.divergence(x, b)[0]
            assert kl_average(pair, mixed, b) == pytest.approx(expected, abs=1e-12)


class TestSyntheticFamily:
    def test_branch_continuity_at_one(self):
        fam = SyntheticFamily()
        xs = np.linspace(0.0, 1.0, 101)
        lower = fam.divergence(xs, [1.0])
        upper = fam.divergence(xs, [np.nextafter(1.0, 2.0)])
        np.testing.assert_allclose(lower, 2.0 * xs, atol=1e-12)
        np.testing.assert_allclose(upper, 2.0 * xs, atol=1e-12)

    def test_truncated_uniform_average_matches_quadrature(self):
        fam = SyntheticFamily()
        for n in (2, 5, 100):
            width = 1.0 - 1.0 / n
            for b in (0.2, 0.8, 1.0, 2.5, 20.0):
                numeric = quad(lambda x: fam.divergence(np.array([x]), [b])[0],
                               0.0, width, epsabs=1e-13, epsrel=1e-13)[0] / width
                assert fam.truncated_uniform_average(b, n) == pytest.approx(
                    numeric, abs=1e-10)

    def test_uniform_average_is_one(self):
        fam = SyntheticFamily()
        for b in (0.1, 0.5, 1.0, 3.0, 100.0):
            numeric = quad(lambda x: fam.divergence(np.array([x]), [b])[0],
                           0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
            assert numeric == pytest.approx(1.0, abs=1e-9)
            assert fam.uniform_average(b) == 1.0

    def test_truncated_criterion_matches_grid_infimum(self):
        fam = SyntheticFamily()
        box = ParamBox([1e-6], [1000.0])
        for n in (2, 10, 100):
            grid = np.concatenate([np.linspace(1e-6, 1.0, 2001),
                                   np.linspace(1.0, 1000.0, 20001)])
            brute = min(fam.truncated_uniform_average(b, n) for b in grid)
            assert fam.truncated_uniform_criterion(n, box) == pytest.approx(
                brute, rel=1e-9)

    def test_uniform_criterion_is_one_on_any_box(self):
        fam = SyntheticFamily()
        assert fam.uniform_criterion(ParamBox([1e-6], [50.0])) == 1.0


def glm_weights(pair, rows, beta2) -> np.ndarray:
    """Diagonal of the GLM weight matrix at eta2 = rows @ beta2: the second
    derivative of the pair's divergence kernel, which does not depend on eta1."""
    eta2 = np.asarray(rows, dtype=float) @ np.asarray(beta2, dtype=float)
    return pair.kernels(np.zeros_like(eta2))[1](eta2)[1]


class TestGlmInformation:
    def test_identity_design_logistic(self):
        # eta = (1, 0) gives W = diag(F(1)(1-F(1)), F(0)(1-F(0)))
        j = glm_fisher_information(np.eye(2), glm_weights(logistic_pair(), np.eye(2),
                                                          [1.0, 0.0]))
        f1 = np.exp(1) / (1 + np.exp(1)) ** 2
        np.testing.assert_allclose(np.diag(j), [f1, 0.25], atol=1e-12)
        np.testing.assert_allclose(j, np.diag(np.diag(j)), atol=1e-15)
        assert np.diag(j)[0] == pytest.approx(0.19661, abs=1e-5)

    def test_identical_rows_rank_one(self):
        rows = [[1.0, 2.0], [1.0, 2.0]]
        j = glm_fisher_information(rows, glm_weights(logistic_pair(), rows, [0.3, -0.2]))
        assert np.linalg.matrix_rank(j) == 1
        assert not glm_is_regular(rows)

    def test_gaussian_family_is_plain_gram(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 3))
        w = glm_weights(cubic_pair(sigma2=1.0), x, np.zeros(3))
        np.testing.assert_allclose(glm_fisher_information(x, w), x.T @ x, atol=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n, d2 = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            rows = rng.normal(size=(n, d2))
            w = glm_weights(logistic_pair(), rows, rng.normal(size=d2))
            eigs = np.linalg.eigvalsh(glm_fisher_information(rows, w))
            assert eigs.min() >= -1e-12


class TestGlmRegularity:
    def test_single_row_is_deficient(self):
        assert not glm_is_regular([[1.0, 0.5]])

    def test_vandermonde_is_regular(self):
        x = np.array([-1.0, -0.5, 0.5, 1.0])
        rows = np.column_stack([np.ones(4), x, x ** 2])
        assert glm_is_regular(rows)

    def test_proportional_rows_deficient(self):
        assert not glm_is_regular([[1.0, 2.0], [2.0, 4.0]])

    def test_agreement_with_information_eigenvalues(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            d2 = int(rng.integers(1, 5))
            n = int(rng.integers(1, 8))
            rows = rng.normal(size=(n, d2))
            if rng.uniform() < 0.4 and n >= 2:
                rows[-1] = rows[0] * rng.choice([1.0, -2.0])
            w = glm_weights(logistic_pair(), rows, rng.uniform(-2, 2, d2))
            eigs = np.linalg.eigvalsh(glm_fisher_information(rows, w))
            by_eig = eigs.min() > max(n, d2) * eigs.max() * 1e-12
            assert glm_is_regular(rows) == by_eig


# Maps z = a + bx and points x = k / 64 on [-3, 3] that round-trip exactly:
# a + bx and (z - a) / b are exact in float64, offsets up to 1e6 included.
EXACT_MAPS = st.tuples(st.sampled_from([0.0, 2.0, -3.0, 1e3, 1e6]),
                       st.sampled_from([1.0, -1.0, 4.0, -2.0, 0.5]))
DYADIC_POINTS = st.lists(st.integers(-192, 192), min_size=1, max_size=9).map(
    lambda k: np.array(k) / 64.0)


class TestReparametrization:
    def test_image_keeps_coefficients_and_gains_the_frame(self):
        pair = cubic_pair()
        amap = AffineMap([2.0], [[4.0]])
        out = reparametrize_under_affine(pair, amap)
        assert out.frame == amap and pair.frame is None
        np.testing.assert_array_equal(out.beta1, pair.beta1)
        assert out.rival_exponents == pair.rival_exponents == (0, 1, 2)

    def test_identity_map_keeps_coefficients(self):
        out = reparametrize_under_affine(cubic_pair(), AffineMap(0.0, 1.0))
        np.testing.assert_allclose(out.beta1, [0, 0, 0, 1], atol=0.0)

    @EXAMPLES
    @given(COEFFICIENTS, st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True),
           EXACT_MAPS, DYADIC_POINTS)
    def test_image_at_a_plus_bx_is_the_original_at_x(self, beta1, exponents, ab, x):
        d2 = len(exponents)
        pair = GaussianRegressionPair(beta1, exponents, ParamBox([-1.0] * d2, [1.0] * d2))
        amap = AffineMap(*ab)
        image = reparametrize_under_affine(pair, amap)
        z = amap.apply(x)
        np.testing.assert_array_equal(image.true_predictor(z), pair.true_predictor(x))
        np.testing.assert_array_equal(image.rival_matrix(z), pair.rival_matrix(x))

    def test_sign_flip(self):
        # eta1 = x on the image of z = -x is eta1 = -z
        pair = GaussianRegressionPair([0.0, 1.0], [0, 1], ParamBox([-5, -5], [5, 5]))
        out = reparametrize_under_affine(pair, AffineMap([0.0], [[-1.0]]))
        z = np.array([-1.0, -0.25, 0.5, 3.0])
        np.testing.assert_array_equal(out.true_predictor(z), -z)
        np.testing.assert_array_equal(out.rival_matrix(z), np.column_stack([z ** 0, -z]))

    @EXAMPLES
    @given(EXACT_MAPS, EXACT_MAPS, DYADIC_POINTS)
    def test_twice_is_once_with_the_composed_map(self, first, second, x):
        pair = cubic_pair()
        m1, m2 = AffineMap(*first), AffineMap(*second)
        composed = AffineMap(m2.offset + m2.scale * m1.offset, m2.scale * m1.scale)
        twice = reparametrize_under_affine(reparametrize_under_affine(pair, m1), m2)
        once = reparametrize_under_affine(pair, composed)
        z = m2.apply(m1.apply(x))
        np.testing.assert_array_equal(twice.true_predictor(z), once.true_predictor(z))
        np.testing.assert_array_equal(twice.rival_matrix(z), once.rival_matrix(z))
        np.testing.assert_array_equal(twice.true_predictor(z), pair.true_predictor(x))

    def test_synthetic_family_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            reparametrize_under_affine(SyntheticFamily(), AffineMap(0.0, 1.0))

    def test_average_invariant_pointwise_in_beta2(self):
        # same criterion integrand on both domains for every beta2
        rng = np.random.default_rng(37)
        pair = cubic_pair()
        amap = AffineMap([2.0], [[4.0]])
        image_pair = reparametrize_under_affine(pair, amap)
        space = DesignSpace([-1.0], [1.0])
        for _ in range(25):
            m = int(rng.integers(1, 6))
            d = Design(space, rng.uniform(-1, 1, (m, 1)), rng.dirichlet(np.ones(m)))
            dz = transform_design(d, amap)
            b = rng.uniform(-3, 3, 3)
            assert kl_average(pair, d, b) == pytest.approx(
                kl_average(image_pair, dz, b), abs=1e-10)

    def test_logistic_reparametrization(self):
        pair = logistic_pair()
        amap = AffineMap([1.0], [[2.0]])
        out = reparametrize_under_affine(pair, amap)
        xs = np.linspace(0.0, 1.0, 7)
        zs = amap.apply(xs[:, None]).ravel()
        b = np.array([0.7, -0.4])
        np.testing.assert_allclose(pair.divergence(xs, b), out.divergence(zs, b),
                                   atol=1e-12)

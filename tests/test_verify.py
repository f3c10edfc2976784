"""Equivalence-theorem certification and invariance checks."""

import numpy as np
import pytest

from kldesign.algorithm import (AlgoConfig, RegularizationConfig,
                                best_support_candidate, run_first_order)
from kldesign.benchmarks import (SyntheticFamily, cubic_quadratic_optimum,
                                 cubic_quadratic_pair, cubic_quadratic_space,
                                 cubic_quadratic_start, logistic_pair,
                                 logistic_reference_design, logistic_space,
                                 verify_inner_config)
from kldesign.designs import AffineMap, Design, DesignSpace, transform_design
from kldesign.errors import DomainError, UnsupportedModelError
from kldesign.inner import InnerConfig, least_squares_oracle
from kldesign.models import reparametrize_under_affine
from kldesign.verify import (CERTIFIED, REJECTED, SINGULAR, equivalence_check,
                             invariance_check)


class TestEquivalenceCheck:
    def test_certifies_the_analytic_optimum(self):
        report = equivalence_check(cubic_quadratic_pair(), cubic_quadratic_optimum(),
                                   inner_config=verify_inner_config())
        assert report.verdict == CERTIFIED
        assert report.psi_max <= report.pass_tolerance
        assert np.max(np.abs(report.support_psi)) <= 1e-8
        # zero locations cluster at the support points
        for x in (-1.0, -0.5, 0.5, 1.0):
            assert np.min(np.abs(report.zero_locations - x)) <= 2e-3

    @pytest.mark.parametrize("offset", [1e2, 1e3, 1e4, 1e6])
    def test_certifies_the_image_of_the_optimum_far_from_the_origin(self, offset):
        # under z = offset + x the image pair evaluates at x, so the
        # certificate reads the original's floats
        amap = AffineMap(offset, 1.0)
        report = equivalence_check(reparametrize_under_affine(cubic_quadratic_pair(), amap),
                                   transform_design(cubic_quadratic_optimum(), amap),
                                   inner_config=verify_inner_config())
        assert report.verdict == CERTIFIED
        assert report.criterion_value == pytest.approx(1 / 16, rel=1e-12)
        assert report.psi_max <= 1e-12

    def test_rejects_uniform_weights(self):
        opt = cubic_quadratic_optimum()
        uniform = Design(opt.space, opt.points, [0.25] * 4)
        # independent check that uniform weights shift the inner fit
        beta_u, value_u = least_squares_oracle(cubic_quadratic_pair(), uniform)
        assert np.max(np.abs(beta_u - np.array([0.0, 0.75, 0.0]))) > 1e-3
        report = equivalence_check(cubic_quadratic_pair(), uniform,
                                   inner_config=verify_inner_config())
        assert report.verdict == REJECTED
        assert report.psi_max > report.pass_tolerance

    @pytest.mark.parametrize("grid_size", [11, 2001])
    def test_rejects_a_peak_between_grid_nodes(self, grid_size):
        # weights optimal for the support {+-1, +-0.55}; psi peaks at about
        # +-0.5 with 1.87e-3, between the nodes of an 11-node grid
        design = Design(cubic_quadratic_space(), [[-1.0], [-0.55], [0.55], [1.0]],
                        [0.17742, 0.32258, 0.32258, 0.17742])
        report = equivalence_check(cubic_quadratic_pair(), design,
                                   grid_size=grid_size,
                                   inner_config=verify_inner_config())
        assert report.verdict == REJECTED
        assert report.psi_max == pytest.approx(1.87e-3, rel=1e-2)
        assert abs(abs(report.psi_argmax[0]) - 0.5) <= 1e-2

    def test_loop_and_certificate_agree(self):
        design = cubic_quadratic_start()
        report = equivalence_check(cubic_quadratic_pair(), design,
                                   inner_config=verify_inner_config())
        x, psi = best_support_candidate(cubic_quadratic_pair(), design,
                                        report.beta2_hat, cubic_quadratic_space())
        assert psi == report.psi_max
        np.testing.assert_array_equal(x, report.psi_argmax)
        assert x.base is None  # a copy: iteration records do not keep the scan

    def test_singular_without_regularization(self):
        d0 = Design(logistic_space(), [[0.0]], [1.0])
        report = equivalence_check(logistic_pair(), d0,
                                   inner_config=verify_inner_config())
        assert report.verdict == SINGULAR

    def test_certified_with_regularization(self):
        d0 = Design(logistic_space(), [[0.0]], [1.0])
        reg = RegularizationConfig(gamma=0.05, xi_tilde=logistic_reference_design())
        report = equivalence_check(logistic_pair(), d0, grid_size=1001,
                                   inner_config=verify_inner_config(), reg=reg)
        assert report.verdict == CERTIFIED
        assert report.gamma == 0.05
        assert report.psi_max <= 1e-6
        assert np.all(report.grid_psi <= 1e-6)

    def test_regularized_check_rejects_a_singular_reference(self):
        d0 = Design(logistic_space(), [[0.0]], [1.0])
        reg = RegularizationConfig(gamma=0.05, xi_tilde=d0)
        with pytest.raises(DomainError, match="reference design"):
            equivalence_check(logistic_pair(), d0, grid_size=1001,
                              inner_config=verify_inner_config(), reg=reg)

    def test_refuses_the_synthetic_family(self):
        design = Design(DesignSpace([0.0], [1.0]), [[0.2], [0.9]], [0.5, 0.5])
        with pytest.raises(UnsupportedModelError):
            equivalence_check(SyntheticFamily(), design)

    def test_certified_verdict_stable_under_grid_refinement(self):
        for grid in (1001, 2001, 4001):
            report = equivalence_check(cubic_quadratic_pair(),
                                       cubic_quadratic_optimum(), grid_size=grid,
                                       inner_config=verify_inner_config())
            assert report.verdict == CERTIFIED

    def test_consistent_with_the_stopping_rule(self, ctx):
        # a run stopped at delta leaves at most (1-delta)/delta relative gap
        delta = 0.995
        run = run_first_order(cubic_quadratic_pair(), cubic_quadratic_optimum(),
                              cubic_quadratic_space(),
                              AlgoConfig(delta=delta, max_iterations=200),
                              InnerConfig())
        assert run.termination_reason == "efficiency-reached"
        report = equivalence_check(cubic_quadratic_pair(), run.final_design,
                                   inner_config=verify_inner_config())
        assert report.psi_max / report.criterion_value <= (1 - delta) / delta + 1e-6

    def test_psi_curve_csv_shape(self):
        report = equivalence_check(cubic_quadratic_pair(), cubic_quadratic_optimum(),
                                   grid_size=101, inner_config=verify_inner_config())
        lines = report.psi_curve_csv().strip().split("\n")
        assert lines[0] == "x1,psi"
        assert len(lines) == 102


class TestInvarianceCheck:
    def test_benchmark_design_under_rescaling(self):
        report = invariance_check(cubic_quadratic_pair(), cubic_quadratic_optimum(),
                                  AffineMap([2.0], [[4.0]]),
                                  verify_inner_config())
        assert report.passed
        assert report.value_original == pytest.approx(0.0625, abs=1e-8)
        assert report.value_transformed == pytest.approx(0.0625, abs=1e-8)

    def test_identity_map_is_exact(self):
        report = invariance_check(cubic_quadratic_pair(), cubic_quadratic_optimum(),
                                  AffineMap(0.0, 1.0), verify_inner_config())
        assert report.difference == 0.0

    def test_random_designs_under_shift_and_scale(self):
        rng = np.random.default_rng(91)
        amap = AffineMap([-3.0], [[2.0]])
        space = DesignSpace([-1.0], [1.0])
        cfg = InnerConfig(local_tolerance=1e-10)
        for _ in range(20):
            d = Design(space, rng.uniform(-1, 1, (4, 1)), rng.dirichlet(np.ones(4)))
            report = invariance_check(cubic_quadratic_pair(), d, amap, cfg)
            assert report.passed, report

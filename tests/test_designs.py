"""Design container and measure-level operations."""

import json

import numpy as np
import pytest
import scipy.stats
from scipy.optimize import linprog

from kldesign.designs import (AffineMap, Design, DesignSpace, blend_designs,
                              collapse_support, mix_design, prune_support,
                              transform_design, validate_design,
                              wasserstein_distance, wasserstein_distance_lp)
from kldesign.errors import DomainError, SingularMapError


def chebyshev_design() -> Design:
    space = DesignSpace([-1.0], [1.0])
    return Design(space, [[-1.0], [-0.5], [0.5], [1.0]],
                  [1 / 6, 1 / 3, 1 / 3, 1 / 6])


def transport_lp_oracle(d1: Design, d2: Design) -> float:
    # Independent transport LP assembly (sparse-free, both marginals kept,
    # solved in standard form) used purely as a test oracle.
    n1, n2 = d1.size, d2.size
    cost = np.array([[np.linalg.norm(d1.points[i] - d2.points[j])
                      for j in range(n2)] for i in range(n1)])
    rows = []
    for i in range(n1):
        r = np.zeros((n1, n2))
        r[i, :] = 1.0
        rows.append(r.ravel())
    for j in range(n2):
        r = np.zeros((n1, n2))
        r[:, j] = 1.0
        rows.append(r.ravel())
    res = linprog(cost.ravel(), A_eq=np.array(rows)[:-1],
                  b_eq=np.concatenate([d1.weights, d2.weights])[:-1],
                  bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


def random_design(rng, space, max_points=8) -> Design:
    m = int(rng.integers(1, max_points + 1))
    pts = rng.uniform(space.lower, space.upper, size=(m, 1))
    return Design(space, pts, rng.dirichlet(np.ones(m)))


class TestValidation:
    def test_chebyshev_design_is_valid(self):
        assert validate_design(chebyshev_design()).ok

    def test_one_point_design_is_valid(self):
        d = Design(DesignSpace([0.0], [1.0]), [[0.0]], [1.0])
        assert validate_design(d).ok

    def test_bad_weight_sum_is_reported(self):
        d = Design(DesignSpace([0.0], [1.0]), [[0.2], [0.8]], [0.5, 0.6])
        report = validate_design(d)
        assert not report.ok
        assert any("weight sum 1.1" in v for v in report.violations)

    def test_out_of_box_and_negative_weight(self):
        d = Design(DesignSpace([0.0], [1.0]), [[2.0], [0.5]], [1.2, -0.2])
        report = validate_design(d)
        assert any("outside box" in v for v in report.violations)
        assert any("negative weight" in v for v in report.violations)

    @pytest.mark.parametrize("weights", [[np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_non_finite_weight_is_reported(self, weights):
        points = [[0.2], [0.8]][:len(weights)]
        report = validate_design(Design(DesignSpace([0.0], [1.0]), points, weights))
        assert not report.ok
        assert any("non-finite weight" in v for v in report.violations)

    def test_duplicate_points_reported(self):
        d = Design(DesignSpace([0.0], [1.0]), [[0.5], [0.5]], [0.5, 0.5])
        report = validate_design(d)
        assert any("coincide" in v for v in report.violations)


class TestMixDesign:
    def test_two_point_mixture(self):
        d0 = Design(DesignSpace([-1.0], [1.0]), [[0.0]], [1.0])
        mixed = mix_design(d0, [1.0], 0.5)
        assert mixed.points.ravel().tolist() == [0.0, 1.0]
        np.testing.assert_allclose(mixed.weights, [0.5, 0.5])

    def test_alpha_zero_is_identity(self):
        d = chebyshev_design()
        assert mix_design(d, [0.3], 0.0) is d

    def test_merge_into_existing_point(self):
        # weight at 1 becomes 0.6 * (1/6) + 0.4 = 0.5; the rest scale by 0.6
        d = chebyshev_design()
        mixed = mix_design(d, [1.0], 0.4)
        assert mixed.size == 4
        assert mixed.weight_at([1.0]) == pytest.approx(0.6 / 6 + 0.4, abs=1e-15)
        assert mixed.weight_at([-0.5]) == pytest.approx(0.6 / 3, abs=1e-15)

    def test_alpha_one_keeps_only_new_point(self):
        d = chebyshev_design()
        mixed = mix_design(d, [0.25], 1.0)
        assert mixed.size == 1
        assert mixed.weights[0] == 1.0

    def test_point_outside_space_raises(self):
        with pytest.raises(DomainError):
            mix_design(chebyshev_design(), [2.0], 0.5)

    def test_mixture_stays_valid_and_close(self):
        # d_w(mix(xi, x, a), xi) <= a * diam(X)
        rng = np.random.default_rng(3)
        space = DesignSpace([-1.0], [1.0])
        for _ in range(30):
            d = random_design(rng, space)
            x = rng.uniform(-1.0, 1.0, size=1)
            a = float(rng.uniform(0.0, 1.0))
            mixed = mix_design(d, x, a)
            assert validate_design(mixed).ok
            assert wasserstein_distance(mixed, d) <= a * space.diameter + 1e-12


class TestCollapseSupport:
    def test_symmetric_barycenter(self):
        d = Design(DesignSpace([0.0], [1.0]), [[0.0], [0.01]], [0.5, 0.5])
        out = collapse_support(d, [0.01], 0.02, 1.0)
        assert out.size == 1
        assert out.points[0, 0] == pytest.approx(0.005, abs=1e-15)
        assert out.weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_anchor_weight_factor(self):
        # barycenter (0.5*0 + 3*0.5*0.01) / (0.5 + 1.5) = 0.0075
        d = Design(DesignSpace([0.0], [1.0]), [[0.0], [0.01]], [0.5, 0.5])
        out = collapse_support(d, [0.01], 0.02, 3.0)
        assert out.points[0, 0] == pytest.approx(0.0075, abs=1e-15)
        assert out.weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty_ball_is_identity(self):
        d = chebyshev_design()
        assert collapse_support(d, [0.0], 0.01, 2.0) is d

    def test_weights_still_sum_to_one(self):
        rng = np.random.default_rng(11)
        space = DesignSpace([-1.0], [1.0])
        for _ in range(50):
            d = random_design(rng, space)
            anchor = d.points[rng.integers(0, d.size)]
            out = collapse_support(d, anchor, float(rng.uniform(0.01, 1.0)),
                                   float(rng.uniform(1.0, 10.0)))
            assert abs(out.weights.sum() - 1.0) <= 1e-12
            assert validate_design(out).ok


class TestPruneSupport:
    def test_absolute_threshold(self):
        d = Design(DesignSpace([0.0], [1.0]), [[0.1], [0.9]], [0.998, 0.002])
        out = prune_support(d, abs_threshold=0.01)
        assert out.size == 1
        assert out.weights[0] == 1.0

    def test_uniform_weights_unchanged(self):
        d = Design(DesignSpace([0.0], [1.0]), [[0.1], [0.3], [0.6], [0.9]],
                   [0.25] * 4)
        assert prune_support(d, 0.01, 0.1) is d

    def test_relative_threshold(self):
        # mean of the others is 0.49 and 0.02 < 0.1 * 0.49
        d = Design(DesignSpace([0.0], [1.0]), [[0.1], [0.5], [0.9]],
                   [0.49, 0.49, 0.02])
        out = prune_support(d, 0.0, 0.1)
        assert out.size == 2
        np.testing.assert_allclose(out.weights, [0.5, 0.5])

    def test_never_removes_last_point(self):
        d = Design(DesignSpace([0.0], [1.0]), [[0.5]], [1.0])
        assert prune_support(d, 0.99, 0.0) is d

    def test_weights_renormalized(self):
        rng = np.random.default_rng(5)
        space = DesignSpace([0.0], [1.0])
        for _ in range(50):
            d = random_design(rng, space)
            out = prune_support(d, 0.05, 0.2)
            assert abs(out.weights.sum() - 1.0) <= 1e-12


class TestWasserstein:
    def test_point_masses(self):
        space = DesignSpace([-2.0], [2.0])
        d0 = Design(space, [[0.0]], [1.0])
        d1 = Design(space, [[1.0]], [1.0])
        assert wasserstein_distance(d0, d1) == pytest.approx(1.0, abs=1e-15)

    def test_identity(self):
        d = chebyshev_design()
        assert wasserstein_distance(d, d) == 0.0

    def test_chebyshev_vs_uniform_weights(self):
        # piecewise CDF-difference area: 1/12 * 1/2 + 0 + 1/12 * 1/2 = 1/12,
        # confirmed by the independent LP oracle below
        d1 = chebyshev_design()
        d2 = Design(d1.space, d1.points, [0.25] * 4)
        assert wasserstein_distance(d1, d2) == pytest.approx(1 / 12, abs=1e-12)
        assert transport_lp_oracle(d1, d2) == pytest.approx(1 / 12, abs=1e-9)

    def test_quantile_formula_matches_lp(self):
        rng = np.random.default_rng(7)
        space = DesignSpace([-1.0], [1.0])
        for _ in range(40):
            d1 = random_design(rng, space)
            d2 = random_design(rng, space)
            assert wasserstein_distance(d1, d2) == pytest.approx(
                wasserstein_distance_lp(d1, d2), abs=1e-9)

    def test_matches_scipy_in_1d(self):
        rng = np.random.default_rng(9)
        space = DesignSpace([-1.0], [1.0])
        for _ in range(25):
            d1 = random_design(rng, space)
            d2 = random_design(rng, space)
            ref = scipy.stats.wasserstein_distance(
                d1.points.ravel(), d2.points.ravel(), d1.weights, d2.weights)
            assert wasserstein_distance(d1, d2) == pytest.approx(ref, abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(13)
        space = DesignSpace([-1.0], [1.0])
        for _ in range(25):
            a, b, c = (random_design(rng, space) for _ in range(3))
            dab = wasserstein_distance(a, b)
            dba = wasserstein_distance(b, a)
            assert dab == pytest.approx(dba, abs=0.0)
            assert wasserstein_distance(a, a) == 0.0
            assert dab <= wasserstein_distance(a, c) + wasserstein_distance(c, b) + 1e-9

    def test_dimension_mismatch(self):
        # designs have one experimental variable, so no pair of them can
        # disagree in dimension: a second variable is refused at construction
        with pytest.raises(DomainError):
            DesignSpace([0, 0], [1, 1])
        with pytest.raises(DomainError):
            Design(DesignSpace([0], [1]), [[0.5, 0.5]], [1.0])


class TestAffine:
    def test_transform_chebyshev(self):
        amap = AffineMap([2.0], [[4.0]])
        out = transform_design(chebyshev_design(), amap)
        np.testing.assert_allclose(out.points.ravel(), [-2.0, 0.0, 4.0, 6.0])
        np.testing.assert_allclose(out.weights, [1 / 6, 1 / 3, 1 / 3, 1 / 6])
        np.testing.assert_allclose([out.space.lower[0], out.space.upper[0]], [-2.0, 6.0])

    def test_identity_map(self):
        d = chebyshev_design()
        out = transform_design(d, AffineMap(0.0, 1.0))
        np.testing.assert_array_equal(out.points, d.points)
        np.testing.assert_array_equal(out.weights, d.weights)

    def test_reflection_of_point_mass(self):
        d0 = Design(DesignSpace([0.0], [1.0]), [[0.0]], [1.0])
        out = transform_design(d0, AffineMap([1.0], [[-1.0]]))
        assert out.points[0, 0] == pytest.approx(1.0, abs=0.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(21)
        space = DesignSpace([-1.0], [1.0])
        for amap in (AffineMap(0.7, 2.3), AffineMap(-1.2, -0.45)):
            for _ in range(20):
                d = random_design(rng, space, max_points=5)
                back = transform_design(transform_design(d, amap), amap.inverted())
                assert np.max(np.abs(back.points - d.points)) <= 1e-10
                np.testing.assert_array_equal(back.weights, d.weights)

    def test_map_inverse_identity_on_corners(self):
        # the corners of an interval are its two ends
        ends = np.array([[-1.0], [3.0]])
        for amap in (AffineMap(0.7, 2.3), AffineMap(-1.2, -0.45)):
            back = amap.inverted().apply(amap.apply(ends))
            assert np.max(np.abs(back - ends)) <= 1e-10
            image = amap.image_box(DesignSpace([-1.0], [3.0]))
            np.testing.assert_allclose(
                [image.lower[0], image.upper[0]], np.sort(amap.apply(ends)[:, 0]))

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMapError):
            AffineMap([0.0], [[0.0]])

    def test_map_takes_one_number_each(self):
        with pytest.raises(ValueError, match="offset"):
            AffineMap([0.0, 1.0], 2.0)
        with pytest.raises(ValueError, match="scale"):
            AffineMap(0.0, [[1.0, 0.0], [0.0, 2.0]])
        amap = AffineMap([2.0], [[4.0]])
        assert (amap.offset, amap.scale) == (2.0, 4.0)


class TestBlend:
    def test_blend_merges_shared_points(self):
        space = DesignSpace([0.0], [1.0])
        d1 = Design(space, [[0.0], [1.0]], [0.5, 0.5])
        d2 = Design(space, [[0.0], [0.5]], [0.4, 0.6])
        out = blend_designs(d1, d2, 0.25)
        assert out.size == 3
        assert out.weight_at([0.0]) == pytest.approx(0.75 * 0.5 + 0.25 * 0.4)
        assert out.weight_at([0.5]) == pytest.approx(0.25 * 0.6)
        assert abs(out.weights.sum() - 1.0) <= 1e-12

    def test_blend_endpoints(self):
        space = DesignSpace([0.0], [1.0])
        d1 = Design(space, [[0.0]], [1.0])
        d2 = Design(space, [[1.0]], [1.0])
        assert blend_designs(d1, d2, 0.0) is d1
        assert blend_designs(d1, d2, 1.0) is d2


class TestSerialization:
    def test_json_roundtrip_is_exact(self):
        d = chebyshev_design()
        data = json.loads(json.dumps(d.as_dict()))
        back = Design.from_dict(data)
        np.testing.assert_array_equal(back.points, d.points)
        np.testing.assert_array_equal(back.weights, d.weights)
        np.testing.assert_array_equal(back.space.lower, d.space.lower)

    def test_full_precision_weights(self):
        w = [1 / 3, 1 / 6, 0.5]
        d = Design(DesignSpace([0.0], [1.0]), [[0.1], [0.2], [0.3]], w)
        restored = json.loads(json.dumps(d.as_dict()))["weights"]
        assert restored == d.weights.tolist()

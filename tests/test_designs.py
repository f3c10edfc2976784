"""Design container and measure-level operations."""

import copy
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from kldesign import designs
from kldesign.algorithm import AlgoConfig, run_first_order
from kldesign.benchmarks import (_monotone_coupling_cost, cubic_quadratic_optimum,
                                 cubic_quadratic_pair, cubic_quadratic_space,
                                 cubic_quadratic_start)
from kldesign.designs import (AffineMap, Design, DesignSpace, ValidationReport,
                              blend_designs, transform_design, validate_design,
                              wasserstein_distance)
from kldesign.errors import DomainError, SingularMapError
from kldesign.inner import minimize_beta2
from kldesign.models import GaussianRegressionPair, LogisticGlmPair, ParamBox
from kldesign.verify import equivalence_check


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


@st.composite
def designs_to_validate(draw):
    """A design of one to six points on [0, 1] that may break any check:
    points at, just inside and just outside the ends' 1e-12 slack, NaN or
    infinite, or within 1e-12 of an earlier point; NaN, infinite, negative
    or zero weights, and weight sums off 1 by less or more than 1e-12."""
    m = draw(st.integers(1, 6))
    edges = st.sampled_from([0.0, 1.0, -1e-12, 1.0 + 1e-12, -2e-12, 1.0 + 2e-12,
                             np.nan, np.inf, -np.inf])
    points = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m, unique=True))
    for i in range(m):
        if draw(st.integers(0, 5)) == 0:
            points[i] = draw(edges)
        elif i and draw(st.integers(0, 5)) == 0:
            points[i] = points[draw(st.integers(0, i - 1))] + draw(
                st.sampled_from([0.0, -0.0, 5e-13, -1e-12, 1e-12, 1.5e-12]))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    weights /= weights.sum()
    if draw(st.integers(0, 3)) == 0:
        weights[draw(st.integers(0, m - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf, -0.1, -0.0, 0.0]))
    weights[0] += draw(st.sampled_from([0.0, 0.0, 5e-13, -5e-13, 2e-12, -2e-12]))
    return Design(DesignSpace([0.0], [1.0]), np.array(points)[:, None], weights)


def array_validation(design: Design) -> ValidationReport:
    """`validate_design`'s checks and messages, each check one numpy
    comparison over the design's arrays: the reference it is tested against."""
    space, points, weights = design.space, design.points, design.weights
    bad = [f"point {i} = {points[i].tolist()} outside box"
           for i in np.nonzero(~space.contains(points))[0]]
    bad += [f"non-finite weight {weights[i]} at index {i}"
            for i in np.nonzero(~np.isfinite(weights))[0]]
    bad += [f"negative weight {weights[i]:.12g} at index {i}"
            for i in np.nonzero(weights < 0.0)[0]]
    total = float(weights.sum())
    if abs(total - 1.0) > designs.WEIGHT_TOL:
        bad.append(f"weight sum {total:.12g} != 1")
    with np.errstate(invalid="ignore"):  # inf - inf
        near = np.abs(points - points.T) <= designs.DUPLICATE_TOL
    bad += [f"points {i} and {j} coincide (within {designs.DUPLICATE_TOL:g})"
            for i, j in zip(*np.nonzero(np.triu(near, k=1)))]
    return ValidationReport(not bad, tuple(bad))


class TestValidation:
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(designs_to_validate())
    @example(Design(DesignSpace([0.0], [1.0]), [[0.3], [np.nan], [0.3]], [0.2, 0.3, 0.5]))
    @example(Design(DesignSpace([0.0], [1.0]), [[np.inf], [0.3], [np.inf], [0.3]],
                    [0.25] * 4))
    def test_reports_are_those_of_the_array_checks(self, design):
        # the checks on Python floats report, message for message, what the
        # same checks on arrays report, and raise no warning; a NaN point
        # between two coinciding ones hides neither (Python's sort leaves
        # them apart, numpy's puts NaN last)
        assert validate_design(design) == array_validation(design)

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

    @pytest.mark.parametrize("points, pairs", [
        ([0.9, 0.1, 0.5, 0.3], []),
        ([0.9, 0.5, 0.1, 0.5 + 4e-13], [(1, 3)]),
        ([0.7, 0.2, 0.7, 0.4, 0.2 - 5e-13], [(0, 2), (1, 4)]),
        ([0.3 + 4e-13, 0.8, 0.3, 0.1, 0.3 - 4e-13], [(0, 2), (0, 4), (2, 4)]),
        ([0.5, 0.5 + 1.5e-12, 0.2], []),
    ], ids=["unsorted-distinct", "one-pair", "two-pairs", "cluster-of-three",
            "just-apart"])
    def test_every_coinciding_pair_is_reported_in_index_order(self, points, pairs):
        d = Design(DesignSpace([0.0], [1.0]), np.array(points)[:, None],
                   np.full(len(points), 1.0 / len(points)))
        report = validate_design(d)
        assert report.violations == tuple(
            f"points {i} and {j} coincide (within 1e-12)" for i, j in pairs)
        assert report.ok == (not pairs)


def mix(design: Design, x, alpha: float) -> Design:
    """(1 - alpha) design + alpha delta_x, the blend with a point mass."""
    return blend_designs(design, Design(design.space, x, [1.0]), alpha)


class TestMixDesign:
    def test_two_point_mixture(self):
        d0 = Design(DesignSpace([-1.0], [1.0]), [[0.0]], [1.0])
        mixed = mix(d0, [1.0], 0.5)
        assert mixed.points.ravel().tolist() == [0.0, 1.0]
        np.testing.assert_allclose(mixed.weights, [0.5, 0.5])

    def test_alpha_zero_is_identity(self):
        d = chebyshev_design()
        assert mix(d, [0.3], 0.0) is d

    def test_merge_into_existing_point(self):
        # weight at 1 becomes 0.6 * (1/6) + 0.4 = 0.5; the rest scale by 0.6
        d = chebyshev_design()
        mixed = mix(d, [1.0], 0.4)
        assert mixed.size == 4
        assert mixed.weight_at([1.0]) == pytest.approx(0.6 / 6 + 0.4, abs=1e-15)
        assert mixed.weight_at([-0.5]) == pytest.approx(0.6 / 3, abs=1e-15)

    def test_alpha_one_keeps_only_new_point(self):
        d = chebyshev_design()
        mixed = mix(d, [0.25], 1.0)
        assert mixed.size == 1
        assert mixed.weights[0] == 1.0

    def test_mixture_stays_valid_and_close(self):
        # d_w(mix(xi, x, a), xi) <= a * diam(X)
        rng = np.random.default_rng(3)
        space = DesignSpace([-1.0], [1.0])
        for _ in range(30):
            d = random_design(rng, space)
            x = rng.uniform(-1.0, 1.0, size=1)
            a = float(rng.uniform(0.0, 1.0))
            mixed = mix(d, x, a)
            assert validate_design(mixed).ok
            assert wasserstein_distance(mixed, d) <= a * 2.0 + 1e-12


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
                transport_lp_oracle(d1, d2), abs=1e-9)

    def test_monotone_coupling_matches_lp(self):
        # the oracle suite's second route against this file's LP: one-point
        # designs, designs sharing support points, and random pairs
        rng = np.random.default_rng(17)
        space = DesignSpace([-1.0], [1.0])
        for k in range(60):
            d1 = random_design(rng, space, max_points=1 if k % 4 == 0 else 8)
            d2 = random_design(rng, space)
            if k % 4 == 1:  # a point mass on one of d1's points
                d2 = Design(space, d1.points[rng.integers(d1.size)], [1.0])
            elif k % 4 == 2:  # d1's points and d2's, reweighted
                points = np.vstack([d1.points, d2.points])
                d2 = Design(space, points, rng.dirichlet(np.ones(len(points))))
            assert _monotone_coupling_cost(d1, d2) == pytest.approx(
                transport_lp_oracle(d1, d2), abs=1e-12)
        d = chebyshev_design()
        assert _monotone_coupling_cost(d, d) == 0.0

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


def value_instance(name: str):
    """An instance of the frozen value type `name`, and one that differs
    from it in one field."""
    box = ParamBox([-2.0, -2.0], [2.0, 2.0])
    if name == "DesignSpace":
        space = DesignSpace([-1.0], [1.0])
        return space, DesignSpace([-1.0], [2.0])
    if name == "Design":
        design = chebyshev_design()
        return design, replace(design, weights=[0.25] * 4)
    if name == "ParamBox":
        return box, ParamBox([-2.0, -2.0], [2.0, 3.0])
    if name == "GaussianRegressionPair":
        pair = GaussianRegressionPair([0.0, 0.0, 0.0, 1.0], [0, 1], box, 0.5)
        return pair, replace(pair, beta1=[0.0, 0.0, 0.0, 2.0])
    if name == "LogisticGlmPair":
        pair = LogisticGlmPair([1.0, -2.0, 1.5], [0, 1], box)
        return pair, replace(pair, beta1=[1.0, -2.0, 1.0])
    if name == "InnerSolution":
        sol = minimize_beta2(cubic_quadratic_pair(), chebyshev_design())
        return sol, replace(sol, beta2_hat=sol.beta2_hat + 1.0)
    if name == "EquivalenceReport":
        report = equivalence_check(cubic_quadratic_pair(), cubic_quadratic_optimum(),
                                   grid_size=101)
        return report, replace(report, grid_psi=report.grid_psi + 1.0)
    run = run_first_order(cubic_quadratic_pair(), cubic_quadratic_start(),
                          cubic_quadratic_space(), AlgoConfig(max_iterations=2))
    if name == "IterationRecord":
        record = run.history[0]
        return record, replace(record, best_point=record.best_point + 1.0)
    return run, replace(run, history=run.history[:1])


class TestValueTypes:
    """Frozen value types compare by value, and their copies keep the
    read-only arrays read-only (`designs._value_type`)."""

    @pytest.mark.parametrize("name", [
        "DesignSpace", "Design", "ParamBox", "GaussianRegressionPair", "LogisticGlmPair",
        "InnerSolution", "EquivalenceReport", "IterationRecord", "RunResult"])
    def test_pickled_and_copied_values_stay_equal_and_read_only(self, name):
        value, other = value_instance(name)
        writeable = {key: array.flags.writeable for key, array in vars(value).items()
                     if isinstance(array, np.ndarray)}
        # the run's records and the report hold arrays a caller may write
        assert (name in ("EquivalenceReport", "IterationRecord", "RunResult")
                or False in writeable.values())
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value and value == twin and not twin != value
            assert twin != other and value != other
            assert {key: array.flags.writeable for key, array in vars(twin).items()
                    if isinstance(array, np.ndarray)} == writeable
        assert value != object()

    def test_a_copied_design_refuses_writes(self):
        design = copy.deepcopy(chebyshev_design())
        with pytest.raises(ValueError, match="read-only"):
            design.weights[0] = 1.0

"""The LAPACK helpers give numpy.linalg's floats bit for bit, and numpy's
answers on empty and non-finite input."""

import numpy as np
import pytest

from kldesign._lapack import lstsq, root_real_parts, singular_values, solve, svd
from kldesign.models import _least_singular_value

SHAPES = [(m, n) for m in range(10) for n in range(1, 5)]
STYLES = ("generic", "dependent-rows", "dependent-columns", "scaled-columns")


def same_bits(actual: np.ndarray, expected: np.ndarray) -> bool:
    return (actual.dtype == expected.dtype and actual.shape == expected.shape
            and actual.tobytes() == expected.tobytes())


def matrix(style: str, m: int, n: int, k: int) -> np.ndarray:
    """A seeded m-by-n matrix of the given style."""
    rng = np.random.default_rng([STYLES.index(style), m, n, k])
    a = rng.normal(0.0, 1.0, size=(m, n))
    if style == "dependent-rows" and m > 1:
        a[-1] = rng.choice([1.0, -2.0, 0.5]) * a[0]
    elif style == "dependent-columns" and n > 1:
        a[:, -1] = a[:, 0] * rng.choice([0.0, 1.0, 3.0])
    elif style == "scaled-columns":
        a *= 10.0 ** rng.choice([-8.0, 0.0, 8.0], size=n)
    return a


@pytest.mark.parametrize("style", STYLES)
def test_lstsq_matches_numpy(style):
    for m, n in SHAPES:
        for k in range(3):
            a = matrix(style, m, n, k)
            rhs = np.random.default_rng([m, n, k]).normal(0.0, 1.0, size=m)
            expected = np.linalg.lstsq(a, rhs, rcond=-1)[0]
            assert same_bits(lstsq(a, rhs), expected), (m, n, k)


@pytest.mark.parametrize("style", STYLES)
def test_lstsq_at_numpys_default_rcond_matches_numpy(style):
    # rcond=None is eps * max(m, n), the cutoff BVLS's free-set solves use
    for m, n in SHAPES:
        for k in range(3):
            a = matrix(style, m, n, k)
            rhs = np.random.default_rng([m, n, k]).normal(0.0, 1.0, size=m)
            expected = np.linalg.lstsq(a, rhs, rcond=None)[0]
            actual = lstsq(a, rhs, np.finfo(float).eps * max(m, n))
            assert same_bits(actual, expected), (m, n, k)


def test_lstsq_of_one_point_is_numpys_minimum_norm_solution():
    a, rhs = np.array([[1.0, 0.5]]), np.array([2.0])
    assert same_bits(lstsq(a, rhs), np.linalg.lstsq(a, rhs, rcond=-1)[0])


def test_lstsq_without_rows_is_zero_and_silent(capfd):
    for n in range(1, 5):
        assert same_bits(lstsq(np.zeros((0, n)), np.zeros(0)), np.zeros(n))
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("style", STYLES)
def test_singular_values_and_svd_match_numpy(style):
    for m, n in SHAPES:
        a = matrix(style, m, n, 0)
        assert same_bits(singular_values(a), np.linalg.svd(a, compute_uv=False)), (m, n)
        if a.size:
            for full in (False, True):
                for got, want in zip(svd(a, full), np.linalg.svd(a, full_matrices=full)):
                    assert same_bits(got, want), (m, n, full)


@pytest.mark.parametrize("style", STYLES)
def test_solve_matches_numpy(style):
    # a singular matrix (the dependent styles) raises as numpy's solve does
    for n in range(1, 6):
        for k in range(3):
            a = matrix(style, n, n, k)
            rhs = np.random.default_rng([n, k]).normal(0.0, 1.0, size=n)
            try:
                expected = np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    solve(a, rhs)
            else:
                assert same_bits(solve(a, rhs), expected), (n, k)


def test_solve_of_a_singular_matrix_raises_whatever_the_callers_error_state():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    for caller in ({}, {"invalid": "ignore"}, {"all": "raise"}):
        with np.errstate(**caller):
            before = np.geterr(), np.geterrcall()
            assert same_bits(solve(GOOD[:2], np.ones(2)),
                             np.linalg.solve(GOOD[:2], np.ones(2)))
            with pytest.raises(np.linalg.LinAlgError):
                solve(singular, np.ones(2))
            assert (np.geterr(), np.geterrcall()) == before, caller


def test_least_singular_value_of_no_rows_is_zero_and_silent(capfd):
    for d in range(1, 5):
        assert _least_singular_value(np.zeros((0, d))) == 0.0
    assert capfd.readouterr() == ("", "")


ROOT_CASES = [
    [0.0, 0.0, 0.0],  # all zero: no roots
    [5.0],  # degree 0
    [0.0, 5.0, 0.0],  # degree 0 between zeros: one zero root
    [2.0, -1.0],  # degree 1
    [0.0, 0.0, 1.0, -3.0, 2.0],  # leading zeros
    [1.0, -3.0, 2.0, 0.0, 0.0],  # trailing zeros
    [0.0, 1.0, -3.0, 2.0, 0.0],
    [1.0, 0.0, 1.0],  # a complex pair on the imaginary axis
    [1.0, -2.0, 5.0],  # a complex pair
    [1.0, -1.0, 3.0, -3.0],  # (x - 1)(x^2 + 3)
    [1.0, -2.0, 1.0],  # a double root
    [1e-15, 1.0, -1.0],  # a root near infinity
]


@pytest.mark.parametrize("p", ROOT_CASES)
def test_root_real_parts_match_numpy(p):
    p = np.array(p)
    assert same_bits(root_real_parts(p), np.roots(p).real)


def test_root_real_parts_of_seeded_polynomials_match_numpy():
    for k in range(200):
        rng = np.random.default_rng(k)
        p = rng.normal(0.0, 1.0, size=int(rng.integers(1, 8)))
        p[rng.random(p.size) < 0.2] = 0.0
        assert same_bits(root_real_parts(p), np.roots(p).real), p


def test_nan_input_raises_like_numpy():
    a = np.array([[1.0, np.nan], [2.0, 3.0], [1.0, 1.0]])
    p = np.array([1.0, np.nan, 2.0])
    for helper, numpy_call in [
            (lambda: lstsq(a, np.ones(3)), lambda: np.linalg.lstsq(a, np.ones(3), rcond=-1)),
            (lambda: singular_values(a), lambda: np.linalg.svd(a, compute_uv=False)),
            (lambda: svd(a), lambda: np.linalg.svd(a)),
            (lambda: root_real_parts(p), lambda: np.roots(p))]:
        with pytest.raises(np.linalg.LinAlgError):
            numpy_call()
        with pytest.raises(np.linalg.LinAlgError):
            helper()


def test_svd_factors_are_in_fortran_order():
    # as LAPACK writes them; restricted_dual's products round by layout, and
    # with C-ordered factors the cubic run's final value moves by 2 ulps
    # (0x1.fff583f564910p-5 to 0x1.fff583f564912p-5)
    for style in STYLES:
        for m, n in SHAPES:
            a = matrix(style, m, n, 0)
            if a.size:
                for full in (False, True):
                    left, _, right = svd(a, full)
                    assert left.flags.f_contiguous and right.flags.f_contiguous, (m, n, full)


def raising_handler(err, flag):
    raise AssertionError("the caller's error handler was called")


GOOD = np.array([[1.0, 2.0], [2.0, 3.0], [1.0, 1.0]])
BAD = np.array([[1.0, np.nan], [2.0, 3.0], [1.0, 1.0]])
HELPERS = {
    "lstsq": lambda a: lstsq(a, np.ones(3)),
    "singular_values": singular_values,
    "svd": svd,
    "root_real_parts": lambda a: root_real_parts(a[:, 1]),
}


@pytest.mark.parametrize("name", HELPERS)
def test_helpers_leave_the_error_state_as_they_found_it(name):
    helper = HELPERS[name]
    for caller in ({}, {"all": "raise"},
                   {"divide": "raise", "over": "print", "under": "warn",
                    "invalid": "ignore", "call": raising_handler}):
        with np.errstate(**caller):
            before = np.geterr(), np.geterrcall()
            helper(GOOD)
            assert (np.geterr(), np.geterrcall()) == before, caller
            with pytest.raises(np.linalg.LinAlgError):
                helper(BAD)
            assert (np.geterr(), np.geterrcall()) == before, caller


@pytest.mark.parametrize("name", HELPERS)
@pytest.mark.parametrize("caller", [{"invalid": "ignore"}, {"all": "raise"}])
def test_nan_input_raises_whatever_the_callers_error_state(name, caller):
    with np.errstate(**caller), pytest.raises(np.linalg.LinAlgError):
        HELPERS[name](BAD)


@pytest.mark.parametrize("p", [[1e-310, 1e10, 1.0], [np.inf, 1.0, 2.0], [1.0, np.inf, 2.0]])
def test_root_real_parts_of_a_companion_beyond_the_floats_is_numpys(p):
    p = np.array(p)
    with np.errstate(over="ignore"):  # the first case's companion overflows
        try:
            expected = np.roots(p).real
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                root_real_parts(p)
        else:
            assert same_bits(root_real_parts(p), expected)

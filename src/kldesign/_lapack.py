"""numpy.linalg's results for the package's tiny dense solves, from the
LAPACK routines numpy.linalg calls (named as in Anderson et al., LAPACK
Users' Guide, 1999).

The solves take 1 to 9 rows, where numpy.linalg's Python wrapper costs more
than the routine it calls. Each helper calls the gufunc of
`numpy.linalg._umath_linalg` that numpy.linalg calls on the same matrix
(`lstsq` runs dgelsd, `solve1` runs dgesv, `svd` runs dgesdd for the
singular values alone, `eigvals` runs dgeev: the four gufuncs the package
reaches, which tests/test_package.py pins; a solve on no shipped run's
path, such as the active-set method's SVDs, takes numpy.linalg itself). On
float64 input the gufunc picks the loop numpy.linalg names by its
`signature`, so the floats are numpy's bit for bit (the parity tests in
tests/test_lapack.py compare them).

Each helper keeps numpy's behaviour around the gufunc: an empty input is
answered before LAPACK sees it (which would print an error and fail), and a
failed routine raises `LinAlgError`, whatever error state the caller has
set. The gufunc marks a failure, NaN input among them, by the floating-point
invalid flag, which numpy.linalg's error state turns into a call that
raises. That state is built once, here; each helper sets numpy's error-state
context variable to it around the gufunc and resets it after, as
`np.errstate` does on entry and exit, without building an `np.errstate` per
call. The module is the package's one importer of numpy's private names;
it builds the error state of `models.expit` and `models.softplus` too.
"""

import math

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import _umath_linalg


def _raise(err, flag):
    raise np.linalg.LinAlgError("LAPACK routine failed")


# the error state numpy.linalg sets around its gufuncs
_RAISE_ON_FAILURE = _make_extobj(call=_raise, invalid="call", over="ignore",
                                 divide="ignore", under="ignore")
QUIET = _make_extobj(all="ignore")  # of `models.expit` and `models.softplus`


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """`numpy.linalg.svd(matrix, compute_uv=False)` by dgesdd."""
    if not matrix.size:
        return np.zeros(0)
    token = _extobj_contextvar.set(_RAISE_ON_FAILURE)
    try:
        return _umath_linalg.svd(matrix)
    finally:
        _extobj_contextvar.reset(token)


def lstsq(a: np.ndarray, rhs: np.ndarray, rcond: float = -1.0) -> np.ndarray:
    """`numpy.linalg.lstsq(a, rhs, rcond)[0]` for a vector `rhs`, by dgelsd.
    NaN input raises `LinAlgError`, but LAPACK first prints lines
    `** On entry to DLASCL parameter number N had an illegal value` to
    stdout (six for a 3 x 2 matrix holding one NaN), as it does under
    `numpy.linalg.lstsq`."""
    if not a.size:
        return np.zeros(a.shape[1])
    token = _extobj_contextvar.set(_RAISE_ON_FAILURE)
    try:
        x = _umath_linalg.lstsq(a, rhs[:, None], rcond)[0]
    finally:
        _extobj_contextvar.reset(token)
    return x[:, 0]


def solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """`numpy.linalg.solve(a, rhs)` for a square `a` and a vector `rhs`, by
    dgesv. An exactly singular `a` raises `LinAlgError`; NaN input returns
    NaN or raises where numpy.linalg.solve does."""
    token = _extobj_contextvar.set(_RAISE_ON_FAILURE)
    try:
        return _umath_linalg.solve1(a, rhs)
    finally:
        _extobj_contextvar.reset(token)


def root_real_parts(p: np.ndarray) -> np.ndarray:
    """`numpy.roots(p).real`: the eigenvalues of the companion matrix numpy
    builds, by dgeev without eigenvectors, after the leading and trailing
    zero coefficients are stripped, with a zero root per trailing zero; a
    companion matrix that is not finite raises `LinAlgError`, as in numpy."""
    nonzero = np.flatnonzero(p)
    if not nonzero.size:
        return np.zeros(0)
    first, last = nonzero[0], nonzero[-1]
    trailing = p.size - 1 - last
    p = p[first:last + 1]
    values = np.zeros(0)
    if p.size > 1:
        companion = np.eye(p.size - 1, k=-1)
        companion[0] = -p[1:] / p[0]
        if not all(map(math.isfinite, companion[0].tolist())):
            # refused as numpy.linalg.eigvals refuses it: dgeev, as numpy
            # links it, can return NaN on NaN input without failing
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        token = _extobj_contextvar.set(_RAISE_ON_FAILURE)
        try:
            values = _umath_linalg.eigvals(companion).real
        finally:
            _extobj_contextvar.reset(token)
    return np.concatenate((values, np.zeros(trailing)))

"""numpy.linalg's results for the package's tiny dense solves, straight from
LAPACK (routines named as in Anderson et al., LAPACK Users' Guide, 1999).

The solves take 1 to 9 rows, where numpy.linalg's Python wrapper costs more
than the routine it calls. Each helper calls the routine numpy.linalg calls
on the same matrix, so its floats are numpy's bit for bit (the parity tests
in tests/test_lapack.py compare them); it also keeps numpy's behaviour where
raw LAPACK differs: an empty input is answered before LAPACK sees it (which
would print an error and fail), and any nonzero `info` raises `LinAlgError`
(LAPACK flags NaN input with a negative `info` and returns zeros that would
pass for a result).
"""

import numpy as np
from scipy.linalg import lapack


def _check(info: int, routine: str) -> None:
    if info:
        raise np.linalg.LinAlgError(f"{routine} failed with info={info}")


def svd(matrix: np.ndarray, full: bool = False):
    """`numpy.linalg.svd(matrix, full_matrices=full)` by dgesdd, for a
    nonempty matrix."""
    left, values, right, info = lapack.dgesdd(matrix, full_matrices=int(full))
    _check(info, "dgesdd")
    return left, values, right


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """`numpy.linalg.svd(matrix, compute_uv=False)` by dgesdd."""
    if not matrix.size:
        return np.zeros(0)
    _, values, _, info = lapack.dgesdd(matrix, compute_uv=0)
    _check(info, "dgesdd")
    return values


def lstsq(a: np.ndarray, rhs: np.ndarray, rcond: float = -1.0) -> np.ndarray:
    """`numpy.linalg.lstsq(a, rhs, rcond)[0]` for a vector `rhs`, by dgelsd
    with the workspace its query asks for, as numpy sizes it."""
    m, n = a.shape
    if not a.size:
        return np.zeros(n)
    b = np.zeros((max(m, n), 1))
    b[:m, 0] = rhs
    work, iwork, info = lapack.dgelsd_lwork(m, n, 1, -1.0)
    _check(info, "dgelsd")
    x, _, _, info = lapack.dgelsd(a, b, int(work), iwork, rcond)
    _check(info, "dgelsd")
    return x[:n, 0]


def root_real_parts(p: np.ndarray) -> np.ndarray:
    """`numpy.roots(p).real`: the eigenvalues of the companion matrix numpy
    builds, by dgeev without eigenvectors, after the leading and trailing
    zero coefficients are stripped, with a zero root per trailing zero."""
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
        values, _, _, _, info = lapack.dgeev(companion, compute_vl=0, compute_vr=0)
        _check(info, "dgeev")
    return np.concatenate((values, np.zeros(trailing)))

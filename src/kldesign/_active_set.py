"""The primal active-set method for a small convex quadratic program with
linear inequality constraints (Nocedal and Wright, Numerical Optimization,
2nd ed. 2006, Algorithm 16.3), as the Gaussian corrective step's dual takes
it: minimize |F z - y|^2 / 2 subject to rows @ z >= bounds.

Private, and numpy alone: it knows nothing of designs or pairs.
"""

import numpy as np

# The active-set solve treats a multiplier, a step, or a step's approach to a
# row below this share of the largest of its kind as rounding; its step budget
# is a safety cap far above the few steps a dual takes.
_EPS = np.finfo(float).eps
_QP_ROUNDING = 64 * _EPS
_QP_MAX_STEPS = 500


def _kkt_solve(active: np.ndarray, factor: np.ndarray, target: np.ndarray,
               z: np.ndarray, correction: np.ndarray, flat: float):
    """The minimum-norm solution (p, lambda) of a working set's KKT system for
    the objective |F z - y|^2 / 2 (F = `factor`, y = `target`): p minimizes
    |F (z + p) - y| subject to A p = `correction` (A = `active`), and lambda
    solves A' lambda = F' (F (z + p) - y), the gradient there. Returns
    (p, lambda, the rank of A).

    It is solved in factored form, so that no condition number is squared:
    the SVD of A splits p into its row-space part, fixed by the correction,
    and a null-space part Z u, where u is the minimum-norm least-squares
    solution of (F Z) u = y - F (z + p). A singular value of A below
    size * eps of the largest counts as zero, as in `numpy.linalg.lstsq`,
    so rows that depend on the others to rounding share their multiplier;
    one of F Z below `flat` is a flat direction, along which p does not move.
    """
    n = z.size
    if len(active):
        left, values, right = np.linalg.svd(active)
        rank = np.count_nonzero(values > _EPS * max(active.shape) * values[0])
    else:
        left, values, right, rank = np.zeros((0, 0)), np.zeros(0), np.eye(n), 0
    inverse = left[:, :rank] / values[:rank]  # A = left diag(values) right, to rank
    step = right[:rank].T @ (inverse.T @ correction)
    null = right[rank:].T
    if rank < n:
        reduced_left, reduced, reduced_right = np.linalg.svd(factor @ null,
                                                             full_matrices=False)
        keep = reduced > flat
        misfit = target - factor @ (z + step)
        step = step + null @ (reduced_right[keep].T @ (
            (reduced_left[:, keep].T @ misfit) / reduced[keep]))
    gradient = factor.T @ (factor @ (z + step) - target)
    return step, inverse @ (right[:rank] @ gradient), rank


def _kkt_optimal(multipliers: np.ndarray) -> bool:
    """Whether no multiplier is negative beyond rounding: the test by which
    a KKT point of the convex dual is its optimum (NaN fails it)."""
    return bool(multipliers.min() >= -_QP_ROUNDING * np.abs(multipliers).max())


def _active_set_qp(factor, target, rows, bounds, z, working):
    """Minimize |F z - y|^2 / 2 (F = `factor`, y = `target`) subject to
    rows @ z >= bounds, by the primal active-set method (Nocedal and Wright,
    Algorithm 16.3) from the feasible z with the working set `working`
    (indices of rows active at z).

    Each step is the minimum-norm solution of the working set's KKT system
    (`_kkt_solve`); its second block asks A_W p = b_W - A_W z, 0 but for
    rounding, so every step also puts z back on the working rows. The system
    stays consistent where F has fewer rows than z has entries: the
    gradient F'(F z - y) has no component along the flat directions, and
    the minimum norm moves z along none of them. Where the working rows have
    less than full rank and the step is above rounding, a ratio test stops
    the step at the first row it would cross (a row the step runs parallel
    to, to rounding, never blocks), and that row joins the working set.
    Otherwise z takes the whole step, and z + p minimizes the objective on
    the working set, so the lambda that the same solve read at z + p are its
    multipliers: z is optimal when none is negative beyond rounding
    (`_kkt_optimal`), and otherwise the most negative row leaves. A working
    set met again at a whole step means that the multipliers it dropped were
    rounding, so z is returned there.
    Returns z and one multiplier per row, zero off the final working set.
    """
    n = z.size
    norms = np.abs(rows).max(axis=1)
    flat = _EPS * max(factor.shape) * np.linalg.norm(factor)
    working = list(working)
    met = set()  # the working sets at whole steps
    for _ in range(_QP_MAX_STEPS):
        slack = rows @ z - bounds
        step, multipliers, rank = _kkt_solve(rows[working], factor, target, z,
                                             -slack[working], flat)
        size = np.abs(step).max()
        if rank < n and size > _QP_ROUNDING * np.abs(z).max():
            toward = rows @ step
            blocking = toward < (-_QP_ROUNDING * size) * norms
            blocking[working] = False
            candidates = np.flatnonzero(blocking)
            ratios = np.maximum(slack[candidates], 0.0) / -toward[candidates]
            j = int(np.argmin(ratios)) if ratios.size else -1
            if j >= 0 and ratios[j] < 1.0:
                z = z + ratios[j] * step
                working.append(int(candidates[j]))
                continue
        z = z + step
        key = frozenset(working)
        if not working or key in met or _kkt_optimal(multipliers):
            out = np.zeros(len(rows))
            out[working] = np.maximum(multipliers, 0.0)
            return z, out
        met.add(key)
        del working[int(np.argmin(multipliers))]
    raise RuntimeError("the active-set solve did not reach an optimal working set")

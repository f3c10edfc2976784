"""Finite-support experimental designs on a compact interval.

A design is a probability measure with finitely many support points on an
interval [lower, upper] of one experimental variable. This module holds the
measure-level toolbox the exchange algorithm is built on: validation,
mixing a design with a point mass, collapsing/pruning support, exact
Kantorovich-Wasserstein (order-1) distances, and affine images of designs.
Designs are immutable values and every operation here is a pure function.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import DomainError, SingularMapError

# Support points closer than this are considered the same point.
DUPLICATE_TOL = 1e-12
# Slack allowed on interval membership checks.
BOX_SLACK = 1e-12
# Tolerance on the weight-sum-one invariant.
WEIGHT_TOL = 1e-12


def _as_column(points) -> np.ndarray:
    """Coerce point data to a float (n, 1) column; scalars and 1-D input are n points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:
        return pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != 1:
        raise DomainError(f"points must form one column (one experimental "
                          f"variable), got shape {pts.shape}")
    return pts


def _as_point(x, what: str = "point") -> np.ndarray:
    """One number of any array shape, as a one-element vector."""
    v = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if v.size != 1:
        raise DomainError(f"{what} must be one number, got {v.size}")
    return v


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DesignSpace:
    """Compact nondegenerate interval [lower, upper] of one experimental variable.

    The bounds are kept as one-element arrays, so they broadcast against
    (n, 1) point columns and serialize as one-element lists.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _as_point(self.lower, "lower")
        hi = _as_point(self.upper, "upper")
        if not lo[0] < hi[0]:
            raise ValueError("interval must satisfy lower < upper")
        object.__setattr__(self, "lower", _freeze(lo))
        object.__setattr__(self, "upper", _freeze(hi))

    @property
    def diameter(self) -> float:
        """Length of the interval."""
        return float(self.upper[0] - self.lower[0])

    def contains(self, points, slack: float = BOX_SLACK) -> np.ndarray:
        x = _as_column(points)[:, 0]
        return (x >= self.lower[0] - slack) & (x <= self.upper[0] + slack)

    def clip(self, points) -> np.ndarray:
        return np.clip(_as_column(points), self.lower, self.upper)

    def grid(self, size: int) -> np.ndarray:
        """`size` equispaced nodes from lower to upper, shape (size, 1)."""
        if size < 2:
            raise ValueError("grid size must be >= 2")
        return np.linspace(self.lower[0], self.upper[0], size)[:, None]


@dataclass(frozen=True)
class Design:
    """Probability measure with finite support: points (n, 1) and weights (n,)."""

    space: DesignSpace
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _as_column(self.points)
        w = np.atleast_1d(np.asarray(self.weights, dtype=float)).ravel()
        if pts.shape[0] != w.size:
            raise ValueError(f"{pts.shape[0]} points but {w.size} weights")
        if pts.shape[0] < 1:
            raise ValueError("a design needs at least one support point")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def size(self) -> int:
        """Number of support points."""
        return self.points.shape[0]

    def weight_at(self, x, tol: float = DUPLICATE_TOL) -> float:
        """Total weight on support points equal to x (within the duplicate tolerance)."""
        x = _as_point(x)
        match = np.abs(self.points[:, 0] - x[0]) <= tol
        return float(self.weights[match].sum())

    def as_dict(self) -> dict:
        """JSON-ready representation; floats keep full double precision."""
        return {
            "space": {"lower": self.space.lower.tolist(),
                      "upper": self.space.upper.tolist()},
            "points": self.points.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Design":
        space = DesignSpace(data["space"]["lower"], data["space"]["upper"])
        return cls(space, data["points"], data["weights"])


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()


def validate_design(design: Design, space: DesignSpace | None = None) -> ValidationReport:
    """Check the design invariants and report every violation found.

    Checks interval membership (1e-12 slack), finite nonnegative weights, weight
    sum one (1e-12), and pairwise-distinct support points (1e-12 apart).
    """
    space = space or design.space
    bad = []
    inside = space.contains(design.points)
    for i in np.nonzero(~inside)[0]:
        bad.append(f"point {i} = {design.points[i].tolist()} outside box")
    for i in np.nonzero(~np.isfinite(design.weights))[0]:
        bad.append(f"non-finite weight {design.weights[i]} at index {i}")
    for i in np.nonzero(design.weights < 0.0)[0]:
        bad.append(f"negative weight {design.weights[i]:.12g} at index {i}")
    total = float(design.weights.sum())
    if abs(total - 1.0) > WEIGHT_TOL:
        bad.append(f"weight sum {total:.12g} != 1")
    if design.size > 1:
        dist = np.abs(design.points - design.points.T)
        iu = np.triu_indices(design.size, k=1)
        for i, j in zip(*iu):
            if dist[i, j] <= DUPLICATE_TOL:
                bad.append(f"points {i} and {j} coincide (within {DUPLICATE_TOL:g})")
    return ValidationReport(len(bad) == 0, tuple(bad))


def mix_design(design: Design, new_point, alpha: float) -> Design:
    """Mixture (1-alpha)*design + alpha*delta_{new_point}.

    Merges the new point into an existing support point when they coincide
    within the duplicate tolerance. alpha=0 returns the design unchanged.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    x = _as_point(new_point)
    if not design.space.contains(x)[0]:
        raise DomainError(f"point {x.tolist()} outside the design space")
    if alpha == 0.0:
        return design
    w = design.weights * (1.0 - alpha)
    match = np.abs(design.points[:, 0] - x[0]) <= DUPLICATE_TOL
    if match.any():
        w = w.copy()
        w[np.argmax(match)] += alpha
        pts = design.points
    else:
        pts = np.vstack([design.points, x])
        w = np.append(w, alpha)
    keep = w > 0.0  # alpha=1 zeroes every old weight
    return Design(design.space, pts[keep], w[keep])


def blend_designs(first: Design, second: Design, alpha: float) -> Design:
    """Mixture (1-alpha)*first + alpha*second, merging coincident support points."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return first
    if alpha == 1.0:
        return second
    base_w = first.weights * (1.0 - alpha)
    extra_pts, extra_w = [], []
    near = np.abs(second.points - first.points.T)
    for i in range(second.size):
        j = int(np.argmin(near[i]))
        if near[i, j] <= DUPLICATE_TOL:
            base_w[j] += alpha * second.weights[i]
        else:
            extra_pts.append(second.points[i])
            extra_w.append(alpha * second.weights[i])
    if extra_pts:
        return Design(first.space, np.vstack([first.points, np.asarray(extra_pts)]),
                      np.concatenate([base_w, np.asarray(extra_w)]))
    return Design(first.space, first.points, base_w)


def collapse_support(design: Design, anchor, radius: float,
                     anchor_weight_factor: float = 1.0) -> Design:
    """Merge all support points within `radius` of `anchor`.

    The merged points are replaced by their weighted barycenter; the anchor's
    own weight is multiplied by `anchor_weight_factor` in the barycenter
    computation only. The merged weight is the plain sum of the merged
    weights. The barycenter is clipped to the design-space interval.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if anchor_weight_factor < 1.0:
        raise ValueError("anchor_weight_factor must be >= 1")
    x = _as_point(anchor, "anchor")
    dist = np.abs(design.points[:, 0] - x[0])
    mask = dist <= radius
    if not mask.any():
        return design
    pts_in = design.points[mask]
    w_in = design.weights[mask]
    bary_w = w_in.copy()
    exact = np.abs(pts_in[:, 0] - x[0]) <= DUPLICATE_TOL
    if exact.any():
        bary_w[np.argmax(exact)] *= anchor_weight_factor
    bary = design.space.clip(bary_w @ pts_in / bary_w.sum())[0]
    if mask.sum() == 1 and abs(pts_in[0, 0] - bary[0]) <= DUPLICATE_TOL:
        return design
    keep_pts = design.points[~mask]
    keep_w = design.weights[~mask]
    merged_w = float(w_in.sum())
    if keep_pts.shape[0]:
        near = np.abs(keep_pts[:, 0] - bary[0]) <= DUPLICATE_TOL
        if near.any():
            keep_w = keep_w.copy()
            keep_w[np.argmax(near)] += merged_w
            return Design(design.space, keep_pts, keep_w)
        return Design(design.space, np.vstack([keep_pts, bary]),
                      np.append(keep_w, merged_w))
    return Design(design.space, bary[None, :], np.array([merged_w]))


def prune_support(design: Design, abs_threshold: float = 0.0,
                  rel_threshold: float = 0.0) -> Design:
    """Drop low-weight support points and renormalize.

    A point is dropped when its weight is below `abs_threshold`, or below
    `rel_threshold` times the mean weight of the other points. The last
    remaining point is never dropped.
    """
    if abs_threshold < 0.0 or rel_threshold < 0.0:
        raise ValueError("thresholds must be >= 0")
    n = design.size
    if n == 1:
        return design
    w = design.weights
    mean_others = (w.sum() - w) / (n - 1)
    drop = (w < abs_threshold) | (w < rel_threshold * mean_others)
    if not drop.any():
        return design
    keep = ~drop
    if not keep.any():
        keep = np.zeros(n, dtype=bool)
        keep[int(np.argmax(w))] = True
    w_kept = w[keep]
    return Design(design.space, design.points[keep], w_kept / w_kept.sum())


def wasserstein_distance_lp(d1: Design, d2: Design) -> float:
    """Exact order-1 transport distance via the dense linear program.

    The reference the quantile formula of `wasserstein_distance` is checked
    against; supports stay small, so the (n1*n2)-variable LP is solved
    exactly, with no entropic approximation.
    """
    n1, n2 = d1.size, d2.size
    cost = np.abs(d1.points - d2.points.T)
    a_eq = np.zeros((n1 + n2, n1 * n2))
    for i in range(n1):
        a_eq[i, i * n2:(i + 1) * n2] = 1.0
    for j in range(n2):
        a_eq[n1 + j, j::n2] = 1.0
    b_eq = np.concatenate([d1.weights, d2.weights])
    # One marginal constraint is redundant; dropping it keeps the system full rank.
    res = linprog(cost.ravel(), A_eq=a_eq[:-1], b_eq=b_eq[:-1],
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def wasserstein_distance(d1: Design, d2: Design) -> float:
    """Exact Kantorovich-Wasserstein (order-1) distance between two designs:
    the integral of |F1 - F2| over the line."""
    x1, w1 = d1.points[:, 0], d1.weights
    x2, w2 = d2.points[:, 0], d2.weights
    o1, o2 = np.argsort(x1), np.argsort(x2)
    s1, c1 = x1[o1], np.cumsum(w1[o1])
    s2, c2 = x2[o2], np.cumsum(w2[o2])
    grid = np.sort(np.concatenate([s1, s2]))
    if grid.size < 2:
        return 0.0
    mid = grid[:-1]
    i1 = np.searchsorted(s1, mid, side="right")
    i2 = np.searchsorted(s2, mid, side="right")
    f1 = np.where(i1 > 0, c1[np.maximum(i1 - 1, 0)], 0.0)
    f2 = np.where(i2 > 0, c2[np.maximum(i2 - 1, 0)], 0.0)
    return float(np.sum(np.abs(f1 - f2) * np.diff(grid)))


@dataclass(frozen=True)
class AffineMap:
    """Scale-position transform z = offset + scale * x with a nonzero scale.

    Either argument may be any array holding one number, so
    AffineMap([2.0], [[4.0]]) is z = 2 + 4x.
    """

    offset: float
    scale: float

    def __post_init__(self):
        a = float(_as_point(self.offset, "offset")[0])
        b = float(_as_point(self.scale, "scale")[0])
        if b == 0.0:
            raise SingularMapError("map is singular: its scale is zero")
        object.__setattr__(self, "offset", a)
        object.__setattr__(self, "scale", b)

    def apply(self, points) -> np.ndarray:
        return _as_column(points) * self.scale + self.offset

    def inverted(self) -> "AffineMap":
        inverse = 1.0 / self.scale
        return AffineMap(-inverse * self.offset, inverse)

    def image_box(self, space: DesignSpace) -> DesignSpace:
        """The interval the map sends `space` onto."""
        ends = self.apply([space.lower[0], space.upper[0]])
        return DesignSpace(ends.min(), ends.max())


def transform_design(design: Design, amap: AffineMap) -> Design:
    """Push the design forward through z = a + bx; weights are unchanged."""
    new_space = amap.image_box(design.space)
    pts = new_space.clip(amap.apply(design.points))
    return Design(new_space, pts, design.weights.copy())

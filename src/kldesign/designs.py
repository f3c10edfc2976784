"""Finite-support experimental designs on a compact interval.

A design is a probability measure with finitely many support points on an
interval [lower, upper] of one experimental variable. This module holds the
measure-level toolbox the exchange algorithm is built on: validation,
mixtures of designs, exact Kantorovich-Wasserstein (order-1) distances, and
affine images of designs.
Designs are immutable values and every operation here is a pure function.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

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


def _same(a, b) -> bool:
    """Field equality of `_value_type`: arrays by `np.array_equal`."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _value_type(cls):
    """Give a frozen dataclass that holds numpy arrays a value's `==` and
    copies. `==` compares the fields the dataclass compares, arrays by
    `np.array_equal`: the generated `==` asks an array comparison for one
    truth value, and raises for two distinct arrays. Pickling, `copy.copy`
    and `copy.deepcopy` keep each read-only array read-only: they build the
    copy without `__post_init__`, and numpy unpickles and deep-copies
    arrays as writeable ones. Apply it above `@dataclass` on each class,
    subclasses too, since the dataclass generates `==` anew for each."""
    names = tuple(f.name for f in fields(cls) if f.compare)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_same(getattr(self, name), getattr(other, name)) for name in names)

    def __getstate__(self):
        state = self.__dict__
        return state, [name for name, value in state.items()
                       if isinstance(value, np.ndarray) and not value.flags.writeable]

    def __setstate__(self, state):
        values, frozen = state
        self.__dict__.update(values)
        for name in frozen:
            _freeze(values[name])

    cls.__eq__, cls.__getstate__, cls.__setstate__ = __eq__, __getstate__, __setstate__
    return cls


@_value_type
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

    def contains(self, points) -> np.ndarray:
        """Interval membership of each point, with BOX_SLACK on either end."""
        x = _as_column(points)[:, 0]
        return (x >= self.lower[0] - BOX_SLACK) & (x <= self.upper[0] + BOX_SLACK)

    def clip(self, points) -> np.ndarray:
        return np.clip(_as_column(points), self.lower, self.upper)

    def grid(self, size: int) -> np.ndarray:
        """`size` equispaced nodes from lower to upper, shape (size, 1)."""
        if size < 2:
            raise ValueError("grid size must be >= 2")
        return np.linspace(self.lower[0], self.upper[0], size)[:, None]


@_value_type
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

    def weight_at(self, x) -> float:
        """Total weight on support points equal to x (within DUPLICATE_TOL)."""
        x = _as_point(x)
        match = np.abs(self.points[:, 0] - x[0]) <= DUPLICATE_TOL
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
    The checks compare Python floats: a design has few points, and on a few
    a numpy call costs more than the comparisons it makes.
    """
    space = space or design.space
    x, w = design.points[:, 0].tolist(), design.weights.tolist()
    lower, upper = float(space.lower[0]) - BOX_SLACK, float(space.upper[0]) + BOX_SLACK
    bad = [f"point {i} = {[v]} outside box" for i, v in enumerate(x) if not lower <= v <= upper]
    bad += [f"non-finite weight {v} at index {i}" for i, v in enumerate(w) if not math.isfinite(v)]
    bad += [f"negative weight {v:.12g} at index {i}" for i, v in enumerate(w) if v < 0.0]
    total = float(design.weights.sum())
    if abs(total - 1.0) > WEIGHT_TOL:
        bad.append(f"weight sum {total:.12g} != 1")
    # two points coincide only if two neighbours in sorted order do; a NaN
    # point coincides with nothing, nor do two infinite points of one sign,
    # which differ by NaN
    ordered = sorted(v for v in x if not math.isnan(v))
    if any(b - a <= DUPLICATE_TOL for a, b in zip(ordered, ordered[1:])):
        with np.errstate(invalid="ignore"):
            near = np.abs(design.points - design.points.T) <= DUPLICATE_TOL
        for i, j in zip(*np.nonzero(np.triu(near, k=1))):
            bad.append(f"points {i} and {j} coincide (within {DUPLICATE_TOL:g})")
    return ValidationReport(not bad, tuple(bad))


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

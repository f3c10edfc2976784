"""Rival model pairs and their pointwise Kullback-Leibler divergence.

Each pair fixes the true model's parameters and leaves the rival's
parameters free inside a compact box. The pair exposes the closed-form
pointwise divergence I(x, beta2) between the two conditional response
distributions; its design average is what the inner solver minimizes.

Built-in kinds:

* :class:`PolynomialPair` -- the shared form of the two GLM pairs: a true
  polynomial predictor eta1(x), a rival eta2(x) = X(x) beta2 whose columns
  are the monomials x^e at the pair's `rival_exponents`, and a divergence
  that depends on x and beta2 only through (eta1, eta2). Each family
  states that dependence once, in one entry point `kernels(eta1)`: the
  kernel eta2 -> I over fixed eta1 and its first two derivatives in eta2,
  two closures built from one reading of eta1 (the logistic family's
  expit(eta1) once for both), so a prepared support (`inner.Support`)
  computes what it reads of eta1 once.
* :class:`GaussianRegressionPair` -- equal-variance Gaussian responses with
  polynomial means; kernel (eta1 - eta2)^2 / (2 sigma2).
* :class:`LogisticGlmPair` -- Bernoulli responses with logistic link; kernel
  (eta1 - eta2) expit(eta1) + softplus(eta2) - softplus(eta1).

`expit` and `softplus` are the module's own, on numpy's ufuncs, so no pair
loads SciPy; `softplus` takes numpy's SIMD loops on the long arrays of the
logistic grid scans and `np.logaddexp` on the short ones of a solve. A pair
refuses a parameter that is not finite when it is built.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Union

import numpy as np

from ._lapack import QUIET, _extobj_contextvar, root_real_parts, singular_values
from .designs import AffineMap, _freeze
from .errors import DomainError, UnsupportedModelError


@dataclass(frozen=True)
class ParamBox:
    """Closed box approximating the rival model's open parameter set."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float)).ravel()
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float)).ravel()
        if lo.size != hi.size or lo.size < 1:
            raise ValueError("lower and upper must be vectors of equal length >= 1")
        _finite(lo, "lower")
        _finite(hi, "upper")
        if not np.all(lo < hi):
            raise ValueError("parameter box must satisfy lower[j] < upper[j]")
        object.__setattr__(self, "lower", _freeze(lo))
        object.__setattr__(self, "upper", _freeze(hi))

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, beta2) -> bool:
        b = np.asarray(beta2, dtype=float).ravel()
        return bool(np.all(b >= self.lower) and np.all(b <= self.upper))

    def clip(self, beta2) -> np.ndarray:
        return np.clip(np.asarray(beta2, dtype=float).ravel(), self.lower, self.upper)

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        # lower and upper moved inward by 1e-9 of the width: an inner minimizer
        # outside them lies at the boundary (`inner.minimize_beta2`)
        edge = 1e-9 * (self.upper - self.lower)
        return self.lower + edge, self.upper - edge

    @cached_property
    def _diameter(self) -> float:
        return math.dist(self.upper, self.lower)


# From this many values the four SIMD ufunc loops of `softplus` cost less
# than logaddexp's one scalar loop; on one core, numpy 2.4.6: 4.1 against
# 3.8 us at 256 values, 28 against 10 us at 2,001, 0.7 against 3 us at 5.
_SOFTPLUS_VECTOR_SIZE = 256


def softplus(x) -> np.ndarray:
    """log(1 + exp(x)) without overflow for |x| up to the float64 range:
    max(x, 0) + log1p(exp(-|x|)), the formula of `np.logaddexp(0, x)`.
    Arrays of fewer than `_SOFTPLUS_VECTOR_SIZE` values take logaddexp, one
    call; longer ones (the logistic grid scans) the formula itself, on
    numpy's SIMD loops of exp and log1p, which differ from logaddexp's
    scalar libm calls by a few ulp. inf gives inf, -inf 0 and NaN NaN. As in
    `expit`, floating-point errors (exp's underflow, logaddexp's invalid
    flag at NaN) are ignored whatever error state the caller has set, under
    `_lapack.QUIET`."""
    x = np.asarray(x, dtype=float)
    token = _extobj_contextvar.set(QUIET)
    try:
        if x.size < _SOFTPLUS_VECTOR_SIZE:
            return np.logaddexp(0.0, x)
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    finally:
        _extobj_contextvar.reset(token)


def expit(x) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)), in scipy.special.expit's
    formula on numpy's exp: 0 and 1 in the far tails and at -inf and inf,
    NaN at NaN. numpy's exp may differ from the C library's, which scipy
    calls, by a few ulp. Floating-point errors are ignored whatever error
    state the caller has set: exp(-x) overflows to inf below x = -709.78 and
    underflows to 0 above x = 745.13, and 1 / (1 + inf) = 0 and 1 / (1 + 0)
    = 1 are the values wanted there. `_lapack.QUIET`, built once, is set on
    numpy's error-state context variable around the call, as `_lapack` sets
    its own, without building an `np.errstate` per call."""
    token = _extobj_contextvar.set(QUIET)
    try:
        denominator = np.exp(np.negative(x))
        denominator += 1.0
        return np.reciprocal(denominator)
    finally:
        _extobj_contextvar.reset(token)


def _finite(values, name: str) -> None:
    # refused as `config` refuses a non-finite number; plain floats, as a
    # pair is rebuilt in every invariance check
    if not all(map(math.isfinite, values.tolist())):
        raise ValueError(f"{name}: value must be finite, got {values.tolist()}")


def _coef(c) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(c, dtype=float)).ravel()
    if arr.size == 0:
        raise ValueError("empty coefficient vector")
    _finite(arr, "beta1")
    return arr


def _scalar_inputs(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 2:
        if pts.shape[1] != 1:
            raise DomainError("built-in model pairs take scalar experimental conditions")
        pts = pts[:, 0]
    return np.atleast_1d(pts)


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    # numpy's polyval step for step: c[-1] + x*0, then c + out*x per degree.
    out = coef[-1] + x * 0
    for c in coef[-2::-1]:
        out = c + out * x
    return out


def _exponents(exponents, box: ParamBox) -> tuple[int, ...]:
    exps = tuple(exponents)
    if len(exps) != box.dimension:
        raise ValueError(f"{len(exps)} rival exponents but parameter box of "
                         f"dimension {box.dimension}")
    if any(isinstance(e, bool) or not isinstance(e, (int, np.integer)) for e in exps):
        raise ValueError(f"rival exponents must be integers, got {list(exps)}")
    if len(set(exps)) != len(exps):
        raise ValueError("rival exponents must be distinct")
    if any(e < 0 for e in exps):
        raise ValueError("rival exponents must be nonnegative")
    return tuple(int(e) for e in exps)


@dataclass(frozen=True)
class PolynomialPair:
    """A GLM pair with polynomial predictors: the divergence depends on x and
    beta2 only through the two linear predictors.

    `beta1` holds the ascending monomial coefficients of the known true
    predictor eta1 (intercept included); the rival predictor is
    eta2 = sum_j beta2[j] * x^rival_exponents[j], one distinct nonnegative
    integer exponent per dimension of `theta2`. A family supplies
    `kernels(eta1)`, the maps eta2 -> I and eta2 -> (dI/deta2, d2I/deta2^2),
    built together so that what both read of eta1 is computed once
    (`divergence` takes the first alone). A family whose
    inner solve takes Newton steps (the logistic one; a Gaussian solve is
    one exact least-squares fit) also supplies `kernel_rounding(eta1)`, the map
    eta2 -> the sum of the magnitudes the kernel's float operations round,
    so that machine epsilon times it bounds the rounding of I to a few
    units. All are closures over fixed eta1.
    `frame`, set by `reparametrize_under_affine`, maps x, the coordinate of
    `beta1` and the monomials, to the points' z = offset + scale * x
    (None: z = x).
    """

    beta1: np.ndarray
    rival_exponents: tuple[int, ...]
    theta2: ParamBox
    frame: AffineMap | None = field(default=None, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "beta1", _freeze(_coef(self.beta1)))
        object.__setattr__(self, "rival_exponents",
                           _exponents(self.rival_exponents, self.theta2))

    @property
    def dimension(self) -> int:
        return self.theta2.dimension

    def _coordinates(self, points) -> np.ndarray:
        z = _scalar_inputs(points)
        if self.frame is None:
            return z
        return (z - self.frame.offset) / self.frame.scale

    def true_predictor(self, points) -> np.ndarray:
        return _horner(self.beta1, self._coordinates(points))

    def rival_matrix(self, points) -> np.ndarray:
        # Powers by repeated multiplication; `+ 0.0` turns -0.0 into +0.0 as
        # Horner's `0 + out*x` does, so each column is polyval's of x^e.
        x = self._coordinates(points)[:, None]
        powers = [x * 0 + 1.0]
        for _ in range(max(self.rival_exponents)):
            powers.append(powers[-1] * x + 0.0)
        return np.concatenate([powers[e] for e in self.rival_exponents], axis=1)

    def divergence(self, points, beta2) -> np.ndarray:
        x = _scalar_inputs(points)
        kernel = self.kernels(self.true_predictor(x))[0]
        return kernel(self.rival_matrix(x) @ np.asarray(beta2, dtype=float))


@dataclass(frozen=True)
class GaussianRegressionPair(PolynomialPair):
    """Equal-variance Gaussian responses; the predictors are the means, and the
    pointwise divergence is (eta1 - eta2)^2 / (2 sigma2)."""

    sigma2: float = 0.5

    def __post_init__(self):
        if not 0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        super().__post_init__()

    def kernels(self, eta1):
        half_inv_var, inv_var = 0.5 / self.sigma2, 1.0 / self.sigma2

        def values(eta2) -> np.ndarray:
            resid = eta1 - eta2
            return resid * resid * half_inv_var

        return values, lambda eta2: ((eta2 - eta1) * inv_var, np.full(eta2.shape, inv_var))

    def residual_critical_points(self, beta2, lower: float, upper: float) -> np.ndarray:
        """Real parts of the roots of r' in (lower, upper), r = m1 - m2(., beta2), as
        a column: with the endpoints they hold the maximum of r^2 / (2 sigma2). A
        nearly double root can come back complex, hence the real parts. The
        roots are the eigenvalues of the companion matrix, as `numpy.roots`
        finds them, taken from its dgeev gufunc (`_lapack.root_real_parts`). They
        are found in the frame's x and mapped back into [lower, upper]."""
        frame, lo, hi = self.frame, lower, upper
        if frame is not None:
            lo, hi = sorted((end - frame.offset) / frame.scale for end in (lower, upper))
        exponents = self.rival_exponents
        coef = np.zeros(max(self.beta1.size, max(exponents) + 1))
        coef[:self.beta1.size] += self.beta1
        coef[list(exponents)] -= beta2
        # r'(radius * t) with |t| <= 1 on the domain, less its terms below 1e-15
        # of the largest: rounding noise that would swamp the companion matrix.
        radius = max(abs(lo), abs(hi))
        scaled = coef[1:] * np.arange(1.0, coef.size) * radius ** np.arange(coef.size - 1)
        scaled[np.abs(scaled) <= 1e-15 * np.max(np.abs(scaled), initial=0.0)] = 0.0
        roots = radius * root_real_parts(scaled[::-1])
        roots = roots[(roots > lo) & (roots < hi), None]
        return roots if frame is None else np.minimum(np.maximum(frame.apply(roots), lower), upper)


@dataclass(frozen=True)
class LogisticGlmPair(PolynomialPair):
    """Bernoulli responses P(Y=1|x) = expit(eta_i(x)). The divergence is
    evaluated in the softplus form

        (eta1 - eta2) * expit(eta1) + softplus(eta2) - softplus(eta1),

    which is exact and stable for |eta| <= 700. expit is this module's
    (numpy's exp in scipy.special.expit's formula), so its floats may differ
    from scipy's by a few ulp.
    """

    def kernels(self, eta1):
        mean1 = expit(eta1)  # read by both closures
        soft1 = softplus(eta1)

        def values(eta2) -> np.ndarray:
            val = (eta1 - eta2) * mean1 + softplus(eta2) - soft1
            return np.maximum(val, 0.0)  # clamp rounding noise; KL is nonnegative

        def derivatives(eta2):
            mean2 = expit(eta2)
            return mean2 - mean1, mean2 * expit(-eta2)

        return values, derivatives

    def kernel_rounding(self, eta1):
        # the terms of the softplus form, the difference eta1 - eta2 at its
        # inputs; evaluated at call time, as a solve seldom asks
        return lambda eta2: ((np.abs(eta1) + np.abs(eta2)) * expit(eta1)
                             + softplus(eta2) + softplus(eta1))


ModelPair = Union[GaussianRegressionPair, LogisticGlmPair]


def _least_singular_value(rows) -> float:
    """The smallest singular value of the rival matrix X (n, d2), or 0.0 where
    X has rank below d2.

    Rank is decided from singular values (dgesdd's, `_lapack.singular_values`)
    with the threshold max(n, d2) * sigma_max * 1e-12.
    """
    x = np.atleast_2d(np.asarray(rows, dtype=float))
    s = singular_values(x)
    full = s.size == x.shape[1] > 0 and s[-1] > max(x.shape) * s[0] * 1e-12
    return float(s[-1]) if full else 0.0


def glm_is_regular(rows) -> bool:
    """True iff the rival matrix X (n, d2) has rank d2, i.e. the Fisher
    information is nonsingular (`_least_singular_value` decides the rank)."""
    return _least_singular_value(rows) > 0.0


def reparametrize_under_affine(pair: ModelPair, amap: AffineMap) -> ModelPair:
    """Re-express a polynomial-predictor pair on the image domain z = a + bx.

    The image keeps `beta1` and the rival exponents, both in the original
    x, and composes z = a + bx after the pair's frame: at z it evaluates the
    original's predictors at x = (z - a) / b. So beta2 keeps its meaning.
    """
    if not isinstance(pair, PolynomialPair):
        raise UnsupportedModelError("only polynomial-predictor pairs can be reparametrized")
    if pair.frame is not None:
        amap = AffineMap(amap.offset + amap.scale * pair.frame.offset,
                         amap.scale * pair.frame.scale)
    return replace(pair, frame=amap)

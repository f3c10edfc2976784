"""Rival model pairs and their pointwise Kullback-Leibler divergence.

Each pair fixes the true model's parameters and leaves the rival's
parameters free inside a compact box. The pair exposes the closed-form
pointwise divergence I(x, beta2) between the two conditional response
distributions; its design average is what the inner solver minimizes.

Built-in kinds:

* :class:`PolynomialPair` -- the shared form of the two GLM pairs: true and
  rival polynomial predictors eta1(x) and eta2(x) = X(x) beta2, and a
  divergence that depends on x and beta2 only through (eta1, eta2). Each
  family states that dependence once, as a kernel eta2 -> I over fixed eta1
  and its first two derivatives in eta2.
* :class:`GaussianRegressionPair` -- equal-variance Gaussian responses with
  polynomial means; kernel (eta1 - eta2)^2 / (2 sigma2).
* :class:`LogisticGlmPair` -- Bernoulli responses with logistic link; kernel
  (eta1 - eta2) expit(eta1) + softplus(eta2) - softplus(eta1).
* :class:`SyntheticFamily` -- a fixed piecewise divergence family on [0, 1]
  whose design averages under (truncated) uniform measures have closed
  forms; useful for probing discontinuity of the min-divergence criterion.
"""

from dataclasses import dataclass, field, replace
from typing import ClassVar, Union

import numpy as np
from numpy.polynomial import Polynomial
from scipy.special import expit

from .designs import Design, AffineMap, _freeze
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

    def contains(self, beta2, slack: float = 0.0) -> bool:
        b = np.asarray(beta2, dtype=float).ravel()
        return bool(np.all(b >= self.lower - slack) and np.all(b <= self.upper + slack))

    def clip(self, beta2) -> np.ndarray:
        return np.clip(np.asarray(beta2, dtype=float).ravel(), self.lower, self.upper)


def softplus(x) -> np.ndarray:
    """log(1 + exp(x)) without overflow for |x| up to the float64 range."""
    return np.logaddexp(0.0, np.asarray(x, dtype=float))


def _coef(c) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(c, dtype=float)).ravel()
    if arr.size == 0:
        raise ValueError("empty coefficient vector")
    return arr


def monomial_basis(exponents) -> tuple[np.ndarray, ...]:
    """Coefficient vectors (ascending) of the monomials x^e for each exponent."""
    exps = [int(e) for e in exponents]
    if len(set(exps)) != len(exps):
        raise ValueError("basis exponents must be distinct")
    basis = []
    for e in exps:
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        c = np.zeros(e + 1)
        c[e] = 1.0
        basis.append(c)
    return tuple(basis)


def _scalar_inputs(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 2:
        if pts.shape[1] != 1:
            raise DomainError("built-in model pairs take scalar experimental conditions")
        pts = pts[:, 0]
    return np.atleast_1d(pts)


def _poly_matrix(basis: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    return np.column_stack([np.polynomial.polynomial.polyval(x, c) for c in basis])


def _check_basis(basis: tuple[np.ndarray, ...], box: ParamBox):
    if len(basis) != box.dimension:
        raise ValueError(f"{len(basis)} basis functions but parameter box of "
                         f"dimension {box.dimension}")
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            a, b = basis[i], basis[j]
            m = max(a.size, b.size)
            if np.array_equal(np.pad(a, (0, m - a.size)), np.pad(b, (0, m - b.size))):
                raise ValueError("rival basis polynomials must be distinct")


@dataclass(frozen=True)
class PolynomialPair:
    """A GLM pair with polynomial predictors: the divergence depends on x and
    beta2 only through the two linear predictors.

    `beta1` holds the ascending monomial coefficients of the known true
    predictor eta1 (intercept included); the rival predictor is
    eta2 = sum_j beta2[j] * basis_j(x), each basis function a polynomial given
    by its ascending coefficient vector. A family supplies `kernel(eta1)`,
    the map eta2 -> I, and `kernel_derivatives(eta1)`, the map
    eta2 -> (dI/deta2, d2I/deta2^2); both are closures over fixed eta1.
    """

    beta1: np.ndarray
    rival_basis: tuple[np.ndarray, ...]
    theta2: ParamBox

    def __post_init__(self):
        object.__setattr__(self, "beta1", _freeze(_coef(self.beta1)))
        basis = tuple(_freeze(_coef(c)) for c in self.rival_basis)
        _check_basis(basis, self.theta2)
        object.__setattr__(self, "rival_basis", basis)

    @classmethod
    def from_exponents(cls, beta1, exponents, theta2: ParamBox, *args, **kwargs):
        """Rival span of the monomials x^e; further arguments are the family's
        own fields (sigma2 for Gaussian pairs)."""
        return cls(_coef(beta1), monomial_basis(exponents), theta2, *args, **kwargs)

    @property
    def dimension(self) -> int:
        return self.theta2.dimension

    def true_predictor(self, points) -> np.ndarray:
        return np.polynomial.polynomial.polyval(_scalar_inputs(points), self.beta1)

    def rival_matrix(self, points) -> np.ndarray:
        return _poly_matrix(self.rival_basis, _scalar_inputs(points))

    def divergence(self, points, beta2) -> np.ndarray:
        x = _scalar_inputs(points)
        kernel = self.kernel(self.true_predictor(x))
        return kernel(self.rival_matrix(x) @ np.asarray(beta2, dtype=float))

    def divergence_evaluator(self, points):
        """Closure over fixed points for repeated beta2 evaluation (hot path)."""
        x = _scalar_inputs(points)
        kernel = self.kernel(self.true_predictor(x))
        basis = self.rival_matrix(x)
        return lambda beta2: kernel(basis @ beta2)

    def divergence_derivatives(self, points):
        """First and second derivatives of the pointwise divergence in the
        rival predictor eta2, as a closure over fixed points."""
        return self.kernel_derivatives(self.true_predictor(points))


@dataclass(frozen=True)
class GaussianRegressionPair(PolynomialPair):
    """Equal-variance Gaussian responses; the predictors are the means, and the
    pointwise divergence is (eta1 - eta2)^2 / (2 sigma2)."""

    sigma2: float = 0.5

    kind: ClassVar[str] = "gaussian-regression"

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        super().__post_init__()

    def kernel(self, eta1):
        half_inv_var = 0.5 / self.sigma2

        def values(eta2) -> np.ndarray:
            resid = eta1 - eta2
            return resid * resid * half_inv_var

        return values

    def kernel_derivatives(self, eta1):
        inv_var = 1.0 / self.sigma2
        return lambda eta2: ((eta2 - eta1) * inv_var, np.full(eta2.shape, inv_var))

    def residual_critical_points(self, beta2, lower: float, upper: float) -> np.ndarray:
        """Real parts of the roots of r' in (lower, upper), r = m1 - m2(., beta2), as
        a column: with the endpoints they hold the maximum of r^2 / (2 sigma2). A
        nearly double root can come back complex, hence the real parts."""
        coef = np.zeros(max(c.size for c in (self.beta1, *self.rival_basis)))
        coef[:self.beta1.size] += self.beta1
        for b, c in zip(np.asarray(beta2, dtype=float), self.rival_basis):
            coef[:c.size] -= b * c
        # r'(radius * t) with |t| <= 1 on the domain, less its terms below 1e-15
        # of the largest: rounding noise that would swamp the companion matrix.
        radius = max(abs(lower), abs(upper))
        scaled = coef[1:] * np.arange(1.0, coef.size) * radius ** np.arange(coef.size - 1)
        scaled[np.abs(scaled) <= 1e-15 * np.max(np.abs(scaled), initial=0.0)] = 0.0
        roots = radius * np.roots(scaled[::-1]).real
        return roots[(roots > lower) & (roots < upper), None]


@dataclass(frozen=True)
class LogisticGlmPair(PolynomialPair):
    """Bernoulli responses P(Y=1|x) = expit(eta_i(x)). The divergence is
    evaluated in the softplus form

        (eta1 - eta2) * expit(eta1) + softplus(eta2) - softplus(eta1),

    which is exact and stable for |eta| <= 700.
    """

    kind: ClassVar[str] = "logistic-glm"

    def kernel(self, eta1):
        mean1 = expit(eta1)
        soft1 = softplus(eta1)

        def values(eta2) -> np.ndarray:
            val = (eta1 - eta2) * mean1 + softplus(eta2) - soft1
            return np.maximum(val, 0.0)  # clamp rounding noise; KL is nonnegative

        return values

    def kernel_derivatives(self, eta1):
        mean1 = expit(eta1)
        return lambda eta2: (expit(eta2) - mean1, expit(eta2) * expit(-eta2))


def _default_synthetic_box() -> ParamBox:
    return ParamBox([1e-6], [1000.0])


@dataclass(frozen=True)
class SyntheticFamily:
    """Fixed piecewise divergence family on [0, 1] with a scalar parameter.

        I(x, b) = 2((2b - 1)x + (1 - b))   for b <= 1
        I(x, b) = (b + 1) x^b              for b > 1

    Both branches equal 2x at b = 1. Every one-point design has criterion
    value 0, yet the average under the uniform measure on [0, 1] is
    identically 1; the closed-form averages below expose that gap without
    needing continuous-support designs.
    """

    theta2: ParamBox = field(default_factory=_default_synthetic_box)

    kind: ClassVar[str] = "synthetic-family"

    def __post_init__(self):
        if self.theta2.dimension != 1:
            raise ValueError("synthetic family has a single scalar parameter")

    @property
    def dimension(self) -> int:
        return 1

    def rival_matrix(self, points):
        return None

    def divergence(self, points, beta2) -> np.ndarray:
        x = _scalar_inputs(points)
        b = float(np.asarray(beta2, dtype=float).ravel()[0])
        if b <= 1.0:
            val = 2.0 * ((2.0 * b - 1.0) * x + (1.0 - b))
        else:
            val = (b + 1.0) * np.power(x, b)
        return np.maximum(val, 0.0)

    def divergence_evaluator(self, points):
        x = _scalar_inputs(points)
        return lambda beta2: self.divergence(x, beta2)

    # Closed-form averages for the continuous fixtures.

    def truncated_uniform_average(self, beta2: float, n: int) -> float:
        """Average divergence under the uniform measure on [0, 1 - 1/n]."""
        if n < 2:
            raise ValueError("n must be >= 2")
        b = float(beta2)
        if b <= 1.0:
            return 1.0 - (2.0 * b - 1.0) / n
        return float((1.0 - 1.0 / n) ** b)

    def uniform_average(self, beta2: float) -> float:
        """Average divergence under the uniform measure on [0, 1]; equals 1."""
        return 1.0

    def truncated_uniform_criterion(self, n: int, box: ParamBox | None = None) -> float:
        """Infimum over the box of the truncated-uniform average (closed form).

        Both branches decrease in the parameter and agree at 1, so the average
        is decreasing over the whole box and the infimum sits at its upper end.
        """
        box = box or self.theta2
        return self.truncated_uniform_average(float(box.upper[0]), n)

    def uniform_criterion(self, box: ParamBox | None = None) -> float:
        """Infimum over the box of the uniform-[0,1] average; identically 1."""
        return 1.0


ModelPair = Union[GaussianRegressionPair, LogisticGlmPair, SyntheticFamily]


def kl_pointwise(pair: ModelPair, x, beta2) -> float:
    """Pointwise divergence I(x, beta2) at a single experimental condition."""
    pt = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    return float(pair.divergence(pt, beta2)[0])


def kl_average(pair: ModelPair, design: Design, beta2) -> float:
    """Design-weighted average of the pointwise divergence."""
    return float(design.weights @ pair.divergence(design.points, beta2))


def glm_fisher_information(rows, weights) -> np.ndarray:
    """Fisher information J = X^T W X of the rival GLM: `rows` is X, `weights`
    the diagonal of W, i.e. the divergence's second derivative in eta2."""
    x = np.atleast_2d(np.asarray(rows, dtype=float))
    j = x.T @ (np.asarray(weights, dtype=float)[:, None] * x)
    return 0.5 * (j + j.T)


def glm_is_regular(rows) -> bool:
    """True iff the rival matrix X (n, d2) has rank d2, i.e. the Fisher
    information is nonsingular.

    Rank is decided from singular values with the threshold
    max(n, d2) * sigma_max * 1e-12.
    """
    x = np.atleast_2d(np.asarray(rows, dtype=float))
    s = np.linalg.svd(x, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return False
    threshold = max(x.shape) * s[0] * 1e-12
    return int(np.sum(s > threshold)) == x.shape[1]


def _compose_affine(coeffs: np.ndarray, a: float, b: float) -> np.ndarray:
    # Exact expansion of p((z - a) / b) in ascending monomial coefficients.
    p = Polynomial(np.asarray(coeffs, dtype=float))
    inner = Polynomial([-a / b, 1.0 / b])
    comp = p(inner)
    out = np.zeros(len(coeffs))
    c = np.atleast_1d(comp.coef if isinstance(comp, Polynomial) else comp)
    out[:c.size] = c
    return out


def reparametrize_under_affine(pair: ModelPair, amap: AffineMap) -> ModelPair:
    """Re-express a polynomial-predictor pair on the image domain z = a + bx.

    The true-model coefficients are the exact expansion of the original
    polynomial composed with x = (z - a) / b; each rival basis function is
    composed the same way, so the rival span on the image domain equals the
    original span and beta2 keeps its meaning (the induced coefficient map is
    the identity in this representation).
    """
    if not isinstance(pair, PolynomialPair):
        raise UnsupportedModelError("synthetic family has no polynomial predictor")
    a, b = amap.offset, amap.scale
    return replace(pair, beta1=_compose_affine(pair.beta1, a, b),
                   rival_basis=tuple(_compose_affine(c, a, b) for c in pair.rival_basis))

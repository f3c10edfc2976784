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
"""

from dataclasses import dataclass, replace
from typing import Union

import numpy as np
from scipy.special import expit

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


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    # numpy's polyval step for step: c[-1] + x*0, then c + out*x per degree.
    # The columns of a 2-d `coef` against x[:, None] are one polyval each.
    out = coef[-1] + x * 0
    for c in coef[-2::-1]:
        out = c + out * x
    return out


def _poly_matrix(basis: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    # Zero padding on top leaves each column's floats those of its own polyval.
    coef = np.zeros((max(c.size for c in basis), len(basis)))
    for j, c in enumerate(basis):
        coef[:c.size, j] = c
    return _horner(coef, x[:, None])


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
        return _horner(self.beta1, _scalar_inputs(points))

    def rival_matrix(self, points) -> np.ndarray:
        return _poly_matrix(self.rival_basis, _scalar_inputs(points))

    def divergence(self, points, beta2) -> np.ndarray:
        x = _scalar_inputs(points)
        kernel = self.kernel(self.true_predictor(x))
        return kernel(self.rival_matrix(x) @ np.asarray(beta2, dtype=float))


@dataclass(frozen=True)
class GaussianRegressionPair(PolynomialPair):
    """Equal-variance Gaussian responses; the predictors are the means, and the
    pointwise divergence is (eta1 - eta2)^2 / (2 sigma2)."""

    sigma2: float = 0.5

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

    def kernel(self, eta1):
        mean1 = expit(eta1)
        soft1 = softplus(eta1)

        def values(eta2) -> np.ndarray:
            val = (eta1 - eta2) * mean1 + softplus(eta2) - soft1
            return np.maximum(val, 0.0)  # clamp rounding noise; KL is nonnegative

        return values

    def kernel_derivatives(self, eta1):
        mean1 = expit(eta1)

        def derivatives(eta2):
            mean2 = expit(eta2)
            return mean2 - mean1, mean2 * expit(-eta2)

        return derivatives


ModelPair = Union[GaussianRegressionPair, LogisticGlmPair]


def _least_singular_value(rows) -> float:
    """The smallest singular value of the rival matrix X (n, d2), or 0.0 where
    X has rank below d2.

    Rank is decided from singular values with the threshold
    max(n, d2) * sigma_max * 1e-12.
    """
    x = np.atleast_2d(np.asarray(rows, dtype=float))
    s = np.linalg.svd(x, compute_uv=False)
    full = s.size == x.shape[1] > 0 and s[-1] > max(x.shape) * s[0] * 1e-12
    return float(s[-1]) if full else 0.0


def glm_is_regular(rows) -> bool:
    """True iff the rival matrix X (n, d2) has rank d2, i.e. the Fisher
    information is nonsingular (`_least_singular_value` decides the rank)."""
    return _least_singular_value(rows) > 0.0


def _compose_affine(coeffs: np.ndarray, a: float, b: float) -> np.ndarray:
    # Exact expansion of p((z - a) / b) in ascending monomial coefficients by
    # Horner's rule on coefficient arrays, with the floats of numpy's
    # Polynomial composition: its x*0 and products are dot products summed
    # from +0.0, so zeros come out unsigned and its trimming changes none.
    inner = np.array([-a / b, 1.0 / b])
    comp = coeffs[-1:] + 0.0
    for c in coeffs[-2::-1]:
        comp = np.convolve(comp, inner)
        comp[0] += c
    return comp


def reparametrize_under_affine(pair: ModelPair, amap: AffineMap) -> ModelPair:
    """Re-express a polynomial-predictor pair on the image domain z = a + bx.

    The true-model coefficients are the exact expansion of the original
    polynomial composed with x = (z - a) / b; each rival basis function is
    composed the same way, so the rival span on the image domain equals the
    original span and beta2 keeps its meaning (the induced coefficient map is
    the identity in this representation).
    """
    if not isinstance(pair, PolynomialPair):
        raise UnsupportedModelError("only polynomial-predictor pairs can be reparametrized")
    a, b = amap.offset, amap.scale
    return replace(pair, beta1=_compose_affine(pair.beta1, a, b),
                   rival_basis=tuple(_compose_affine(c, a, b) for c in pair.rival_basis))

"""Post-hoc certification of candidate optimal designs.

The equivalence check evaluates the directional derivative on
`algorithm.psi_scan`, the scan the loop's best-point search reads: the grid
(`algorithm.psi_grid`), the support and, for a Gaussian pair, the domain's
ends and the roots of r'. A logistic support's divergence is read off the
check's own inner solve (`InnerSolution.pointwise`), which runs on the
design, or on its blend with the reference when regularized, whose leading
points are the design's. A design is certified optimal when the derivative
is nonpositive everywhere and vanishes on the support. The scan is exact for
Gaussian pairs; for others, grid spacing h hides at most h^2/8 * max|psi''|.
For singular designs the derivative is only defined through the regularized
criterion, so the check asks for a regularization config first.
"""

from dataclasses import dataclass

import numpy as np

from .algorithm import (PSI_GRID_SIZE, RegularizationConfig, _solve_criterion, psi_grid,
                        psi_scan)
from .designs import AffineMap, Design, DesignSpace, _value_type, transform_design
from .inner import InnerConfig, minimize_beta2
from .models import ModelPair, reparametrize_under_affine

CERTIFIED = "certified"
REJECTED = "rejected"
SINGULAR = "singular-needs-regularization"


@_value_type
@dataclass(frozen=True)
class EquivalenceReport:
    """Scan evidence for (or against) the optimality of a design."""

    verdict: str
    grid_size: int
    psi_max: float
    psi_argmax: np.ndarray
    support_psi: np.ndarray
    zero_locations: np.ndarray
    criterion_value: float
    pass_tolerance: float
    beta2_hat: np.ndarray
    gamma: float | None
    grid_points: np.ndarray
    grid_psi: np.ndarray

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "grid_size": self.grid_size,
            "psi_max": self.psi_max,
            "psi_argmax": self.psi_argmax.tolist(),
            "support_psi": self.support_psi.tolist(),
            "zero_locations": self.zero_locations.tolist(),
            "criterion_value": self.criterion_value,
            "pass_tolerance": self.pass_tolerance,
            "beta2_hat": self.beta2_hat.tolist(),
            "gamma": self.gamma,
        }

    def psi_curve_csv(self) -> str:
        """Derivative curve as CSV (x1, psi), ready for plotting."""
        lines = ["x1,psi"]
        for x, val in zip(self.grid_points[:, 0], self.grid_psi):
            lines.append(f"{float(x)!r},{float(val)!r}")
        return "\n".join(lines) + "\n"


def equivalence_check(pair: ModelPair, design: Design,
                      space: DesignSpace | None = None,
                      grid_size: int = PSI_GRID_SIZE,
                      inner_config: InnerConfig = InnerConfig(),
                      reg: RegularizationConfig | None = None) -> EquivalenceReport:
    """Check of the optimality condition psi(x) <= 0 on `psi_scan`.

    Without `reg`, the derivative uses the design's own inner minimizer; if
    that minimizer is not unique (rank-deficient rival matrix on the
    support) the verdict is "singular-needs-regularization" (the derivative
    is not trustworthy there). With `reg`, the scaled derivative of the
    regularized criterion is used instead, which is valid for any design;
    its reference design must be valid and regular, as for
    `run_regularized`, else `DomainError` is raised. Either way a weight of
    the design that is negative or NaN raises `DomainError`. The
    pass tolerance scales with the criterion value: 1e-6 * max(1, value).
    """
    space = space or design.space
    reg, sol = _solve_criterion(pair, design, space, inner_config, reg)
    if reg is None:
        scale = 1.0
        gamma = None
        singular = sol.singular_flag
    else:  # sol.value is I_gamma(design)
        scale = 1.0 - reg.gamma
        gamma = reg.gamma
        singular = False
    value = sol.value

    points, psi = psi_scan(pair, design, sol.beta2_hat, space,
                           psi_grid(pair, space, grid_size), pointwise=sol.pointwise)
    psi = scale * psi
    grid, grid_psi = points[:grid_size], psi[:grid_size]
    support_psi = psi[grid_size:grid_size + design.size]
    i_max = int(np.argmax(psi))
    psi_max = float(psi[i_max])

    tol = 1e-6 * max(1.0, value)
    zeros = grid[np.abs(grid_psi) <= tol]

    if singular:
        verdict = SINGULAR
    elif psi_max <= tol and float(np.max(np.abs(support_psi))) <= tol:
        verdict = CERTIFIED
    else:
        verdict = REJECTED

    return EquivalenceReport(
        verdict=verdict,
        grid_size=grid_size,
        psi_max=psi_max,
        psi_argmax=points[i_max],
        support_psi=support_psi,
        zero_locations=zeros,
        criterion_value=value,
        pass_tolerance=tol,
        beta2_hat=sol.beta2_hat,
        gamma=gamma,
        grid_points=grid,
        grid_psi=grid_psi,
    )


@dataclass(frozen=True)
class InvarianceReport:
    """Criterion values of a design and its affine image under the
    correspondingly reparametrized pair."""

    value_original: float
    value_transformed: float
    difference: float
    tolerance: float
    passed: bool


def invariance_check(pair: ModelPair, design: Design, amap: AffineMap,
                     inner_config: InnerConfig = InnerConfig()) -> InvarianceReport:
    """Check that the criterion is invariant under z = a + bx.

    Solves the inner problem for the design on its own domain and for its
    affine image under the reparametrized pair; the two values must agree
    within 1e-8 * max(1, value).
    """
    sol_x = minimize_beta2(pair, design, inner_config)
    image_pair = reparametrize_under_affine(pair, amap)
    image_design = transform_design(design, amap)
    sol_z = minimize_beta2(image_pair, image_design, inner_config)
    diff = abs(sol_x.value - sol_z.value)
    tol = 1e-8 * max(1.0, sol_x.value)
    return InvarianceReport(
        value_original=sol_x.value,
        value_transformed=sol_z.value,
        difference=diff,
        tolerance=tol,
        passed=diff <= tol,
    )

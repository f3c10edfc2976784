"""Optimal experimental designs for discriminating two rival statistical models.

The criterion maximized is the minimum (over the rival model's parameters)
design-averaged Kullback-Leibler divergence between the true and rival
conditional response distributions. The package provides the design
containers and measure operations, closed-form divergence models, the inner
box-constrained minimization, the first-order exchange algorithm with its
regularized variant for singular optima, equivalence-theorem certification,
and affine-invariance transforms, plus a `kl-design` CLI.
"""

from .algorithm import (EFFICIENCY_REACHED, MAX_ITERATIONS, RIVAL_ATTAINS_TRUTH,
                        STALLED, STALLED_REGULARIZED, AlgoConfig, IterationRecord,
                        RegularizationConfig, RunResult, default_reference_design,
                        efficiency_bound, iterations_to_csv, run_first_order,
                        run_regularized)
from .designs import (AffineMap, Design, DesignSpace, ValidationReport,
                      blend_designs, transform_design, validate_design,
                      wasserstein_distance)
from .errors import (ConfigError, DomainError, KLDesignError, SingularMapError,
                     UndefinedEfficiencyError, UnsupportedModelError)
from .inner import InnerConfig, InnerSolution, least_squares_oracle, minimize_beta2
from .models import (GaussianRegressionPair, LogisticGlmPair, ModelPair, ParamBox,
                     PolynomialPair, glm_is_regular, reparametrize_under_affine)
from .verify import (CERTIFIED, REJECTED, SINGULAR, EquivalenceReport,
                     InvarianceReport, equivalence_check, invariance_check)

__version__ = "0.1.0"

__all__ = [
    "AffineMap", "AlgoConfig", "CERTIFIED", "ConfigError", "Design", "DesignSpace",
    "DomainError", "EFFICIENCY_REACHED", "EquivalenceReport",
    "GaussianRegressionPair", "InnerConfig", "InnerSolution", "InvarianceReport",
    "IterationRecord", "KLDesignError", "LogisticGlmPair", "MAX_ITERATIONS",
    "ModelPair", "ParamBox", "PolynomialPair", "REJECTED", "RIVAL_ATTAINS_TRUTH",
    "RegularizationConfig", "RunResult", "SINGULAR", "STALLED",
    "STALLED_REGULARIZED", "SingularMapError", "UndefinedEfficiencyError",
    "UnsupportedModelError", "ValidationReport", "blend_designs",
    "default_reference_design", "efficiency_bound", "equivalence_check",
    "glm_is_regular", "invariance_check", "iterations_to_csv",
    "least_squares_oracle", "minimize_beta2",
    "reparametrize_under_affine", "run_first_order", "run_regularized",
    "transform_design", "validate_design", "wasserstein_distance",
]

"""The package's public names, and where the names it does not export live."""

import kldesign
from kldesign import algorithm, benchmarks
from kldesign.models import PolynomialPair

PUBLIC = [
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
    "wasserstein_distance_lp",
]


def test_public_names_are_pinned():
    assert sorted(kldesign.__all__) == PUBLIC
    assert all(hasattr(kldesign, name) for name in PUBLIC)


def test_unexported_names_resolve_in_their_modules():
    moved = {algorithm: ["best_support_candidate", "corrective_step",
                         "line_search_alpha", "restricted_dual"],
             benchmarks: ["SyntheticFamily", "_kl_average", "_glm_fisher_information"]}
    for module, names in moved.items():
        for name in names:
            assert callable(getattr(module, name))
            assert not hasattr(kldesign, name.lstrip("_"))
    # a Support's pointwise closure is the one closure over fixed points
    assert not hasattr(PolynomialPair, "divergence_evaluator")

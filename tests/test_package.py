"""The package's public names, where the names it does not export live, and
what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

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


# A cubic run, its certificate and its invariance check, a config given as a
# dict and the transform command, in a fresh interpreter.
GAUSSIAN_PATHS = """
import json, sys
from pathlib import Path
import kldesign
from kldesign import benchmarks, cli, config
from kldesign.designs import AffineMap
pair, space = benchmarks.cubic_quadratic_pair(), benchmarks.cubic_quadratic_space()
optimum = benchmarks.cubic_quadratic_optimum()
run = kldesign.run_first_order(pair, benchmarks.cubic_quadratic_start(), space,
                               benchmarks.benchmark_algo_config(),
                               benchmarks.benchmark_inner_config())
assert run.termination_reason == kldesign.EFFICIENCY_REACHED
assert kldesign.equivalence_check(pair, optimum, space=space).verdict == kldesign.CERTIFIED
assert kldesign.invariance_check(pair, optimum, AffineMap(2.0, 4.0)).passed
setup = config.parse_run_config({
    "model": {"kind": "gaussian-regression", "beta1": [0, 0, 0, 1], "sigma2": 0.5,
              "rival_exponents": [0, 1, 2],
              "beta2_box": {"lower": [-5] * 3, "upper": [5] * 3}},
    "space": {"lower": [-1], "upper": [1]}}, Path.cwd())
assert setup.initial_design is None
with open(sys.argv[1], "w") as f:
    json.dump(optimum.as_dict(), f)
assert cli.main(["transform", sys.argv[1], "--offset", "2", "--matrix", "4",
                 "--output", sys.argv[1]]) == 0
print(sorted(m for m in ("scipy.optimize", "scipy.integrate", "yaml") if m in sys.modules))
"""


def test_gaussian_paths_load_no_optimizer_integrator_or_yaml(tmp_path):
    # scipy.optimize, scipy.integrate and yaml are imported where a call needs
    # them; this session has loaded them already, so a new process is asked
    src = str(Path(kldesign.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", GAUSSIAN_PATHS, str(tmp_path / "d.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"

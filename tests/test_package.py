"""The package's public names, where the names it does not export live, and
what importing it loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kldesign
from kldesign import algorithm, benchmarks, gaussian_step, logistic_step
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
]


def test_public_names_are_pinned():
    assert sorted(kldesign.__all__) == PUBLIC
    assert all(hasattr(kldesign, name) for name in PUBLIC)


def test_unexported_names_resolve_in_their_modules():
    moved = {algorithm: ["best_support_candidate", "corrective_step",
                         "line_search_alpha", "psi_grid", "psi_scan"],
             gaussian_step: ["corrective_step", "restricted_dual"],
             logistic_step: ["line_search_alpha"],
             benchmarks: ["SyntheticFamily", "_kl_average", "_glm_fisher_information"]}
    for module, names in moved.items():
        for name in names:
            assert callable(getattr(module, name))
            assert not hasattr(kldesign, name.lstrip("_"))
    # a Support's pointwise closure is the one closure over fixed points
    assert not hasattr(PolynomialPair, "divergence_evaluator")


def test_the_loop_binds_the_step_and_scan_functions_it_calls():
    # the loop calls each family's step by its own binding, and perfbench's
    # tracer wraps every binding of the function it finds on `algorithm`
    assert algorithm.line_search_alpha is logistic_step.line_search_alpha
    assert algorithm.corrective_step is gaussian_step.corrective_step
    assert algorithm.best_support_candidate.__module__ == "kldesign.algorithm"
    assert algorithm.line_search_alpha.__module__ == "kldesign.logistic_step"


def imported_modules(name: str) -> set:
    """The modules that the package's module `name` imports, the package's
    own as `kldesign.<module>`."""
    tree = ast.parse((Path(kldesign.__file__).parent / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("kldesign." * bool(node.level) + (node.module or "")).rstrip(".")
            if module == "kldesign":
                found.update(f"kldesign.{alias.name}" for alias in node.names)
            else:
                found.add(module)
    return found


def test_the_active_set_method_and_the_steps_do_not_import_the_loop():
    # the active-set method knows no designs or pairs, and each step stands
    # below the loop that calls it, so no import cycle can form
    assert imported_modules("_active_set") == {"numpy"}
    assert "kldesign.inner" in imported_modules("gaussian_step")
    for step in ("gaussian_step", "logistic_step"):
        assert "kldesign.algorithm" not in imported_modules(step)


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
"""


# A logistic run that steps into (0, 1) by the line search's root find, a
# Newton solve whose box binds (BVLS), a regularized certificate and the
# glm-regularity check, which weights its rows by expit.
LOGISTIC_PATHS = """
import sys
import kldesign
from kldesign import benchmarks
from kldesign.models import LogisticGlmPair, ParamBox
space = benchmarks.logistic_space()
start = kldesign.Design(space, [[0.2], [0.6], [0.9]], [0.3, 0.3, 0.4])
pair = LogisticGlmPair([1.0, 1.0, 1.0], [0, 1], ParamBox([-10.0, -10.0], [10.0, 10.0]))
run = kldesign.run_first_order(pair, start, space, kldesign.AlgoConfig(max_iterations=3))
assert all(0.0 < r.alpha < 1.0 for r in run.history)
boxed = LogisticGlmPair([1.0, 1.0, 1.0], [1, 2], ParamBox([-1.0, -1.0], [1.0, 1.0]))
assert kldesign.minimize_beta2(boxed, start).at_boundary
reg = kldesign.RegularizationConfig(gamma=0.05, xi_tilde=benchmarks.logistic_reference_design())
singular = kldesign.Design(space, [[0.0]], [1.0])
report = kldesign.equivalence_check(benchmarks.logistic_pair(), singular, space=space, reg=reg)
assert report.verdict == kldesign.CERTIFIED
assert benchmarks.check_glm_regularity(benchmarks.BenchmarkContext()).passed
"""


BARE_IMPORT = """
import kldesign, kldesign.benchmarks, kldesign.cli
"""

# `kl-design benchmark`, whose printout comes before the report line
BENCHMARK_COMMAND = """
from kldesign import cli
assert cli.main(["benchmark"]) == 0
"""

# the script's last line: the scipy and yaml modules it has loaded
REPORT = """
import json, sys
print(json.dumps([m for m in sys.modules if m.partition(".")[0] in ("scipy", "yaml")]))
"""


def loaded_modules(script: str, *args: str) -> set:
    """The scipy and yaml modules `script` loads, run by a new interpreter on
    this package; the test process has loaded all of them already."""
    src = str(Path(kldesign.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script + REPORT, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def gaussian_loaded(tmp_path_factory):
    return loaded_modules(GAUSSIAN_PATHS, str(tmp_path_factory.mktemp("gaussian") / "d.json"))


@pytest.fixture(scope="module")
def logistic_loaded():
    return loaded_modules(LOGISTIC_PATHS)


def test_gaussian_paths_load_no_scipy_or_yaml(gaussian_loaded):
    # LAPACK through numpy's own gufuncs, and yaml where a call needs it
    assert gaussian_loaded == set()


def test_import_loads_no_scipy_or_yaml():
    assert loaded_modules(BARE_IMPORT) == set()


def test_logistic_paths_load_no_scipy_or_yaml(logistic_loaded):
    # expit, the line search's root find and BVLS are the package's own
    assert logistic_loaded == set()


def test_benchmark_command_loads_no_scipy():
    # the transport route is the monotone coupling and the quadrature is
    # numpy's Gauss-Legendre rule: scipy serves the tests only
    assert not {m for m in loaded_modules(BENCHMARK_COMMAND)
                if m.partition(".")[0] == "scipy"}


def test_only_lapack_imports_numpy_private_modules():
    # a numpy release that moves these names breaks one module
    private = ("numpy._core", "numpy.linalg._umath_linalg")
    importers = set()
    for path in sorted(Path(kldesign.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            if any(name == p or name.startswith(p + ".")
                   for name in names for p in private):
                importers.add(path.name)
    assert importers == {"_lapack.py"}


def test_lapack_reaches_four_umath_linalg_gufuncs():
    # numpy's private surface the package depends on: a name added here, or
    # one numpy moves, shows in this set
    tree = ast.parse((Path(kldesign.__file__).parent / "_lapack.py").read_text())
    reached = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "_umath_linalg"}
    assert reached == {"lstsq", "solve1", "svd", "eigvals"}

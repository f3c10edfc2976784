"""Command-line interface: run, verify, transform, benchmark."""

import json
from pathlib import Path

import numpy as np
import pytest

from kldesign import benchmarks, cli
from kldesign.benchmarks import (CheckResult, cubic_quadratic_optimum, logistic_space,
                                 verify_inner_config)
from kldesign.config import load_run_config
from kldesign.designs import Design, DesignSpace
from kldesign.errors import ConfigError
from kldesign.inner import minimize_beta2

BASE_MODEL = """\
model:
  kind: gaussian-regression
  beta1: [0, 0, 0, 1]
  sigma2: 0.5
  rival_exponents: [0, 1, 2]
  beta2_box:
    lower: [-5, -5, -5]
    upper: [5, 5, 5]
space:
  lower: [-1]
  upper: [1]
"""

START_DESIGN = """\
initial_design:
  points: [[-1.0], [-0.6], [0.1], [0.8]]
  weights: [0.25, 0.25, 0.25, 0.25]
"""

LOGISTIC_MODEL = """\
model:
  kind: logistic-glm
  beta1: [1, 1, 1]
  rival_exponents: [1, 2]
  beta2_box:
    lower: [-10, -10]
    upper: [10, 10]
space:
  lower: [0]
  upper: [1]
initial_design:
  points: [[0.0], [0.3333333333333333], [0.6666666666666666], [1.0]]
  weights: [0.25, 0.25, 0.25, 0.25]
inner:
  local_tolerance: 1.0e-9
"""

REGULARIZATION = """\
regularization:
  gamma: 0.05
"""

DEMO_CONFIGS = sorted((Path(__file__).resolve().parent.parent
                       / "demos" / "configs").glob("*.yaml"))


def write(path, text):
    path.write_text(text)
    return str(path)


def design_file(tmp_path, design, name="design.json"):
    path = tmp_path / name
    path.write_text(json.dumps(design.as_dict()))
    return str(path)


TWO_COLUMN_POINTS = "[[-1.0, 0.0], [-0.6, 0.0], [0.1, 0.0], [0.8, 0.0]]"

# JSON texts that are not designs: the root or its space is not a mapping,
# or the points have a second column
NOT_DESIGNS = {
    "root-list": "[1, 2]",
    "space-number": '{"space": 3, "points": [[0.0]], "weights": [1.0]}',
    "space-list": '{"space": [-1, 1], "points": [[0.0]], "weights": [1.0]}',
    "two-columns": '{"space": {"lower": [-1], "upper": [1]}, "points": '
                   + TWO_COLUMN_POINTS + ', "weights": [0.25, 0.25, 0.25, 0.25]}',
}


class TestRun:
    def test_benchmark_run_reaches_the_optimum(self, tmp_path):
        cfg = write(tmp_path / "run.yaml", BASE_MODEL + START_DESIGN +
                    "algorithm:\n  delta: 0.97\n  max_iterations: 300\n"
                    "inner:\n  local_tolerance: 1.0e-9\n")
        rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["termination_reason"] == "efficiency-reached"
        assert (tmp_path / "out" / "iterations.csv").exists()
        final = Design.from_dict(
            json.loads((tmp_path / "out" / "final_design.json").read_text()))
        assert final.size >= 3

    def test_shipped_benchmark_config_reaches_the_optimum(self, tmp_path):
        # the annotated example config, verbatim, at its delta = 0.99
        from kldesign.designs import wasserstein_distance
        cfg = str(Path(__file__).resolve().parent.parent
                  / "demos" / "configs" / "cubic_vs_quadratic.yaml")
        rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 0
        final = Design.from_dict(
            json.loads((tmp_path / "out" / "final_design.json").read_text()))
        assert wasserstein_distance(final, cubic_quadratic_optimum()) <= 0.02

    def test_budget_exhaustion_exits_2(self, tmp_path):
        cfg = write(tmp_path / "run.yaml", BASE_MODEL + START_DESIGN +
                    "algorithm:\n  delta: 0.999999\n  max_iterations: 1\n")
        rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 2

    def test_invalid_weight_sum_exits_1_and_names_the_field(self, tmp_path, capsys):
        bad = START_DESIGN.replace("0.25, 0.25, 0.25, 0.25", "0.2, 0.2, 0.25, 0.25")
        cfg = write(tmp_path / "run.yaml", BASE_MODEL + bad)
        rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "initial_design" in err and "weight sum" in err

    def test_missing_config_exits_1(self, tmp_path, capsys):
        rc = cli.main(["run", str(tmp_path / "nope.yaml"), "--quiet"])
        assert rc == 1
        assert "does not exist" in capsys.readouterr().err

    def test_initial_design_from_file(self, tmp_path):
        start = Design(DesignSpace([-1.0], [1.0]),
                       [[-1.0], [-0.6], [0.1], [0.8]], [0.25] * 4)
        design_file(tmp_path, start, name="start.json")
        cfg = write(tmp_path / "run.yaml", BASE_MODEL +
                    "initial_design: start.json\n"
                    "algorithm:\n  delta: 0.8\n  max_iterations: 60\n")
        rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 0

    def test_removed_inner_keys_are_rejected_by_name(self, tmp_path, capsys):
        for section, key in (("inner", "multistart_count"),
                             ("inner", "warm_start_noise_scale"),
                             ("inner", "dispersion_threshold"),
                             ("inner", "max_local_iterations"),
                             ("algorithm", "grid_points_per_dim"),
                             ("algorithm", "line_search_tolerance"),
                             ("algorithm", "collapse_radius_base"),
                             ("algorithm", "collapse_radius_exponent"),
                             ("algorithm", "anchor_weight_exponent"),
                             ("algorithm", "prune_abs_threshold"),
                             ("algorithm", "prune_rel_threshold")):
            cfg = write(tmp_path / "run.yaml", BASE_MODEL + START_DESIGN +
                        f"{section}:\n  {key}: 4\n")
            rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"),
                           "--quiet"])
            assert rc == 1
            err = capsys.readouterr().err
            assert section in err and key in err

    def test_relative_output_dir_flag_is_taken_from_the_working_directory(
            self, tmp_path, monkeypatch):
        (tmp_path / "configs").mkdir()
        (tmp_path / "work").mkdir()
        cfg = write(tmp_path / "configs" / "run.yaml", BASE_MODEL + START_DESIGN +
                    "algorithm:\n  max_iterations: 2\noutput_dir: from-config\n")
        monkeypatch.chdir(tmp_path / "work")
        rc = cli.main(["run", cfg, "--output-dir", "out", "--quiet"])
        assert rc == 2
        assert (tmp_path / "work" / "out" / "iterations.csv").exists()
        assert not (tmp_path / "configs" / "out").exists()
        # the config's own key still resolves against the config's directory
        expected = tmp_path.resolve() / "configs" / "from-config"
        assert load_run_config(cfg).output_dir == expected

    @pytest.mark.parametrize("value", ["5", "[out]", "null"])
    def test_output_dir_that_is_not_a_path_exits_1(self, tmp_path, capsys, value):
        cfg = write(tmp_path / "run.yaml", BASE_MODEL + START_DESIGN +
                    f"output_dir: {value}\n")
        rc = cli.main(["run", cfg, "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: output_dir: ")

    def test_output_dir_under_a_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "some_file").write_text("")
        out = tmp_path / "some_file" / "sub"
        cfg = write(tmp_path / "run.yaml", BASE_MODEL + START_DESIGN)
        rc = cli.main(["run", cfg, "--output-dir", str(out), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: {out}: ")

    @pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_parses(self, path):
        setup = load_run_config(path)
        assert setup.initial_design is not None

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_rival_attaining_the_true_model_exits_6(self, tmp_path, c):
        # true mean c x^2 lies in the rival span {1, x, x^2}: every design has
        # criterion value zero, and value and psi_max are rounding noise
        model = BASE_MODEL.replace("beta1: [0, 0, 0, 1]", f"beta1: [0, 0, {c!r}]")
        model = model.replace("[-5, -5, -5]", "[-5000, -5000, -5000]")
        model = model.replace("[5, 5, 5]", "[5000, 5000, 5000]")
        cfg = write(tmp_path / "run.yaml", model + START_DESIGN)
        rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 6
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["termination_reason"] == "rival-attains-truth"
        assert len(result["iterations"]) == 1

    def test_second_experimental_variable_is_rejected_at_parse_time(self, tmp_path):
        two_d = BASE_MODEL.replace("lower: [-1]\n  upper: [1]",
                                   "lower: [-1, -1]\n  upper: [1, 1]")
        for text in (two_d, BASE_MODEL.replace("upper: [1]", "upper: [1, 1]")):
            with pytest.raises(ConfigError, match=r"^space: "):
                load_run_config(write(tmp_path / "run.yaml", text))
        inline = START_DESIGN.replace("[[-1.0], [-0.6], [0.1], [0.8]]",
                                      TWO_COLUMN_POINTS)
        with pytest.raises(ConfigError, match=r"^initial_design: "):
            load_run_config(write(tmp_path / "run.yaml", BASE_MODEL + inline))
        (tmp_path / "start.json").write_text(NOT_DESIGNS["two-columns"])
        with pytest.raises(ConfigError, match="start.json: not a valid design file"):
            load_run_config(write(tmp_path / "run.yaml", BASE_MODEL +
                                  "initial_design: start.json\n"))

    @pytest.mark.parametrize("exponents", ["3", "true", "[]", "null"])
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_rival_exponents_not_a_list_exits_1(self, tmp_path, capsys, command,
                                                 exponents):
        model = BASE_MODEL.replace("rival_exponents: [0, 1, 2]",
                                   f"rival_exponents: {exponents}")
        cfg = write(tmp_path / "run.yaml", model + START_DESIGN)
        args = [cfg] if command == "run" else [
            cfg, design_file(tmp_path, cubic_quadratic_optimum())]
        rc = cli.main([command, *args, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 1
        assert "model.rival_exponents: expected a non-empty list" in capsys.readouterr().err

    @pytest.mark.parametrize("exponents, reason", [
        ("[1, 1]", "distinct"), ("[-1, 2]", "nonnegative"),
        ("[0, 1, 2]", "parameter box of dimension 2")])
    def test_rival_exponents_the_model_refuses_exit_1(self, tmp_path, capsys,
                                                      exponents, reason):
        # the logistic fixture's box has dimension 2
        model = LOGISTIC_MODEL.replace("rival_exponents: [1, 2]",
                                       f"rival_exponents: {exponents}")
        cfg = write(tmp_path / "run.yaml", model)
        rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("config error: model: ") and reason in err

    def test_synthetic_family_kind_exits_1(self, tmp_path, capsys):
        # a discontinuity example with closed forms, not a design problem
        cfg = write(tmp_path / "run.yaml", "model:\n  kind: synthetic-family\n"
                    "space:\n  lower: [0]\n  upper: [1]\n")
        rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 1
        assert "model.kind: expected one of" in capsys.readouterr().err

    def test_missing_design_file_names_it(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.yaml", BASE_MODEL +
                    "initial_design: absent.json\n")
        rc = cli.main(["run", cfg, "--quiet"])
        assert rc == 1
        assert "absent.json" in capsys.readouterr().err

    def test_logistic_without_regularization_stalls(self, tmp_path):
        cfg = write(tmp_path / "run.yaml", LOGISTIC_MODEL +
                    "algorithm:\n  delta: 0.995\n  max_iterations: 50\n")
        rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 3

    def test_one_point_start_stalls_and_exits_3(self, tmp_path):
        # value 0 with a positive gap: U = 0 is a bound, not a rival attaining truth
        start = START_DESIGN.replace("[[-1.0], [-0.6], [0.1], [0.8]]", "[[0.0]]")
        start = start.replace("[0.25, 0.25, 0.25, 0.25]", "[1.0]")
        cfg = write(tmp_path / "run.yaml", BASE_MODEL + start)
        with pytest.warns(UserWarning, match="rank deficient"):
            rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"),
                           "--quiet"])
        assert rc == 3
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["termination_reason"] == "stalled-regularized"

    def test_logistic_with_regularization_succeeds(self, tmp_path):
        cfg = write(tmp_path / "run.yaml", LOGISTIC_MODEL + REGULARIZATION +
                    "algorithm:\n  delta: 0.995\n  max_iterations: 10\n")
        rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["regularized"] is True
        final = Design.from_dict(result["final_design"])
        assert final.weight_at([0.0]) >= 0.95

    def test_seed_settings_are_rejected(self, tmp_path, capsys):
        # no result depends on a seed, so neither the key nor the flag exists
        cfg = write(tmp_path / "run.yaml", BASE_MODEL + START_DESIGN + "seed: 1\n")
        rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 1
        assert "unknown key(s) ['seed']" in capsys.readouterr().err
        cfg = write(tmp_path / "run.yaml", BASE_MODEL + START_DESIGN)
        rc = cli.main(["run", cfg, "--seed", "1", "--output-dir",
                       str(tmp_path / "out"), "--quiet"])
        assert rc == 1
        assert "--seed" in capsys.readouterr().err

    def test_round_trip_criterion_value(self, tmp_path):
        cfg = write(tmp_path / "run.yaml", BASE_MODEL + START_DESIGN +
                    "algorithm:\n  delta: 0.95\n  max_iterations: 200\n"
                    "inner:\n  local_tolerance: 1.0e-9\n")
        rc = cli.main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        final = Design.from_dict(
            json.loads((tmp_path / "out" / "final_design.json").read_text()))
        from kldesign.benchmarks import cubic_quadratic_pair
        sol = minimize_beta2(cubic_quadratic_pair(), final, verify_inner_config())
        assert abs(sol.value - result["final_value"]) <= max(
            1e-12, 1e-10 * result["final_value"])


class TestVerify:
    def test_certifies_the_optimum(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml", BASE_MODEL)
        dpath = design_file(tmp_path, cubic_quadratic_optimum())
        rc = cli.main(["verify", cfg, dpath, "--output-dir", str(tmp_path / "out"),
                       "--quiet"])
        assert rc == 0
        cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert cert["verdict"] == "certified"
        curve = (tmp_path / "out" / "psi_curve.csv").read_text().strip().split("\n")
        assert curve[0] == "x1,psi"

    def test_rejects_uniform_weights(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml", BASE_MODEL)
        opt = cubic_quadratic_optimum()
        dpath = design_file(tmp_path, Design(opt.space, opt.points, [0.25] * 4))
        rc = cli.main(["verify", cfg, dpath, "--output-dir", str(tmp_path / "out"),
                       "--quiet"])
        assert rc == 4

    def test_design_outside_the_configured_domain_exits_1(self, tmp_path, capsys):
        # valid on its own [-2, 2], but the config's domain is [-1, 1]
        wide = Design(DesignSpace([-2.0], [2.0]), [[-2.0], [-1.0], [1.0], [2.0]],
                      [1 / 6, 1 / 3, 1 / 3, 1 / 6])
        dpath = design_file(tmp_path, wide)
        cfg = write(tmp_path / "cfg.yaml", BASE_MODEL)
        rc = cli.main(["verify", cfg, dpath, "--output-dir", str(tmp_path / "out"),
                       "--quiet"])
        assert rc == 1
        assert f"config error: {dpath}: point 0 = [-2.0] outside box" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_dir_under_a_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "some_file").write_text("")
        out = tmp_path / "some_file" / "sub"
        cfg = write(tmp_path / "cfg.yaml", BASE_MODEL)
        dpath = design_file(tmp_path, cubic_quadratic_optimum())
        rc = cli.main(["verify", cfg, dpath, "--output-dir", str(out), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: {out}: ")

    def test_singular_design_without_gamma_exits_5(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml", LOGISTIC_MODEL)
        d0 = Design(logistic_space(), [[0.0]], [1.0])
        rc = cli.main(["verify", cfg, design_file(tmp_path, d0),
                       "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 5

    def test_singular_reference_design_exits_1(self, tmp_path, capsys):
        # the certificate checks xi_tilde as run_regularized does
        cfg = write(tmp_path / "cfg.yaml", LOGISTIC_MODEL + REGULARIZATION +
                    "  xi_tilde:\n    points: [[0.0]]\n    weights: [1.0]\n")
        d0 = Design(logistic_space(), [[0.0]], [1.0])
        rc = cli.main(["verify", cfg, design_file(tmp_path, d0),
                       "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 1
        assert "reference design" in capsys.readouterr().err

    def test_singular_design_with_gamma_certifies(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml", LOGISTIC_MODEL + REGULARIZATION)
        d0 = Design(logistic_space(), [[0.0]], [1.0])
        rc = cli.main(["verify", cfg, design_file(tmp_path, d0),
                       "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert rc == 0
        rows = (tmp_path / "out" / "psi_curve.csv").read_text().strip().split("\n")[1:]
        psi = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(psi <= 1e-6)


class TestTransform:
    def test_rescale_benchmark_design(self, tmp_path, capsys):
        dpath = design_file(tmp_path, cubic_quadratic_optimum())
        rc = cli.main(["transform", dpath, "--offset", "2", "--matrix", "4"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert [p[0] for p in out["points"]] == [-2.0, 0.0, 4.0, 6.0]

    def test_identity(self, tmp_path, capsys):
        dpath = design_file(tmp_path, cubic_quadratic_optimum())
        rc = cli.main(["transform", dpath, "--offset", "0", "--matrix", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert [p[0] for p in out["points"]] == [-1.0, -0.5, 0.5, 1.0]

    def test_singular_matrix_exits_1(self, tmp_path, capsys):
        dpath = design_file(tmp_path, cubic_quadratic_optimum())
        rc = cli.main(["transform", dpath, "--offset", "0", "--matrix", "0"])
        assert rc == 1
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--offset", "--matrix"])
    def test_more_than_one_number_exits_1_and_names_the_flag(self, tmp_path, capsys,
                                                             flag):
        dpath = design_file(tmp_path, cubic_quadratic_optimum())
        values = {"--offset": "0", "--matrix": "1"}
        values[flag] = "1,0;0,2"
        rc = cli.main(["transform", dpath, "--offset", values["--offset"],
                       "--matrix", values["--matrix"]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and flag in err

    def test_negative_offset_in_equals_form(self, tmp_path, capsys):
        # argparse reads a bare -1e3 as a flag, so the value goes after '='
        dpath = design_file(tmp_path, cubic_quadratic_optimum())
        rc = cli.main(["transform", dpath, "--offset=-1e3", "--matrix", "4"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert [p[0] for p in out["points"]] == [-1004.0, -1002.0, -998.0, -996.0]

    def test_output_file(self, tmp_path):
        dpath = design_file(tmp_path, cubic_quadratic_optimum())
        target = tmp_path / "transformed.json"
        rc = cli.main(["transform", dpath, "--offset", "2", "--matrix", "4",
                       "--output", str(target)])
        assert rc == 0
        assert json.loads(target.read_text())["space"]["lower"] == [-2.0]

    def test_output_file_in_a_missing_directory_exits_1(self, tmp_path, capsys):
        dpath = design_file(tmp_path, cubic_quadratic_optimum())
        target = tmp_path / "missing" / "x.json"
        rc = cli.main(["transform", dpath, "--offset", "2", "--matrix", "4",
                       "--output", str(target)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: {target}: ")
        assert not (tmp_path / "missing").exists()


class TestDesignFiles:
    @pytest.mark.parametrize("kind", NOT_DESIGNS)
    @pytest.mark.parametrize("command", ["transform", "verify"])
    def test_malformed_design_file_exits_1(self, tmp_path, capsys, command, kind):
        dpath = write(tmp_path / "design.json", NOT_DESIGNS[kind])
        if command == "transform":
            argv = ["transform", dpath, "--offset", "2", "--matrix", "4"]
        else:
            argv = ["verify", write(tmp_path / "cfg.yaml", BASE_MODEL), dpath,
                    "--output-dir", str(tmp_path / "out"), "--quiet"]
        rc = cli.main(argv)
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {dpath}: not a valid design file")


    @pytest.mark.parametrize("weights", ["[NaN]", "[NaN, 1.0]"])
    @pytest.mark.parametrize("command", ["transform", "verify"])
    def test_non_finite_weight_exits_1_and_names_the_file(self, tmp_path, capsys,
                                                          command, weights):
        points = "[[0.0]]" if weights == "[NaN]" else "[[0.0], [0.5]]"
        dpath = write(tmp_path / "design.json",
                      '{"space": {"lower": [-1], "upper": [1]}, "points": '
                      f'{points}, "weights": {weights}}}')
        if command == "transform":
            argv = ["transform", dpath, "--offset", "2", "--matrix", "4"]
        else:
            argv = ["verify", write(tmp_path / "cfg.yaml", BASE_MODEL), dpath,
                    "--output-dir", str(tmp_path / "out"), "--quiet"]
        rc = cli.main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {dpath}: ") and "non-finite weight" in err


class TestUsageErrors:
    def test_missing_flag_exits_1(self, tmp_path, capsys):
        # not 2, which is the exit code of an exhausted iteration budget
        dpath = design_file(tmp_path, cubic_quadratic_optimum())
        assert cli.main(["transform", dpath, "--matrix", "4"]) == 1
        assert "--offset" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.main(["run", "--help"]) == 0
        assert "usage: kl-design run" in capsys.readouterr().out


class TestBenchmarkCommand:
    def test_list_prints_fixture_names(self, capsys):
        rc = cli.main(["benchmark", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "benchmark-optimum" in out
        assert "cli-determinism" in out

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        def failing(ctx):
            return CheckResult("always fails", False, 0.0)

        monkeypatch.setattr(benchmarks, "ALL_CHECKS", (("failing", failing),))
        assert cli.main(["benchmark", "--quiet"]) == 1
        assert "0/1 checks passed" in capsys.readouterr().out

    def test_cheap_fixture_passes(self):
        rc = cli.main(["benchmark", "--only", "discontinuity-gap", "--quiet"])
        assert rc == 0

    def test_output_dir_under_a_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "some_file").write_text("")
        out = tmp_path / "some_file" / "sub"
        rc = cli.main(["benchmark", "--only", "singular-logistic", "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: {out}: ")

    def test_unknown_fixture_rejected(self, capsys):
        rc = cli.main(["benchmark", "--only", "nope"])
        assert rc == 1
        assert "unknown fixture" in capsys.readouterr().err

"""Run-configuration files for the command-line front end.

Configs are YAML with nested sections (see demos/configs/ for annotated
examples). Parsing is strict: unknown keys, non-finite numbers, missing
files and invalid designs are reported with the offending field path.
"""

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .algorithm import AlgoConfig, RegularizationConfig
from .designs import Design, DesignSpace, validate_design
from .errors import ConfigError
from .inner import InnerConfig
from .models import GaussianRegressionPair, LogisticGlmPair, ModelPair, ParamBox

MODEL_KINDS = ("gaussian-regression", "logistic-glm")


@dataclass
class RunSetup:
    """Everything a run or verification needs, parsed and validated."""

    pair: ModelPair
    space: DesignSpace
    initial_design: Design | None
    algo: AlgoConfig
    inner: InnerConfig
    reg: RegularizationConfig | None
    output_dir: Path


def _section(data, key: str, path: str, required: bool = True):
    value = data.get(key)
    if value is None:
        if required:
            raise ConfigError(f"{path or key}: missing required section '{key}'")
        return None
    if not isinstance(value, dict):
        raise ConfigError(f"{path + '.' if path else ''}{key}: expected a mapping")
    return value


def _to_float(value, path: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{path}: value must be finite, got {out}")
    return out


def _to_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _float_list(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return [_to_float(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _param_box(section, path: str) -> ParamBox:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a mapping with 'lower' and 'upper'")
    lower = _float_list(section.get("lower"), f"{path}.lower")
    upper = _float_list(section.get("upper"), f"{path}.upper")
    try:
        return ParamBox(lower, upper)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _check_keys(section: dict, allowed: set[str], path: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")


def _build_pair(section: dict) -> ModelPair:
    kind = section.get("kind")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind: expected one of {MODEL_KINDS}, got {kind!r}")
    box = _param_box(_section(section, "beta2_box", "model"), "model.beta2_box")
    beta1 = _float_list(section.get("beta1"), "model.beta1")
    exponents = section.get("rival_exponents")
    if not isinstance(exponents, (list, tuple)) or not exponents:
        raise ConfigError("model.rival_exponents: expected a non-empty list of "
                          f"monomial exponents, got {exponents!r}")
    exponents = [_to_int(e, f"model.rival_exponents[{i}]") for i, e in enumerate(exponents)]
    try:
        if kind == "gaussian-regression":
            _check_keys(section, {"kind", "beta1", "sigma2", "rival_exponents",
                                  "beta2_box"}, "model")
            sigma2 = _to_float(section.get("sigma2", 0.5), "model.sigma2")
            return GaussianRegressionPair(beta1, exponents, box, sigma2)
        _check_keys(section, {"kind", "beta1", "rival_exponents", "beta2_box"}, "model")
        return LogisticGlmPair(beta1, exponents, box)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None


def _build_space(section: dict) -> DesignSpace:
    lower = _float_list(section.get("lower"), "space.lower")
    upper = _float_list(section.get("upper"), "space.upper")
    try:
        return DesignSpace(lower, upper)
    except ValueError as exc:
        raise ConfigError(f"space: {exc}") from None


def _check_design(design: Design, space: DesignSpace, path) -> Design:
    report = validate_design(design, space)
    if not report.ok:
        raise ConfigError("; ".join(f"{path}: {v}" for v in report.violations))
    return design


def load_design_file(path: Path) -> Design:
    """Read a design JSON file and check it against its own space."""
    if not path.exists():
        raise ConfigError(f"design file does not exist: {path}")
    try:
        data = json.loads(path.read_text())
        design = Design.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{path}: not a valid design file ({exc})") from None
    return _check_design(design, design.space, path)


def _build_design(value, space: DesignSpace, base_dir: Path, path: str) -> Design:
    if isinstance(value, str):
        design = load_design_file((base_dir / value).resolve())
    elif isinstance(value, dict):
        _check_keys(value, {"points", "weights"}, path)
        points = value.get("points")
        if not isinstance(points, (list, tuple)) or not points:
            raise ConfigError(f"{path}.points: expected a non-empty list")
        weights = _float_list(value.get("weights"), f"{path}.weights")
        try:
            design = Design(space, points, weights)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    else:
        raise ConfigError(f"{path}: expected a mapping or a file path")
    return _check_design(design, space, path)


def _build_config(cls, section, path: str):
    kwargs = {}
    if section:
        types = {f.name: f.type for f in fields(cls)}
        _check_keys(section, set(types), path)
        for key, raw in section.items():
            if raw is None:
                continue  # explicit null keeps the default
            if types[key] is int:
                kwargs[key] = _to_int(raw, f"{path}.{key}")
            else:
                kwargs[key] = _to_float(raw, f"{path}.{key}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_run_config(data: dict, base_dir: Path, *, output_dir_override=None) -> RunSetup:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(data, {"model", "space", "initial_design", "algorithm", "inner",
                       "regularization", "output_dir"}, "config")
    pair = _build_pair(_section(data, "model", ""))
    space = _build_space(_section(data, "space", ""))

    algo = _build_config(AlgoConfig, _section(data, "algorithm", "", required=False),
                         "algorithm")
    inner = _build_config(InnerConfig, _section(data, "inner", "", required=False),
                          "inner")

    initial = None
    if "initial_design" in data:
        initial = _build_design(data["initial_design"], space, base_dir,
                                "initial_design")

    reg = None
    reg_section = _section(data, "regularization", "", required=False)
    if reg_section is not None:
        _check_keys(reg_section, {"gamma", "xi_tilde"}, "regularization")
        gamma = _to_float(reg_section.get("gamma", 0.05), "regularization.gamma")
        xi_tilde = None
        if "xi_tilde" in reg_section and reg_section["xi_tilde"] is not None:
            xi_tilde = _build_design(reg_section["xi_tilde"], space, base_dir,
                                     "regularization.xi_tilde")
        try:
            reg = RegularizationConfig(gamma=gamma, xi_tilde=xi_tilde)
        except ValueError as exc:
            raise ConfigError(f"regularization: {exc}") from None

    key = data.get("output_dir", "kl-design-output")
    if not isinstance(key, str):
        raise ConfigError(f"output_dir: expected a path, got {key!r}")
    out = Path(output_dir_override or key)
    if not out.is_absolute():
        # the override is relative to the working directory, the key to the config
        out = ((Path.cwd() if output_dir_override else base_dir) / out).resolve()
    return RunSetup(pair=pair, space=space, initial_design=initial, algo=algo,
                    inner=inner, reg=reg, output_dir=out)


def load_run_config(path, *, output_dir_override=None) -> RunSetup:
    # imported here: `parse_run_config` on a dict needs no YAML parser
    import yaml
    cfg_path = Path(path)
    if not cfg_path.exists():
        raise ConfigError(f"config file does not exist: {cfg_path}")
    try:
        data = yaml.safe_load(cfg_path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{cfg_path}: invalid YAML ({exc})") from None
    return parse_run_config(data, cfg_path.parent,
                            output_dir_override=output_dir_override)

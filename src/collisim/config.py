"""Run and sweep configuration: JSON documents with strict validation.

Grammar (JSON object, all sections required unless noted):

    {
      "model":    {"omega_s": 1.0, "omega_a": 1.0, "beta": 1.0},
      "coupling": {"j": {"xx": 1.0, "yy": 0.5},        # or "ssc": {...}
                   "dt": 0.05, "scaling": "sqrt_dt"},
      "run":      {"n_collisions": 1000,
                   "rho0": "fig3",                      # named state,
                                                        # {"bloch": [x,y,z]}
                                                        # or {"theta": t, "phi": p}
                   "convergence_tol": 1e-10},           # optional
      "output":   {"path": "run.csv", "format": "csv",  # csv | json
                   "quantities": ["n", "t", ...]}       # optional subset
    }

"coupling.j" keys are two Pauli labels from {x,y,z}: "xx", "zy", ...;
missing entries are zero. "coupling.ssc" takes {"alpha", "gamma",
"magnitude"} instead of "j". The interaction is H_SA = sum J_lm
sigma_l sigma_m / sqrt(dt); "scaling" is optional and accepts only
"sqrt_dt" ("none" is rejected: its H_SA is that of j * sqrt(dt)).
"beta" accepts numbers or "inf"/"-inf".
Unknown keys anywhere are rejected with the offending key path.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .model import (NAMED_STATES, AncillaPrep, CouplingSpec, QubitHamiltonian,
                    SscAngles, bloch_state, pure_state, ssc_to_coupling)
from .engine import CollisionConfig


class ConfigError(ValueError):
    """Invalid configuration document; message names the offending key path."""


PAULI_PAIRS = tuple(a + b for a in "xyz" for b in "xyz")

# Frozen column set of a trajectory table (README documents each one).
RUN_COLUMNS = (
    "n", "t", "pop_e", "pop_g", "coh_re", "coh_im",
    "beta_eff", "coherence_l1", "ergotropy",
    "w", "q", "de_s", "ds", "sigma",
    "cum_w", "cum_q", "cum_sigma",
    "rate_w", "rate_q", "rate_sigma",
    "current_w", "current_q",
)


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing key {path}.{key}")


def _number(value: Any, path: str, allow_inf: bool = False) -> float:
    if isinstance(value, str) and allow_inf:
        if value in ("inf", "+inf"):
            return math.inf
        if value == "-inf":
            return -math.inf
        raise ConfigError(f"{path}: bad number {value!r}")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: integer beyond the float range") from None
    if not allow_inf and not math.isfinite(v):
        raise ConfigError(f"{path}: must be finite")
    return v


def _positive_int(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{path}: expected a positive integer")
    return value


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated run configuration: the physics as one CollisionConfig, the
    output settings, and `raw`, the source document."""

    collision: CollisionConfig
    out_path: str
    out_format: str
    quantities: tuple[str, ...]
    raw: dict = field(compare=False, repr=False, default_factory=dict)

    def serialize(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True)


def _parse_rho0(spec: Any, path: str) -> np.ndarray:
    if isinstance(spec, str):
        if spec not in NAMED_STATES:
            raise ConfigError(
                f"{path}: unknown named state {spec!r}; choose from {sorted(NAMED_STATES)}")
        return np.array(NAMED_STATES[spec])
    if isinstance(spec, dict):
        if "bloch" in spec:
            _require_keys(spec, {"bloch"}, {"bloch"}, path)
            v = spec["bloch"]
            if not (isinstance(v, list) and len(v) == 3):
                raise ConfigError(f"{path}.bloch: expected [x, y, z]")
            x, y, z = (_number(c, f"{path}.bloch[{i}]") for i, c in enumerate(v))
            try:
                return bloch_state(x, y, z)
            except ValueError as exc:
                raise ConfigError(f"{path}.bloch: {exc}") from exc
        if "theta" in spec:
            _require_keys(spec, {"theta", "phi"}, {"theta"}, path)
            return pure_state(_number(spec["theta"], f"{path}.theta"),
                              _number(spec.get("phi", 0.0), f"{path}.phi"))
        raise ConfigError(f"{path}: expected a named state, bloch vector, or angles")
    raise ConfigError(f"{path}: bad state specification {spec!r}")


def _parse_coupling(obj: Any, path: str) -> CouplingSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    _require_keys(obj, {"j", "ssc", "dt", "scaling"}, {"dt"}, path)
    dt = _number(obj["dt"], f"{path}.dt")
    if dt <= 0:
        raise ConfigError(f"{path}.dt: must be positive")
    if obj.get("scaling", "sqrt_dt") != "sqrt_dt":
        raise ConfigError(f"{path}.scaling: must be 'sqrt_dt', the only coupling scale;"
                          " the H_SA of 'none' is that of j * sqrt(dt)")
    if ("j" in obj) == ("ssc" in obj):
        raise ConfigError(f"{path}: give exactly one of 'j' or 'ssc'")
    if "j" in obj:
        jd = obj["j"]
        if not isinstance(jd, dict):
            raise ConfigError(f"{path}.j: expected an object of Pauli-pair keys")
        j = np.zeros((3, 3))
        for key, value in jd.items():
            if key not in PAULI_PAIRS:
                raise ConfigError(f"unknown key {path}.j.{key}")
            l, m = "xyz".index(key[0]), "xyz".index(key[1])
            j[l, m] = _number(value, f"{path}.j.{key}")
        return CouplingSpec(j, dt)
    sd = obj["ssc"]
    if not isinstance(sd, dict):
        raise ConfigError(f"{path}.ssc: expected an object")
    _require_keys(sd, {"alpha", "gamma", "magnitude"}, {"alpha", "gamma"}, f"{path}.ssc")
    try:
        angles = SscAngles(_number(sd["alpha"], f"{path}.ssc.alpha"),
                           _number(sd["gamma"], f"{path}.ssc.gamma"),
                           _number(sd.get("magnitude", 1.0), f"{path}.ssc.magnitude"))
    except ValueError as exc:
        raise ConfigError(f"{path}.ssc: {exc}") from exc
    return ssc_to_coupling(angles, dt)


def parse_run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object")
    _require_keys(doc, {"model", "coupling", "run", "output"},
                  {"model", "coupling", "run"}, "config")

    model = doc["model"]
    if not isinstance(model, dict):
        raise ConfigError("model: expected an object")
    _require_keys(model, {"omega_s", "omega_a", "beta"}, {"omega_s", "omega_a", "beta"},
                  "model")
    omega_s = _number(model["omega_s"], "model.omega_s")
    omega_a = _number(model["omega_a"], "model.omega_a")
    beta = _number(model["beta"], "model.beta", allow_inf=True)
    if omega_a == 0 and math.isinf(beta):
        raise ConfigError("model.beta: +-inf needs omega_a != 0 (no zero-temperature state)")

    coupling = _parse_coupling(doc["coupling"], "coupling")

    rn = doc["run"]
    if not isinstance(rn, dict):
        raise ConfigError("run: expected an object")
    _require_keys(rn, {"n_collisions", "rho0", "convergence_tol"},
                  {"n_collisions", "rho0"}, "run")
    n_collisions = _positive_int(rn["n_collisions"], "run.n_collisions")
    rho0 = _parse_rho0(rn["rho0"], "run.rho0")
    tol = _number(rn.get("convergence_tol", CollisionConfig.convergence_tol),
                  "run.convergence_tol")
    if tol <= 0:
        raise ConfigError("run.convergence_tol: must be positive")

    out = doc.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("output: expected an object")
    _require_keys(out, {"path", "format", "quantities"}, set(), "output")
    out_path = out.get("path", "run.csv")
    if not isinstance(out_path, str) or not out_path:
        raise ConfigError("output.path: expected a non-empty string")
    out_format = out.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError("output.format: must be 'csv' or 'json'")
    quantities = out.get("quantities", list(RUN_COLUMNS))
    if not isinstance(quantities, list) or not quantities:
        raise ConfigError("output.quantities: expected a non-empty list of column names")
    for q in quantities:
        if q not in RUN_COLUMNS:
            raise ConfigError(f"output.quantities: unknown quantity {q!r}")

    collision = CollisionConfig(
        hs=QubitHamiltonian(omega_s), ancilla=AncillaPrep(beta=beta, omega_a=omega_a),
        coupling=coupling, n_collisions=n_collisions, rho0=rho0, convergence_tol=tol)
    return RunConfig(collision=collision, out_path=out_path, out_format=out_format,
                     quantities=tuple(quantities), raw=doc)


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_run_config(doc)


@dataclass(frozen=True)
class SweepAxis:
    path: str
    values: tuple[float | int, ...]


@dataclass(frozen=True)
class SweepConfig:
    base: dict
    axes: tuple[SweepAxis, ...]

    def points(self) -> list[dict]:
        """Cartesian product, the first axis slowest; each point is a config document."""
        points = []
        for values in itertools.product(*(axis.values for axis in self.axes)):
            doc = copy.deepcopy(self.base)
            for axis, value in zip(self.axes, values):
                _set_path(doc, axis.path, value)
            points.append(doc)
        return points


def _set_path(doc: dict, path: str, value: Any) -> None:
    keys = path.split(".")
    node = doc
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            node[key] = {}
        node = node[key]
    node[keys[-1]] = value


def parse_sweep_config(doc: dict) -> SweepConfig:
    if not isinstance(doc, dict):
        raise ConfigError("sweep root: expected an object")
    _require_keys(doc, {"base", "axes", "cap"}, {"base", "axes"}, "sweep")
    base = doc["base"]
    parse_run_config(base)  # validate the base eagerly
    axes_doc = doc["axes"]
    if not isinstance(axes_doc, list) or not axes_doc:
        raise ConfigError("sweep.axes: expected a non-empty list")
    axes = []
    for i, ax in enumerate(axes_doc):
        path = f"sweep.axes[{i}]"
        if not isinstance(ax, dict):
            raise ConfigError(f"{path}: expected an object")
        _require_keys(ax, {"path", "values", "start", "stop", "steps"}, {"path"}, path)
        if not isinstance(ax["path"], str):
            raise ConfigError(f"{path}.path: expected a string")
        if "values" in ax:
            if not isinstance(ax["values"], list) or not ax["values"]:
                raise ConfigError(f"{path}.values: expected a non-empty list")
            for k, v in enumerate(ax["values"]):
                _number(v, f"{path}.values[{k}]")  # integers pass through as-is
            values = tuple(ax["values"])
        else:
            for key in ("start", "stop", "steps"):
                if key not in ax:
                    raise ConfigError(f"missing key {path}.{key}")
            steps = _positive_int(ax["steps"], f"{path}.steps")
            values = tuple(np.linspace(_number(ax["start"], f"{path}.start"),
                                       _number(ax["stop"], f"{path}.stop"), steps).tolist())
        # a bad path (a typo, or a key the base cannot take) is a config error
        probe = copy.deepcopy(base)
        _set_path(probe, ax["path"], values[0])
        parse_run_config(probe)
        axes.append(SweepAxis(path=ax["path"], values=values))
    cap = _positive_int(doc.get("cap", 10 ** 5), "sweep.cap")
    n_points = 1
    for axis in axes:
        n_points *= len(axis.values)
    if n_points > cap:
        raise ConfigError(f"sweep: {n_points} points exceed the cap {cap}")
    return SweepConfig(base=base, axes=tuple(axes))


def load_sweep_config(path: str) -> SweepConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read sweep config {path}: {exc}") from exc
    return parse_sweep_config(doc)

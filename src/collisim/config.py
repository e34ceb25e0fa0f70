"""Run and sweep configuration: JSON documents with strict validation.

The grammar is the tables RUN and SWEEP below (README's "Run config" and
"Sweep config" document each key). One walker over a table rejects unknown
keys, missing keys and non-objects, naming the key path, parses the leaves
and fills in the defaults; the checks that span leaves follow the walk.

A sweep parses one document per stack of points: its axis leaves hold
numpy arrays of the points' values, and its checks fail if any point
fails them. Array leaves are internal; the JSON grammar is unchanged.
"""

from __future__ import annotations

import copy
import functools
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


# Frozen column set of a trajectory table (README documents each one).
RUN_COLUMNS = (
    "n", "t", "pop_e", "pop_g", "coh_re", "coh_im",
    "beta_eff", "coherence_l1", "ergotropy",
    "w", "q", "de_s", "ds", "sigma",
    "cum_w", "cum_q", "cum_sigma",
    "rate_w", "rate_q", "rate_sigma",
    "current_w", "current_q",
)


# A leaf kind parses the value at a key path, or raises a ConfigError naming the path.

def _number(value: Any, path: str, allow_inf: bool = False) -> float:
    if isinstance(value, np.ndarray):
        return value.astype(float)   # a sweep's axis leaf: parse_sweep_config checked each value
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
    if math.isnan(v) or not (allow_inf or math.isfinite(v)):
        raise ConfigError(f"{path}: must be finite")
    return v


def _any(fails) -> bool:     # whether a check fails at the point, or at any point of a stack
    return fails if isinstance(fails, bool) else bool(fails.any())


def _positive_number(value: Any, path: str) -> float:
    v = _number(value, path)
    if _any(v <= 0):
        raise ConfigError(f"{path}: must be positive")
    return v


def _check(test, message: str):
    """The kind of the values that pass `test`, taken as they are."""
    def kind(value: Any, path: str) -> Any:
        if not test(value):
            raise ConfigError(f"{path}: {message}")
        return value
    return kind


_number_or_inf = functools.partial(_number, allow_inf=True)
_positive_int = _check(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                       "expected a positive integer")
_string = _check(lambda v: isinstance(v, str), "expected a string")
_nonempty_string = _check(lambda v: isinstance(v, str) and v != "", "expected a non-empty string")
_scaling = _check(lambda v: v == "sqrt_dt", "must be 'sqrt_dt', the only coupling scale;"
                  " the H_SA of 'none' is that of j * sqrt(dt)")
_format = _check(lambda v: v in ("csv", "json"), "must be 'csv' or 'json'")


def _columns(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of column names")
    for q in value:
        if q not in RUN_COLUMNS:
            raise ConfigError(f"{path}: unknown quantity {q!r}")
    return tuple(value)


def _coupling_matrix(value: Any, path: str) -> np.ndarray:
    """J from its Pauli-pair entries, broadcast over their stack axes; missing entries are zero."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object of Pauli-pair keys")
    entries = _walk(J_ENTRIES, value, path)
    j = np.zeros(np.broadcast(*entries.values()).shape + (3, 3))
    for key, v in entries.items():
        j[..., "xyz".index(key[0]), "xyz".index(key[1])] = v
    return j


def _ssc_angles(value: Any, path: str) -> SscAngles:
    angles = _walk(SSC_ANGLES, value, path)
    try:
        return SscAngles(**angles)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _bloch_state(value: Any, path: str) -> np.ndarray:
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError(f"{path}: expected [x, y, z]")
    x, y, z = (_number(c, f"{path}[{i}]") for i, c in enumerate(value))
    try:
        return bloch_state(x, y, z)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _state(spec: Any, path: str) -> np.ndarray:
    """The Bloch vector of a named state, {"bloch": [x, y, z]} or {"theta": t, "phi": p}."""
    if isinstance(spec, str):
        if spec not in NAMED_STATES:
            raise ConfigError(
                f"{path}: unknown named state {spec!r}; choose from {sorted(NAMED_STATES)}")
        return np.array(NAMED_STATES[spec])
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: bad state specification {spec!r}")
    if "bloch" in spec:
        return _walk(BLOCH_FORM, spec, path)["bloch"]
    if "theta" in spec:
        return pure_state(**_walk(ANGLE_FORM, spec, path))
    raise ConfigError(f"{path}: expected a named state, bloch vector, or angles")


def _number_list(value: Any, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    for k, v in enumerate(value):
        _number(v, f"{path}[{k}]")   # the raw values are kept: integers pass through as-is
    return tuple(value)


def _axes(value: Any, path: str) -> dict[str, tuple]:
    """Each axis path -> its values, in the order given."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    axes: dict = {}
    for i, ax in enumerate(value):
        where = f"{path}[{i}]"
        ax = _walk(AXIS, ax, where)
        if ax["path"] in axes:
            raise ConfigError(f"{where}.path: {ax['path']} is already an axis")
        if ("values" in ax) == any(key in ax for key in ("start", "stop", "steps")):
            raise ConfigError(f"{where}: give exactly one of 'values' or 'start'/'stop'/'steps'")
        for key in ("start", "stop", "steps"):
            if key not in ax and "values" not in ax:
                raise ConfigError(f"missing key {where}.{key}")
        axes[ax["path"]] = ax.get("values") or tuple(
            np.linspace(ax["start"], ax["stop"], ax["steps"]).tolist())
    return axes


# The grammar: each key maps to (leaf kind or sub-table, default). REQUIRED
# marks a key without a default and None an optional key without one; a
# leaf's default is its parsed value, and a sub-table's default is walked.

REQUIRED = object()

J_ENTRIES = {a + b: (_number, None) for a in "xyz" for b in "xyz"}
SSC_ANGLES = {"alpha": (_number, REQUIRED), "gamma": (_number, REQUIRED),
              "magnitude": (_number, 1.0)}
BLOCH_FORM = {"bloch": (_bloch_state, REQUIRED)}
ANGLE_FORM = {"theta": (_number, REQUIRED), "phi": (_number, 0.0)}

RUN = {
    "model": ({"omega_s": (_number, REQUIRED), "omega_a": (_number, REQUIRED),
               "beta": (_number_or_inf, REQUIRED)}, REQUIRED),
    "coupling": ({"dt": (_positive_number, REQUIRED), "scaling": (_scaling, "sqrt_dt"),
                  "j": (_coupling_matrix, None), "ssc": (_ssc_angles, None)}, REQUIRED),
    "run": ({"n_collisions": (_positive_int, REQUIRED), "rho0": (_state, REQUIRED),
             "convergence_tol": (_positive_number, CollisionConfig.convergence_tol)}, REQUIRED),
    "output": ({"path": (_nonempty_string, "run.csv"), "format": (_format, "csv"),
                "quantities": (_columns, RUN_COLUMNS)}, {}),
}

AXIS = {"path": (_string, REQUIRED), "values": (_number_list, None),
        "start": (_number, None), "stop": (_number, None), "steps": (_positive_int, None)}

SWEEP = {"base": (lambda doc, path: parse_run_config(doc), REQUIRED),   # a run config's paths
         "axes": (_axes, REQUIRED), "cap": (_positive_int, 10 ** 5)}


def _walk(table: dict, doc: Any, path: str, root: str = "") -> dict:
    """The leaves of `doc` parsed by `table`; the first fault raises: an unknown
    key, a missing key, then a bad leaf, in table order. Keys below `path` are
    named `path.key`, and a root document names itself `root` in its errors."""
    name = root or path
    if not isinstance(doc, dict):
        raise ConfigError(f"{root + ' root' if root else path}: expected an object")
    for key in doc:
        if key not in table:
            raise ConfigError(f"unknown key {name}.{key}")
    for key, (_, default) in table.items():
        if default is REQUIRED and key not in doc:
            raise ConfigError(f"missing key {name}.{key}")
    leaves = {}
    for key, (kind, default) in table.items():
        if key in doc or isinstance(kind, dict):
            value, at = doc.get(key, default), f"{path}.{key}" if path else key
            leaves[key] = _walk(kind, value, at) if isinstance(kind, dict) else kind(value, at)
        elif default is not None:
            leaves[key] = default
    return leaves


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


def parse_run_config(doc: dict) -> RunConfig:
    model, coupling, rn, out = _walk(RUN, doc, "", root="config").values()
    if _any((model["omega_a"] == 0) & (abs(model["beta"]) == math.inf)):
        raise ConfigError("model.beta: +-inf needs omega_a != 0 (no zero-temperature state)")
    if ("j" in coupling) == ("ssc" in coupling):
        raise ConfigError("coupling: give exactly one of 'j' or 'ssc'")
    spec = (CouplingSpec(coupling["j"], coupling["dt"]) if "j" in coupling
            else ssc_to_coupling(coupling["ssc"], coupling["dt"]))
    collision = CollisionConfig(
        hs=QubitHamiltonian(model["omega_s"]),
        ancilla=AncillaPrep(beta=model["beta"], omega_a=model["omega_a"]),
        coupling=spec, n_collisions=rn["n_collisions"], rho0=rn["rho0"],
        convergence_tol=rn["convergence_tol"])
    return RunConfig(collision=collision, out_path=out["path"], out_format=out["format"],
                     quantities=out["quantities"], raw=doc)


def _read(path: str, what: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_run_config(path: str) -> RunConfig:
    return parse_run_config(_read(path, "config"))


def cartesian_grid(*axes) -> list[np.ndarray]:
    """Flattened cartesian grid, the first axis slowest: the row order of sweeps and figures."""
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


@dataclass(frozen=True)
class SweepConfig:
    base: RunConfig     # its .raw is the document that the axes patch
    axes: dict[str, tuple[float | int, ...]]     # path -> values, the first axis slowest

    def points(self) -> list[np.ndarray]:
        """The grid of the axes' raw values: per axis, an object array over the points."""
        return cartesian_grid(*(np.array(values, dtype=object) for values in self.axes.values()))

    def stacks(self, grid: list[np.ndarray]) -> list[np.ndarray]:
        """The indices of the points that share a raw run.n_collisions (5.0 is
        not 5), one array per value in order of first appearance."""
        n = dict(zip(self.axes, grid)).get("run.n_collisions", [None] * len(grid[0]))
        groups: dict = {}
        for k, v in enumerate(n):
            groups.setdefault((type(v), v), []).append(k)
        return [np.array(points) for points in groups.values()]

    def stack_document(self, grid: list[np.ndarray], points: np.ndarray) -> dict:
        """The base with each axis leaf set to its values at the points of a
        stack; run.n_collisions, which they share, to its one raw value."""
        return _with_leaves(self.base.raw, {
            path: values[points][0] if path == "run.n_collisions" else values[points]
            for path, values in zip(self.axes, grid)})


def _with_leaves(doc: dict, leaves: dict[str, Any]) -> dict:
    """A copy of `doc` with the leaf at each dotted path set to its value."""
    doc = copy.deepcopy(doc)
    for path, value in leaves.items():
        *parents, leaf = path.split(".")
        node = doc
        for key in parents:
            node[key] = node[key] if isinstance(node.get(key), dict) else {}
            node = node[key]
        node[leaf] = value
    return doc


def parse_sweep_config(doc: dict) -> SweepConfig:
    leaves = _walk(SWEEP, doc, "sweep", root="sweep")
    sweep = SweepConfig(base=leaves["base"], axes=leaves["axes"])
    # one parse at the first grid point: a path typo exits 2 before anything runs
    first = {path: values[0] for path, values in sweep.axes.items()}
    parse_run_config(_with_leaves(sweep.base.raw, first))
    n_points = math.prod(len(values) for values in sweep.axes.values())
    if n_points > leaves["cap"]:
        raise ConfigError(f"sweep: {n_points} points exceed the cap {leaves['cap']}")
    return sweep


def load_sweep_config(path: str) -> SweepConfig:
    return parse_sweep_config(_read(path, "sweep config"))

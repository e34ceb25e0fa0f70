"""Sweeps at their edges: the exit code, the exact failures file, and each
surviving point's rows against its standalone `run`, byte for byte; axes
that exit 2; and one parse per stack of points."""

import copy
import json

import pytest

import collisim.cli as cli
import collisim.config as config
from collisim.cli import main
from collisim.config import parse_run_config

BASE = {"model": {"omega_s": 1.0, "omega_a": 1.0, "beta": 1.0},
        "coupling": {"j": {"xx": 1.0, "yy": 0.5}, "dt": 0.05},
        "run": {"n_collisions": 5, "rho0": "fig3"},
        "output": {"path": "out.csv", "format": "csv"}}
SSC_BASE = dict(BASE, coupling={"ssc": {"alpha": 0.3, "gamma": 0.4}, "dt": 0.05})

ALPHA_ERROR = "ConfigError: coupling.ssc: alpha must lie in [0, pi/2]"
N_ERROR = "ConfigError: run.n_collisions: expected a positive integer"


def _point_doc(base, paths, values):
    """The base with each axis value patched in at its dotted path."""
    doc = copy.deepcopy(base)
    for path, value in zip(paths, values):
        *parents, leaf = path.split(".")
        node = doc
        for key in parents:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[leaf] = value
    return doc


# (base, axes, exit code, failures as {point: error}); the failures file
# records each failing point's raw axis values
EDGE_SWEEPS = {
    "n_not_an_integer": (BASE, {"run.n_collisions": [5, 2.5]}, 3, {1: N_ERROR}),
    "n_integral_float": (BASE, {"run.n_collisions": [5, 5.0]}, 3, {1: N_ERROR}),
    "dt_negative": (BASE, {"coupling.dt": [0.05, -0.1]}, 3,
                    {1: "ConfigError: coupling.dt: must be positive"}),
    "tol_zero": (BASE, {"run.convergence_tol": [1e-10, 0]}, 3,
                 {1: "ConfigError: run.convergence_tol: must be positive"}),
    "ssc_alpha_out_of_range": (SSC_BASE, {"coupling.ssc.alpha": [0.1, 2.0, 0.5]}, 3,
                               {1: ALPHA_ERROR}),
    "theta_over_named_state": (BASE, {"run.rho0.theta": [0.1, 0.7]}, 0, {}),
    "theta_phi_over_named_state": (BASE, {"run.rho0.theta": [0.1, 0.7],
                                          "run.rho0.phi": [0.0, 1.5]}, 0, {}),
    "n_fastest": (BASE, {"model.beta": [0.5, 2.0], "run.n_collisions": [2, 3]}, 0, {}),
}


@pytest.mark.parametrize("name", sorted(EDGE_SWEEPS))
def test_edge_sweep_matches_standalone_runs(tmp_path, name):
    base, axes, code, errors = EDGE_SWEEPS[name]
    paths = list(axes)
    points = [()]
    for values in axes.values():
        points = [p + (v,) for p in points for v in values]
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(
        {"base": base, "axes": [{"path": p, "values": v} for p, v in axes.items()]}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(sweep_path), "--out", str(out)]) == code

    failures = out / "out_sweep_failures.json"
    if errors:
        expected = [{"point": k, "axes": dict(zip(paths, points[k])), "error": error}
                    for k, error in sorted(errors.items())]
        assert failures.read_text() == json.dumps(expected, indent=1, sort_keys=True) + "\n"
    else:
        assert not failures.exists()

    lines = (out / "out_sweep.csv").read_text().splitlines()
    rows = iter(lines[1:])
    for k, values in enumerate(points):
        if k in errors:
            continue
        doc = _point_doc(base, paths, values)
        run_path, run_out = tmp_path / f"run{k}.json", tmp_path / f"run{k}"
        run_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(run_path), "--out", str(run_out)]) == 0
        run_lines = (run_out / "out.csv").read_text().splitlines()
        assert lines[0] == ",".join(paths + [run_lines[0]])
        for run_line in run_lines[1:]:
            cells = next(rows).split(",", len(paths))
            assert cells[-1] == run_line
            assert [float(c) for c in cells[:-1]] == [float(v) for v in values]
    assert next(rows, None) is None


@pytest.mark.parametrize("axes, message", [
    ([{"path": "model.beta", "values": [1, 2]}, {"path": "model.beta", "values": [5]}],
     "sweep.axes[1].path: model.beta is already an axis"),
    ([{"path": "model.beta", "values": [1, 2], "start": 0, "stop": 1, "steps": 3}],
     "sweep.axes[0]: give exactly one of 'values' or 'start'/'stop'/'steps'"),
    ([{"path": "model.beta", "values": [1, 2], "steps": 3}],
     "sweep.axes[0]: give exactly one of 'values' or 'start'/'stop'/'steps'"),
    ([{"path": "model.beta"}],
     "sweep.axes[0]: give exactly one of 'values' or 'start'/'stop'/'steps'"),
    ([{"path": "model.beta", "start": 0, "stop": 1}], "missing key sweep.axes[0].steps"),
], ids=["duplicate_path", "values_and_range", "values_and_steps", "neither", "partial_range"])
def test_ambiguous_axes_exit_2(tmp_path, capsys, axes, message):
    # a second axis on one path would overwrite the first one's values, and a
    # range beside values would be dropped: both are config errors
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({"base": BASE, "axes": axes}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep_path), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


HUGE_N = 10 ** 15   # np.empty of this many collisions fails at once, without allocating
BETAS = [0.5, 1.0, 2.0]


# parses: the base once when the sweep is loaded, then one per stack of points
@pytest.mark.parametrize("n_values, parses, failed", [
    ([3, 4], 1 + 2, []),
    ([3], 1 + 1, []),
    # the failing stack alone is parsed again, once per point
    ([3, HUGE_N], 1 + 2 + 3, [3, 4, 5]),     # in the numerics
    ([3, 2.5], 1 + 2 + 3, [3, 4, 5]),        # by config error
    # a dict gives every axis in order: with run.n_collisions fastest, one stack per value
    ({"model.beta": BETAS, "run.n_collisions": [3, 4]}, 1 + 2, []),
    ({"model.beta": BETAS, "run.n_collisions": [3, 2.5]}, 1 + 2 + 3, [1, 3, 5]),
])
def test_sweep_parses_once_per_stack(tmp_path, monkeypatch, n_values, parses, failed):
    calls = []

    def counted(doc):
        calls.append(doc)
        return parse_run_config(doc)
    monkeypatch.setattr(cli, "parse_run_config", counted)
    monkeypatch.setattr(config, "parse_run_config", counted)
    axes = n_values if isinstance(n_values, dict) else {
        "run.n_collisions": n_values, "model.beta": BETAS}
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({"base": BASE, "axes": [
        {"path": path, "values": values} for path, values in axes.items()]}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep_path), "--out", str(out)]) == (3 if failed else 0)
    # the base is parsed first, then the probe at the first grid point; the command
    # reuses the parsed base and parses nothing else but its stacks
    assert calls[0] == BASE
    assert calls[1] == _point_doc(BASE, list(axes), [values[0] for values in axes.values()])
    assert len(calls) == 1 + parses
    if failed:
        failures = json.loads((out / "out_sweep_failures.json").read_text())
        assert [f["point"] for f in failures] == failed


@pytest.mark.parametrize("n_axes", [1, 3])
def test_loading_a_sweep_parses_the_base_and_its_first_point(monkeypatch, n_axes):
    calls = []

    def counted(doc):
        calls.append(doc)
        return parse_run_config(doc)
    monkeypatch.setattr(config, "parse_run_config", counted)
    axes = {"model.beta": BETAS, "coupling.j.yy": [0.0, 1.0], "run.n_collisions": [3, 4]}
    sweep = config.parse_sweep_config({"base": BASE, "axes": [
        {"path": path, "values": values} for path, values in list(axes.items())[:n_axes]]})
    assert calls[0] is sweep.base.raw
    # the probe: the base at the first grid point
    assert len(calls) == 2 and calls[1] == _point_doc(
        BASE, list(sweep.axes), [values[0] for values in sweep.axes.values()])

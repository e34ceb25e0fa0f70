"""The benchmark's tracing spans (perfbench/spans.py) wrap collisim functions
by name; a refactor that drops or renames one of those names fails here."""

import importlib.util
import json
import os

import collisim.cli
import collisim.engine
from collisim.cli import main

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_spans_install_and_trace_a_run(tmp_path):
    spans = _load_spans()
    doc = {"model": {"omega_s": 1.0, "omega_a": 1.0, "beta": 1.0},
           "coupling": {"j": {"xx": 1.0, "yy": 0.5}, "dt": 0.05},
           "run": {"n_collisions": 20, "rho0": "fig3"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    tracer = spans.Tracer(str(tmp_path / "workers"))
    try:
        spans.install(tracer)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    finally:
        tracer.unpatch()
    assert collisim.cli.run is collisim.engine.run
    stats = tracer.stats
    for label in ("cli.run", "config.parse_run_config", "cli.trajectory_rows", "engine.run",
                  "engine.collision_map_superoperator", "model.collision_unitary",
                  "thermo.ledger_record", "thermo.currents", "observables.row",
                  "cli.write_table"):
        assert stats[label]["calls"] >= 1, label
    assert stats["engine.run"]["collisions"] == 20
    assert stats["cli.trajectory_rows"]["rows"] == 21
    # one joint unitary per trajectory drives both the map and the ledger
    assert stats["model.collision_unitary"]["calls"] == 1


def test_benchmark_spans_trace_a_figure_command(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer(str(tmp_path / "workers"))
    try:
        spans.install(tracer)
        assert main(["fig5", "--out", str(tmp_path)]) == 0
    finally:
        tracer.unpatch()
    assert collisim.cli.propagate_collisions is collisim.engine.propagate_collisions
    stats = tracer.stats
    for label in ("cli.fig5", "engine.collision_map_superoperator", "cli.write_table"):
        assert stats[label]["calls"] >= 1, label
    # the coherence grid is one stacked propagation
    assert stats["engine.propagate_collisions"]["calls"] == 1
    assert stats["cli.write_table"]["rows"] == 5 * 65 + 4 * 1001


def test_benchmark_spans_trace_a_sweep(tmp_path):
    spans = _load_spans()
    n = 10
    doc = {"base": {"model": {"omega_s": 1.0, "omega_a": 1.0, "beta": 1.0},
                    "coupling": {"j": {"xx": 1.0, "yy": 0.0}, "dt": 0.05},
                    "run": {"n_collisions": n, "rho0": "fig3"},
                    "output": {"path": "sweep.csv", "format": "csv"}},
           "axes": [{"path": "model.beta", "values": [0.5, 2.0]},
                    {"path": "coupling.j.yy", "values": [-1.0, 1.0]}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(doc))
    tracer = spans.Tracer(str(tmp_path / "workers"))
    try:
        spans.install(tracer)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--parallel", "2"]) == 0
    finally:
        tracer.unpatch()
    stats = tracer.stats
    for label in ("cli.sweep", "config.sweep_points", "config.parse_run_config",
                  "cli.trajectory_rows", "engine.run"):
        assert stats[label]["calls"] >= 1, label
    assert stats["cli.write_table"]["rows"] == 2 * 2 * (n + 1)


def test_benchmark_spans_trace_a_steady(tmp_path):
    spans = _load_spans()
    doc = {"model": {"omega_s": 1.0, "omega_a": 1.0, "beta": 1.0},
           "coupling": {"j": {"xx": 1.0, "yy": 0.5}, "dt": 0.05},
           "run": {"n_collisions": 20, "rho0": "fig3"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    tracer = spans.Tracer(str(tmp_path / "workers"))
    try:
        spans.install(tracer)
        assert main(["steady", "--config", str(cfg_path), "--method", "both",
                     "--out", str(tmp_path)]) == 0
    finally:
        tracer.unpatch()
    assert collisim.cli.steady_state_by_iteration is collisim.engine.steady_state_by_iteration
    stats = tracer.stats
    assert stats["cli.steady"]["calls"] == 1
    assert stats["engine.steady_state_by_iteration"]["calls"] == 1
    assert stats["engine.steady_state_by_iteration"]["failed"] == 0
    assert stats["lindblad.steady_state_of"]["calls"] == 1
    # one report per method: the iteration's through observables, the
    # kernel's through the binding in lindblad; both under one label
    assert stats["observables.make_report"]["calls"] == 2
    assert stats["linalg.clamp_to_density"]["calls"] == 2

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

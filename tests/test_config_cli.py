import copy
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collisim
from collisim.cli import WRITE_BATCH, cmd_sweep, main, write_table
from collisim.config import (RUN_COLUMNS, ConfigError, parse_run_config,
                             parse_sweep_config)


def base_doc(**overrides):
    doc = {
        "model": {"omega_s": 1.0, "omega_a": 1.0, "beta": 1.0},
        "coupling": {"j": {"xx": 1.0, "yy": 1.0}, "dt": 0.05, "scaling": "sqrt_dt"},
        "run": {"n_collisions": 20, "rho0": "fig3"},
        "output": {"path": "out.csv", "format": "csv"},
    }
    for key, value in overrides.items():
        doc[key] = value
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ------------------------------------------------------------- config layer

def test_config_roundtrip():
    doc = base_doc()
    cfg = parse_run_config(doc)
    again = parse_run_config(json.loads(cfg.serialize()))
    assert again.collision.hs == cfg.collision.hs
    assert again.collision.ancilla.beta == cfg.collision.ancilla.beta
    assert np.array_equal(again.collision.coupling.j, cfg.collision.coupling.j)
    assert np.array_equal(again.collision.rho0, cfg.collision.rho0)
    assert again.quantities == cfg.quantities
    assert again.serialize() == cfg.serialize()


def test_unknown_keys_rejected_with_path():
    doc = base_doc()
    doc["coupling"]["j"]["xw"] = 1.0
    with pytest.raises(ConfigError, match=r"coupling\.j\.xw"):
        parse_run_config(doc)
    doc2 = base_doc()
    doc2["model"]["extra"] = 1
    with pytest.raises(ConfigError, match=r"model\.extra"):
        parse_run_config(doc2)
    doc3 = base_doc()
    doc3["run"]["n_steps"] = 5
    with pytest.raises(ConfigError, match=r"run\.n_steps"):
        parse_run_config(doc3)


def test_bloch_vector_norm_checked():
    doc = base_doc()
    doc["run"]["rho0"] = {"bloch": [0.8, 0.8, 0.8]}
    with pytest.raises(ConfigError, match="norm"):
        parse_run_config(doc)
    doc["run"]["rho0"] = {"bloch": [0.0, 0.0, 1.0]}
    cfg = parse_run_config(doc)
    # run.rho0 is carried as its Bloch vector: all weight on |e>
    assert np.array_equal(cfg.collision.rho0, [0.0, 0.0, 1.0])


def test_ssc_coupling_in_config():
    doc = base_doc()
    doc["coupling"] = {"ssc": {"alpha": 0.0, "gamma": np.pi / 4,
                               "magnitude": np.sqrt(2)}, "dt": 0.05}
    cfg = parse_run_config(doc)
    assert cfg.collision.coupling.j[0, 0] == pytest.approx(1.0)
    assert cfg.collision.coupling.j[1, 1] == pytest.approx(1.0)


def test_ssc_leaf_error_names_its_path_once():
    doc = base_doc()
    doc["coupling"] = {"ssc": {"alpha": "a", "gamma": 0.0}, "dt": 0.05}
    with pytest.raises(ConfigError) as caught:
        parse_run_config(doc)
    assert str(caught.value) == "coupling.ssc.alpha: expected a number, got 'a'"


def test_missing_key_message_does_not_depend_on_the_hash_seed():
    # a document that lacks several keys names the first in table order; these
    # seeds named three different keys when the keys were checked as a set
    src = os.path.dirname(os.path.dirname(os.path.abspath(collisim.__file__)))
    code = ("import json, sys\n"
            "from collisim.config import ConfigError, parse_run_config, parse_sweep_config\n"
            "for parse, doc in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        (parse_sweep_config if parse == 'sweep' else parse_run_config)(doc)\n"
            "    except ConfigError as exc:\n"
            "        print(exc)\n")
    docs = json.dumps([("run", base_doc(model={})), ("run", {}), ("sweep", {})])
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", code, docs], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.splitlines() == [
            "missing key model.omega_s", "missing key config.model", "missing key sweep.base"]


def test_coupling_requires_exactly_one_spec():
    doc = base_doc()
    doc["coupling"] = {"j": {"xx": 1.0}, "ssc": {"alpha": 0, "gamma": 0},
                       "dt": 0.05}
    with pytest.raises(ConfigError, match="exactly one"):
        parse_run_config(doc)


def test_infinite_beta_accepted_as_string():
    doc = base_doc()
    doc["model"]["beta"] = "inf"
    assert parse_run_config(doc).collision.ancilla.beta == np.inf


def test_unknown_quantity_rejected():
    doc = base_doc()
    doc["output"]["quantities"] = ["n", "t", "purity"]
    with pytest.raises(ConfigError, match="purity"):
        parse_run_config(doc)


def test_sweep_cap_enforced():
    doc = {"base": base_doc(),
           "axes": [{"path": "model.beta", "start": 1, "stop": 9, "steps": 200},
                    {"path": "coupling.j.yy", "start": 0, "stop": 1, "steps": 200}],
           "cap": 1000}
    with pytest.raises(ConfigError, match="cap"):
        parse_sweep_config(doc)


@pytest.mark.parametrize("key, value, message", [
    ("parallel", 0, "sweep.parallel"),
    ("parallel", 1.5, "sweep.parallel"),
    ("parallel", True, "sweep.parallel"),
    ("parallel", 1, "sweep.parallel"),
    ("cap", 0, "sweep.cap: expected a positive integer"),
    ("cap", "10", "sweep.cap: expected a positive integer"),
    ("cap", True, "sweep.cap: expected a positive integer"),
    ("cap", 1, "sweep: 2 points exceed the cap 1"),
    ("steps", True, "sweep.axes[0].steps: expected a positive integer"),
    ("steps", 0, "sweep.axes[0].steps: expected a positive integer")])
def test_sweep_parallel_and_cap_keys_validated_with_exit_2(tmp_path, capsys, key, value, message):
    doc = {"base": base_doc(), "axes": [{"path": "model.beta", "values": [1.0, 2.0]}]}
    if key == "steps":
        doc["axes"][0] = {"path": "model.beta", "start": 1.0, "stop": 2.0, "steps": value}
    else:
        doc[key] = value
    if key == "parallel":
        # the key is gone: every value, valid or not, is an unknown key
        message = f"unknown key {message}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_sweep_config(doc)
    sweep_path = write_config(tmp_path, doc, "sweep.json")
    assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_sweep_points_cartesian_order(tmp_path):
    doc = {"base": base_doc(),
           "axes": [{"path": "model.beta", "values": [1.0, 2.0]},
                    {"path": "coupling.j.yy", "values": [0.0, 0.5, 1.0]},
                    {"path": "run.n_collisions", "values": [3, 4]}]}
    sweep = parse_sweep_config(doc)
    grid = sweep.points()
    assert [len(axis) for axis in grid] == [12] * 3
    # the first axis slowest, the order of the axis columns and failure indices
    beta, j_yy, n = (axis.tolist() for axis in grid)
    assert beta == [1.0] * 6 + [2.0] * 6
    assert j_yy == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0] * 2
    assert n == [3, 4] * 6
    # n is the fastest axis, yet the points of each n make one stack
    assert [points.tolist() for points in sweep.stacks(grid)] == [
        list(range(0, 12, 2)), list(range(1, 12, 2))]
    # a sweep patches copies of the base, which stays as it was
    base = copy.deepcopy(doc["base"])
    assert cmd_sweep(sweep, str(tmp_path))[1] == 0
    assert sweep.base.raw == doc["base"] == base


# ---------------------------------------------------------------- run + CLI

def reference_fmt(x) -> str:
    """The per-cell writer's format: ints as integers, floats with 17
    significant digits in scientific notation, strings as they are."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return f"{float(x):.16e}"


def reference_write(path, columns, rows, out_format):
    """The per-cell writer that write_table must match byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        if out_format == "csv":
            fh.write(",".join(columns) + "\n")
            fh.write("".join(",".join(reference_fmt(v) for v in row) + "\n" for row in rows))
        else:
            json.dump({"columns": columns,
                       "rows": [[reference_fmt(v) for v in row] for row in rows]}, fh, indent=1)
            fh.write("\n")


EDGE_FLOATS = [math.pi, math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
               2.2250738585072014e-308 / 3, 1e300, -1e300, 1e-300, -1e-300]
CELLS = {
    "int": (np.int64, st.integers(-2 ** 63, 2 ** 63 - 1) | st.just(0)),
    "float": (np.float64, st.floats() | st.sampled_from(EDGE_FLOATS)),
    "str": ("U8", st.text(string.ascii_letters, max_size=8)),
}


@st.composite
def tables(draw):
    """A record array of int, float and str fields; each column cycles a drawn pool."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), max_size=4))
    n = draw(st.sampled_from([0, 1, WRITE_BATCH, WRITE_BATCH + 1]))
    table = np.empty(n, [(f"c{k}", CELLS[kind][0]) for k, kind in enumerate(kinds)])
    for k, kind in enumerate(kinds):
        dtype, cells = CELLS[kind]
        table[f"c{k}"] = np.resize(np.array(draw(st.lists(cells, min_size=1, max_size=20)), dtype), n)
    return table


LITERAL_CELLS = np.rec.fromarrays([[np.pi], [0], [math.inf]])


@settings(max_examples=80, deadline=None)
@given(table=tables(), out_format=st.sampled_from(["csv", "json"]))
@example(table=LITERAL_CELLS, out_format="csv")
@example(table=LITERAL_CELLS, out_format="json")
def test_write_table_matches_the_per_cell_writer(table, out_format):
    columns = [f"col{k}" for k in range(len(table.dtype))]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got"), os.path.join(tmp, "want")
        write_table(got, columns, table, out_format)
        reference_write(want, columns, table.tolist(), out_format)
        with open(got, "rb") as a, open(want, "rb") as b:
            assert a.read() == b.read()


def test_write_table_keeps_the_frozen_cell_format(tmp_path):
    path = tmp_path / "t.csv"
    write_table(str(path), ["pi", "zero", "inf"], LITERAL_CELLS, "csv")
    assert path.read_text() == "pi,zero,inf\n3.1415926535897931e+00,0,inf\n"


def test_cmd_run_deterministic_bytes(tmp_path):
    doc = base_doc()
    cfg_path = write_config(tmp_path, doc)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg_path, "--out", str(out_b)]) == 0
    assert (out_a / "out.csv").read_bytes() == (out_b / "out.csv").read_bytes()


def test_cmd_run_header_and_shape(tmp_path):
    cfg_path = write_config(tmp_path, base_doc())
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == ",".join(RUN_COLUMNS)
    assert len(lines) == 22  # header + n+1 states


def test_cmd_run_zero_coupling_constant_populations(tmp_path):
    doc = base_doc()
    doc["coupling"]["j"] = {}
    doc["run"] = {"n_collisions": 10, "rho0": {"bloch": [0.0, 0.0, 0.4]}}
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()[1:]
    pops = [float(line.split(",")[2]) for line in lines]
    assert all(p == pytest.approx(0.7, abs=1e-12) for p in pops)


def test_cmd_run_quantities_subset(tmp_path):
    doc = base_doc()
    doc["output"]["quantities"] = ["n", "t", "pop_e"]
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "n,t,pop_e"
    assert len(lines[1].split(",")) == 3


@pytest.mark.parametrize("quantities", [["t", "n", "t"]], ids=["repeated"])
def test_cmd_run_writes_repeated_or_no_quantities(tmp_path, quantities):
    doc = base_doc()
    assert main(["run", "--config", write_config(tmp_path, doc, "full.json"),
                 "--out", str(tmp_path)]) == 0
    full = (tmp_path / "out.csv").read_text().splitlines()
    doc["output"] = {"path": "subset.csv", "quantities": quantities}
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "subset.csv").read_text().splitlines()
    assert lines[0] == ",".join(quantities)
    assert len(lines) == len(full)
    idx = [RUN_COLUMNS.index(q) for q in quantities]
    for line, full_line in zip(lines[1:], full[1:]):
        cells = full_line.split(",")
        assert line == ",".join(cells[k] for k in idx)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("quantities", ["n", "pop_e", [], {"n": "t"}],
                         ids=["n", "pop_e", "empty", "object"])
def test_output_quantities_must_be_a_nonempty_list(tmp_path, capsys, quantities, command):
    # a string is not split into one-letter columns, and [] writes no table of blank lines
    doc = base_doc()
    doc["output"]["quantities"] = quantities
    if command == "sweep":
        doc = {"base": doc, "axes": [{"path": "model.beta", "values": [1.0, 2.0]}]}
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert ("output.quantities: expected a non-empty list of column names"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cmd_run_json_format(tmp_path):
    doc = base_doc()
    doc["output"]["format"] = "json"
    doc["output"]["path"] = "out.json"
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["columns"] == list(RUN_COLUMNS)
    assert len(payload["rows"]) == 21


def test_exit_code_2_on_bad_config(tmp_path):
    cfg_path = write_config(tmp_path, {"model": {}})
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--out", str(tmp_path)]) == 2


def test_scaling_none_exits_2_with_the_sqrt_dt_hint(tmp_path, capsys):
    # sqrt_dt is the only coupling scale: an absent key means it, and the
    # H_SA of "none" is that of j * sqrt(dt)
    absent = base_doc()
    del absent["coupling"]["scaling"]
    for doc in (absent, base_doc()):
        coupling = parse_run_config(doc).collision.coupling
        assert coupling.dt == 0.05 and coupling.j[0, 0] == 1.0
    doc = base_doc()
    doc["coupling"]["scaling"] = "none"
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: coupling.scaling" in err and "j * sqrt(dt)" in err
    assert not (tmp_path / "out.csv").exists()


def test_importing_the_package_and_cli_loads_no_scipy():
    # scipy is a test dependency only: the runtime needs numpy alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(collisim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import collisim, collisim.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["steady", "sweep"])
def test_integer_beyond_the_float_range_exits_2(tmp_path, capsys, command):
    # JSON integers are exact: one of 400 digits has no float
    doc, where = base_doc(), "model.beta"
    doc["model"]["beta"] = 10 ** 400
    if command == "sweep":
        doc, where = {"base": base_doc(), "axes": [
            {"path": "model.beta", "values": [1.0, 10 ** 400]}]}, "sweep.axes[0].values[1]"
    cfg_path = write_config(tmp_path, doc)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert f"config error: {where}: integer beyond the float range" in capsys.readouterr().err
    # past the digit limit of int(), json itself rejects the number
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc).replace("1" + "0" * 400, "1" * 5000))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "config error: cannot read" in capsys.readouterr().err


def test_exit_code_2_on_unwritable_path(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    cfg_path = write_config(tmp_path, base_doc())
    assert main(["run", "--config", cfg_path, "--out", str(blocker)]) == 2


@pytest.mark.parametrize("sub, errno", [("", 17), ("sub", 20)])
@pytest.mark.parametrize("command", ["run", "sweep", "fig3"])
def test_out_under_a_file_fails_before_any_compute(tmp_path, capsys, monkeypatch,
                                                  command, sub, errno):
    def computed(*args):
        raise AssertionError("computed before the --out check")
    monkeypatch.setattr("collisim.cli.trajectory_rows", computed)
    monkeypatch.setattr("collisim.cli.steady_state_of", computed)
    doc = base_doc()
    if command == "sweep":
        doc = {"base": doc, "axes": [{"path": "model.beta", "values": [1.0, 2.0]}]}
    argv = [command] + (["--config", write_config(tmp_path, doc)] if command != "fig3" else [])
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    out = blocker / sub if sub else blocker
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: [Errno {errno}] ")
    assert blocker.read_text() == "file, not a directory"


def test_exit_code_3_on_numerical_failure(tmp_path):
    # Hamiltonian-only dynamics from a coherent state precesses forever:
    # the iterated state has no limit
    doc = base_doc()
    doc["coupling"]["j"] = {}
    doc["run"]["rho0"] = "plus"
    cfg_path = write_config(tmp_path, doc)
    assert main(["steady", "--config", cfg_path, "--method", "iteration",
                 "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("command", ["run", "steady"])
def test_coupling_overflow_is_a_numerical_failure(tmp_path, capsys, command):
    # J_xx = 1e308 at dt = 0.05 overflows the sqrt_dt-scaled interaction (and
    # the rate matrix); at 1e200 the interaction is finite but J^2 overflows
    # the rate matrix and the current kernels: one line on stderr and exit 3,
    # no traceback, no warning
    for j_xx in (1e308, 1e200):
        doc = base_doc()
        doc["coupling"]["j"] = {"xx": j_xx}
        cfg_path = write_config(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == 3, j_xx
        assert caught == [], j_xx
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, j_xx


@pytest.mark.parametrize("command, j, code", [
    ("run", None, 2), ("run", {"xx": 1e200}, 3), ("steady", {"xx": 1e200}, 3),
], ids=["missing_config", "run_overflow", "steady_overflow"])
def test_a_failed_command_leaves_no_output_directory(tmp_path, command, j, code):
    # the output directory, parents included, is made at the first write
    cfg_path = str(tmp_path / "missing.json")
    if j is not None:
        cfg_path = write_config(tmp_path, base_doc(coupling={"j": j, "dt": 0.05}))
    out = tmp_path / "new" / "dir"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == code
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["run", "steady", "sweep"])
def test_nan_beta_exits_2(tmp_path, capsys, command):
    # JSON NaN is a number to json.load; like every other leaf, beta must not be one
    doc = base_doc(model={"omega_s": 1.0, "omega_a": 1.0, "beta": math.nan})
    if command == "sweep":
        doc = {"base": doc, "axes": [{"path": "model.omega_s", "values": [1.0, 2.0]}]}
    cfg_path = write_config(tmp_path, doc)
    assert "NaN" in (tmp_path / "cfg.json").read_text()
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: model.beta: must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("beta", ["inf", "-inf"])
@pytest.mark.parametrize("command", ["run", "steady"])
def test_zero_temperature_needs_a_nondegenerate_ancilla(tmp_path, capsys, command, beta):
    doc = base_doc(model={"omega_s": 1.0, "omega_a": 0.0, "beta": beta})
    with pytest.raises(ConfigError, match="omega_a"):
        parse_run_config(doc)
    cfg_path = write_config(tmp_path, doc)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert "config error: model.beta" in capsys.readouterr().err


def test_run_at_large_frequencies_keeps_ergotropy_round_off(tmp_path):
    # round-off in the ergotropy scales with the energy span of H_S: at
    # omega = 1e7 it reaches -1.9e-9, far below an absolute 1e-12 floor
    doc = base_doc(model={"omega_s": 1e7, "omega_a": 1e7, "beta": 0.3})
    doc["coupling"]["j"] = {"xx": 1.0, "yy": 0.5, "zy": 0.3}
    doc["run"] = {"n_collisions": 100, "rho0": "ground"}
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    i_ergo = lines[0].split(",").index("ergotropy")
    assert len(lines) == 102
    assert min(float(line.split(",")[i_ergo]) for line in lines[1:]) >= 0.0


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("COLLISIM_OUT", str(tmp_path / "envout"))
    cfg_path = write_config(tmp_path, base_doc())
    assert main(["run", "--config", cfg_path]) == 0
    assert (tmp_path / "envout" / "out.csv").exists()


# -------------------------------------------------------------------- steady

def test_cmd_steady_both_methods_agree(tmp_path):
    doc = base_doc()
    doc["run"]["n_collisions"] = 100
    cfg_path = write_config(tmp_path, doc)
    assert main(["steady", "--config", cfg_path, "--method", "both",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "out_steady.json").read_text())
    assert report["kernel"]["beta_eff"] == pytest.approx(1.0, abs=1e-6)
    assert report["iteration"]["beta_eff"] == pytest.approx(1.0, abs=1e-4)
    assert report["trace_distance"] < 1e-6
    assert not report["kernel"]["degenerate"]


def test_cmd_steady_builds_the_ancilla_state_once(tmp_path, monkeypatch):
    # the kernel and the iteration of one command share one thermal ancilla
    import collisim.model as model
    calls = []
    gibbs_state = model.gibbs_state

    def counted(*args):
        calls.append(args)
        return gibbs_state(*args)
    monkeypatch.setattr(model, "gibbs_state", counted)
    cfg_path = write_config(tmp_path, base_doc())
    assert main(["steady", "--config", cfg_path, "--method", "both",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_cmd_steady_off_resonant_renormalization(tmp_path):
    doc = base_doc()
    doc["model"] = {"omega_s": 2.0, "omega_a": 1.0, "beta": 1.0}
    cfg_path = write_config(tmp_path, doc)
    assert main(["steady", "--config", cfg_path, "--method", "kernel",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "out_steady.json").read_text())
    assert report["kernel"]["beta_eff"] == pytest.approx(0.5, abs=1e-3)


def test_cmd_steady_degenerate_notes_initial_state_dependence(tmp_path):
    doc = base_doc()
    doc["coupling"]["j"] = {"zy": 1.0}
    doc["run"]["rho0"] = {"bloch": [0.0, 0.0, 0.6]}
    cfg_path = write_config(tmp_path, doc)
    assert main(["steady", "--config", cfg_path, "--method", "kernel",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "out_steady.json").read_text())
    assert report["kernel"]["degenerate"]
    assert "initial-state dependent" in report["note"]
    assert report["iteration"]["pop_e"] == pytest.approx(0.8, abs=1e-6)


@pytest.mark.parametrize("method", ["kernel", "both"])
@pytest.mark.parametrize("j", [{"xx": 1.0}, {"xz": 1.0}, {"yy": 1.0}])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_degenerate_kernel_holds_the_maximally_mixed_projection(tmp_path, method, j, beta):
    # at omega_s = 0 a single x- or y-jump leaves I and that Pauli in the kernel
    doc = base_doc(model={"omega_s": 0.0, "omega_a": 1.0, "beta": beta})
    doc["coupling"]["j"] = j
    cfg_path = write_config(tmp_path, doc)
    assert main(["steady", "--config", cfg_path, "--method", method,
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "out_steady.json").read_text())
    assert report["kernel"]["degenerate"]
    assert np.allclose(report["kernel"]["rho_star"],
                       [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], atol=1e-12)
    assert "initial-state dependent" in report["note"]


# -------------------------------------------------------------------- sweep

def sweep_doc(axes, n=15):
    doc = {"base": base_doc(), "axes": axes}
    doc["base"]["run"]["n_collisions"] = n
    return doc


def test_single_point_sweep_matches_run(tmp_path):
    doc = sweep_doc([{"path": "model.beta", "values": [1.0]}])
    sweep_path = write_config(tmp_path, doc, "sweep.json")
    run_doc = doc["base"]
    run_path = write_config(tmp_path, run_doc, "run.json")
    assert main(["run", "--config", run_path, "--out", str(tmp_path)]) == 0
    assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path)]) == 0
    run_lines = (tmp_path / "out.csv").read_text().splitlines()
    sweep_lines = (tmp_path / "out_sweep.csv").read_text().splitlines()
    assert len(sweep_lines) == len(run_lines)
    # dropping the axis column restores the run rows byte-for-byte
    for run_line, sweep_line in zip(run_lines[1:], sweep_lines[1:]):
        assert sweep_line.split(",", 1)[1] == run_line


def test_sweep_parallel_is_byte_identical(tmp_path):
    doc = sweep_doc([{"path": "model.beta", "values": [1.0, 2.0, 3.0, 4.0]}])
    sweep_path = write_config(tmp_path, doc, "sweep.json")
    out1, out8 = tmp_path / "p1", tmp_path / "p8"
    assert main(["sweep", "--config", sweep_path, "--out", str(out1),
                 "--parallel", "1"]) == 0
    assert main(["sweep", "--config", sweep_path, "--out", str(out8),
                 "--parallel", "8"]) == 0
    assert (out1 / "out_sweep.csv").read_bytes() == (out8 / "out_sweep.csv").read_bytes()


def test_sweep_beta_eff_tracks_beta_for_energy_preserving(tmp_path):
    doc = sweep_doc([{"path": "model.beta", "values": [0.5, 1.0, 2.0]}], n=400)
    sweep_path = write_config(tmp_path, doc, "sweep.json")
    assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "out_sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    i_beta = header.index("model.beta")
    i_beta_eff = header.index("beta_eff")
    i_n = header.index("n")
    finals = [line.split(",") for line in lines[1:]
              if line.split(",")[i_n] == "400"]
    assert len(finals) == 3
    for row in finals:
        assert float(row[i_beta_eff]) == pytest.approx(float(row[i_beta]), abs=1e-4)


def test_sweep_failed_point_recorded_exit_3(tmp_path):
    doc = sweep_doc([{"path": "run.n_collisions", "values": [5, 0]}])
    sweep_path = write_config(tmp_path, doc, "sweep.json")
    assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path)]) == 3
    failures = json.loads((tmp_path / "out_sweep_failures.json").read_text())
    assert len(failures) == 1
    assert failures[0]["point"] == 1
    lines = (tmp_path / "out_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 6  # good point only: header + 5+1 states


# np.empty of this many collisions fails at once, without allocating
HUGE_N = 10 ** 15


def test_run_too_long_to_allocate_is_a_numerical_failure(tmp_path, capsys):
    doc = base_doc()
    doc["run"]["n_collisions"] = HUGE_N
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_sweep_point_too_long_to_allocate_fails_alone(tmp_path):
    doc = sweep_doc([{"path": "run.n_collisions", "values": [10, HUGE_N]}])
    sweep_path = write_config(tmp_path, doc, "sweep.json")
    assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path)]) == 3
    failures = json.loads((tmp_path / "out_sweep_failures.json").read_text())
    assert [f["point"] for f in failures] == [1]
    assert failures[0]["error"].startswith("MemoryError: ")
    lines = (tmp_path / "out_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 11     # the 10-collision point: header + 10+1 states


def test_sweep_point_with_overflowing_currents_fails_alone(tmp_path):
    doc = sweep_doc([{"path": "coupling.j.xx", "values": [1.0, 1e200, 0.5]}], n=5)
    sweep_path = write_config(tmp_path, doc, "sweep.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path)]) == 3
    assert caught == []
    failures = json.loads((tmp_path / "out_sweep_failures.json").read_text())
    assert [f["point"] for f in failures] == [1]
    assert failures[0]["error"] == "ValueError: current kernels are not finite (coupling overflow)"
    lines = (tmp_path / "out_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 6
    assert [line.split(",")[0] for line in lines[1:]] == (
        ["1.0000000000000000e+00"] * 6 + ["5.0000000000000000e-01"] * 6)


def test_sweep_point_with_a_degenerate_zero_temperature_ancilla_fails_alone(tmp_path):
    doc = sweep_doc([{"path": "model.omega_a", "values": [1.0, 0.0]}], n=5)
    doc["base"]["model"]["beta"] = "inf"
    sweep_path = write_config(tmp_path, doc, "sweep.json")
    assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path)]) == 3
    failures = json.loads((tmp_path / "out_sweep_failures.json").read_text())
    assert [f["point"] for f in failures] == [1]
    assert failures[0]["error"].startswith("ConfigError: model.beta")
    lines = (tmp_path / "out_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 6


def test_sweep_writes_the_selected_quantities(tmp_path):
    doc = sweep_doc([{"path": "model.beta", "values": [1.0, 2.0]}], n=4)
    doc["base"]["output"]["quantities"] = ["n", "t", "pop_e"]
    sweep_path = write_config(tmp_path, doc, "sweep.json")
    assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "out_sweep.csv").read_text().splitlines()
    assert lines[0] == "model.beta,n,t,pop_e"
    assert len(lines) == 1 + 2 * 5
    full = sweep_doc([{"path": "model.beta", "values": [1.0, 2.0]}], n=4)
    full["base"]["output"]["path"] = "full.csv"
    assert main(["sweep", "--config", write_config(tmp_path, full, "full.json"),
                 "--out", str(tmp_path)]) == 0
    full_lines = (tmp_path / "full_sweep.csv").read_text().splitlines()
    header = full_lines[0].split(",")
    idx = [header.index(c) for c in lines[0].split(",")]
    for line, full_line in zip(lines[1:], full_lines[1:]):
        cells = full_line.split(",")
        assert line == ",".join(cells[k] for k in idx)


@pytest.mark.parametrize("values, cells", [
    ([1, 3], ["1", "3"]),
    ([1, 2.5], ["1.0000000000000000e+00", "2.5000000000000000e+00"]),
    ([10 ** 20], ["1.0000000000000000e+20"]),
])
def test_sweep_axis_column_holds_ints_only_when_every_value_is_one(tmp_path, values, cells):
    doc = sweep_doc([{"path": "model.beta", "values": values}], n=2)
    assert main(["sweep", "--config", write_config(tmp_path, doc, "sweep.json"),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "out_sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [c for c in cells for _ in range(3)]


@pytest.mark.parametrize("out_format, text", [
    ("csv", "coupling.j.xx,n,t\n"),
    ("json", '{\n "columns": [\n  "coupling.j.xx",\n  "n",\n  "t"\n ],\n "rows": []\n}\n'),
], ids=["csv", "json"])
def test_sweep_with_every_point_failing_writes_an_empty_table(tmp_path, out_format, text):
    # the axis probe parses 1e308, then the collision unitary's eigh fails
    doc = sweep_doc([{"path": "coupling.j.xx", "values": [1e308]}], n=5)
    doc["base"]["output"]["quantities"] = ["n", "t"]
    assert main(["sweep", "--config", write_config(tmp_path, doc, "sweep.json"),
                 "--out", str(tmp_path), "--format", out_format]) == 3
    failures = json.loads((tmp_path / "out_sweep_failures.json").read_text())
    assert [f["point"] for f in failures] == [0]
    assert failures[0]["error"].startswith("LinAlgError")
    assert (tmp_path / f"out_sweep.{out_format}").read_text() == text


def test_sweep_axis_path_typo_is_config_error(tmp_path, capsys):
    doc = sweep_doc([{"path": "model.bta", "values": [1.0, 2.0]}])
    sweep_path = write_config(tmp_path, doc, "sweep.json")
    out = tmp_path / "out"
    assert main(["sweep", "--config", sweep_path, "--out", str(out)]) == 2
    assert "config error: unknown key model.bta" in capsys.readouterr().err
    assert not out.exists()


def test_record_joint_key_rejected(tmp_path):
    doc = base_doc()
    doc["run"]["record_joint"] = False
    with pytest.raises(ConfigError, match=r"run\.record_joint"):
        parse_run_config(doc)
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2

"""Structural checks on the canned figure-data commands."""

import csv
import json
import math
from collections import defaultdict

import numpy as np
import pytest

from collisim.cli import main


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_fig3a_curve_anchors(figure_outputs):
    rows = read_csv(figure_outputs["dir"] / "fig3a_beta_eff.csv")
    assert len(rows) == 61 * 5
    for row in rows:
        ratio = float(row["jy_over_jx"])
        val = float(row["beta_eff_over_beta"])
        if ratio == 1.0:
            assert val == pytest.approx(1.0, abs=1e-9)
        if ratio == 0.0:
            assert val == pytest.approx(0.0, abs=1e-9)
        if ratio == -0.5:
            assert val < 0  # inverted populations


def test_fig3_trajectory_files_have_full_columns(figure_outputs):
    rows = read_csv(figure_outputs["dir"] / "fig3_traj_ratio_+1.00.csv")
    assert len(rows) == 1001
    assert {"n", "t", "pop_e", "rate_q", "cum_sigma", "current_w"} <= set(rows[0])


def test_fig3_energy_preserving_trace_reaches_gibbs(figure_outputs):
    rows = read_csv(figure_outputs["dir"] / "fig3_traj_ratio_+1.00.csv")
    final = rows[-1]
    expected = (1 - np.tanh(0.5)) / 2
    assert float(final["pop_e"]) == pytest.approx(expected, abs=1e-4)
    assert float(final["beta_eff"]) == pytest.approx(1.0, abs=1e-4)


def test_fig5a_grid_shape(figure_outputs):
    rows = read_csv(figure_outputs["dir"] / "fig5a_coherence.csv")
    assert len(rows) == 65 * 5
    alphas = sorted({float(r["alpha"]) for r in rows})
    assert len(alphas) == 65
    assert alphas[0] == 0.0
    assert alphas[1] == pytest.approx(math.pi / 128)
    assert alphas[-1] == pytest.approx(math.pi / 2)


def test_fig5a_cold_curve_dominates_pointwise(figure_outputs):
    rows = read_csv(figure_outputs["dir"] / "fig5a_coherence.csv")
    curves = defaultdict(dict)
    for row in rows:
        curves[float(row["beta"])][float(row["alpha"])] = float(row["coherence_l1"])
    for alpha, c9 in curves[9.0].items():
        if 0 < alpha < math.pi / 2:  # interior grid
            assert c9 >= curves[1.0][alpha] - 1e-9


def test_ergotropy_slice_initial_state_dependence(figure_outputs):
    rows = read_csv(figure_outputs["dir"] / "ergotropy_slice_gamma0.csv")
    table = defaultdict(dict)
    for row in rows:
        if float(row["beta"]) == 1.0:
            table[float(row["alpha"])][row["rho0"]] = float(row["ergotropy"])
    for alpha, vals in table.items():
        split = vals["excited"] - vals["ground"]
        if alpha <= math.pi / 8 + 1e-12:
            assert abs(split) <= 1e-3
        if alpha >= 3 * math.pi / 8 - 1e-12 and alpha < math.pi / 2:
            assert split > 1e-3  # excited-start keeps more extractable work


def test_fig3_jx_only_cumulative_heat_slope(figure_outputs):
    # housekeeping regime: cumulative heat grows linearly with the derived
    # steady rate tanh(1/2)
    rows = read_csv(figure_outputs["dir"] / "fig3_traj_ratio_+0.00.csv")
    t0, q0 = float(rows[700]["t"]), float(rows[700]["cum_q"])
    t1, q1 = float(rows[1000]["t"]), float(rows[1000]["cum_q"])
    slope = (q1 - q0) / (t1 - t0)
    assert slope == pytest.approx(np.tanh(0.5), rel=0.02)


def test_figure_commands_stay_in_time_budget(figure_outputs):
    for name, elapsed in figure_outputs["timings"].items():
        assert elapsed < 300.0, f"{name} took {elapsed:.0f}s"


PANELS = [(f"fig3_traj_ratio_{ratio:+.2f}.csv", {"j": {"xx": 1.0, "yy": ratio}})
          for ratio in (-0.5, 0.0, 0.5, 1.0)] + [
          (f"fig5_traj_alpha_{label}.csv",
           {"ssc": {"alpha": k * math.pi / 8, "gamma": math.atan(0.5),
                    "magnitude": math.sqrt(1.25)}})
          for k, label in enumerate(("0", "pi8", "pi4", "3pi8"))]


@pytest.mark.parametrize("name, coupling", PANELS, ids=[name for name, _ in PANELS])
def test_figure_panel_equals_the_run_of_its_preset(figure_outputs, tmp_path, name, coupling):
    # the stacked panels of fig3 and fig5 against `run` at the documented preset
    doc = {"model": {"omega_s": 1.0, "omega_a": 1.0, "beta": 1.0},
           "coupling": dict(coupling, dt=0.05),
           "run": {"n_collisions": 1000, "rho0": "fig3"},
           "output": {"path": name}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / name).read_bytes() == (figure_outputs["dir"] / name).read_bytes()

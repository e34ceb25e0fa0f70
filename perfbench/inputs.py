"""Seeded inputs of the four workloads, as collisim config documents.

The same seed gives the same documents. Each workload has a fixed plan
(which families, sizes, formats and columns); the seed draws only the
numbers inside it, so every seed does the same amount of work.
"""

from __future__ import annotations

import math
import random

FAMILIES = ("diagonal", "energy_preserving", "ssc", "full")
NAMED_RHO0 = ("ground", "excited", "plus", "maximally_mixed", "fig3")
SUBSET_COLUMNS = ["n", "t", "pop_e", "pop_g", "coh_re", "coh_im", "w", "q",
                  "de_s", "sigma", "cum_q", "rate_q", "current_q"]

# trajectory: (family, n_collisions, format, format given as --format flag,
# subset columns, omega_s)
TRAJECTORY_PLAN = (
    ("diagonal", 10000, "csv", False, False, 1.0),
    ("energy_preserving", 1000, "json", True, False, 1.0),
    ("ssc", 1500, "csv", False, True, 1.0),
    ("full", 1000, "csv", False, False, 0.0),
    ("diagonal", 500, "json", False, True, 0.0),
    ("energy_preserving", 500, "csv", False, True, 0.0),
    ("ssc", 1000, "json", True, False, 0.0),
    ("full", 500, "json", False, True, 1.0),
)

STEADY_DTS = (0.01, 0.05, 0.1)
STEADY_PER_CELL = 16          # seeded configs per (family, dt)
# Slowly relaxing couplings that exhaust the 10^6-collision budget of
# steady_state_by_iteration today. Fixed, not seeded: they fail on every run.
STEADY_BUDGET_FAULT = (
    {"j": {"xx": 0.01, "yy": 0.005}},
    {"j": {"xx": 0.005, "yy": 0.002}},
    {"j": {"xx": 0.007, "yy": 0.007}},
    {"j": {"xx": 0.004, "yy": 0.004}},
    {"ssc": {"alpha": 0.7, "gamma": 0.4, "magnitude": 0.01}},
    {"ssc": {"alpha": 0.3, "gamma": -1.2, "magnitude": 0.006}},
    {"j": {"xx": 0.006, "xy": -0.003, "yy": 0.004, "zy": 0.002, "zz": 0.003}},
    {"j": {"xx": -0.004, "yz": 0.005, "yy": 0.006, "zx": 0.003}},
)
STEADY_FAULT_DT = 0.05

SWEEP_N = 30
SWEEP_RATIOS = {"start": -3.0, "stop": 3.0, "steps": 61}


def _rho0(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(NAMED_RHO0)
    if kind == 1:
        th, ph = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        s = rng.uniform(0.0, 1.0)
        return {"bloch": [s * math.sin(th) * math.cos(ph), s * math.sin(th) * math.sin(ph),
                          s * math.cos(th)]}
    return {"theta": rng.uniform(0, math.pi), "phi": rng.uniform(0, 2 * math.pi)}


def _coupling(rng: random.Random, family: str, lo: float, hi: float) -> dict:
    """Coupling section of one family with magnitude drawn from [lo, hi]."""
    m = rng.uniform(lo, hi)
    if family == "diagonal":
        th = rng.uniform(0, 2 * math.pi)
        return {"j": {"xx": m * math.cos(th), "yy": m * math.sin(th)}}
    if family == "energy_preserving":
        return {"j": {"xx": m / math.sqrt(2), "yy": m / math.sqrt(2)}}
    if family == "ssc":
        return {"ssc": {"alpha": rng.uniform(0.0, 1.2), "gamma": rng.uniform(-math.pi, math.pi),
                        "magnitude": m}}
    entries = {a + b: rng.gauss(0.0, 1.0) for a in "xyz" for b in "xyz"}
    norm = math.sqrt(sum(v * v for v in entries.values()))
    return {"j": {k: m * v / norm for k, v in entries.items()}}


def _doc(beta, coupling, dt, n, rho0, omega_s=1.0, output=None) -> dict:
    doc = {"model": {"omega_s": omega_s, "omega_a": 1.0, "beta": beta},
           "coupling": dict(coupling, dt=dt, scaling="sqrt_dt"),
           "run": {"n_collisions": n, "rho0": rho0}}
    if output is not None:
        doc["output"] = output
    return doc


def trajectory_inputs(seed: int) -> list[tuple[dict, list[str]]]:
    """(config document, extra CLI arguments) for each `run` op of a round."""
    rng = random.Random(f"trajectory:{seed}")
    ops = []
    for k, (family, n, fmt, flag, subset, omega_s) in enumerate(TRAJECTORY_PLAN):
        output = {"path": f"traj{k}.{fmt}"}
        if not flag:
            output["format"] = fmt
        if subset:
            output["quantities"] = SUBSET_COLUMNS
        doc = _doc(rng.uniform(0.2, 5.0), _coupling(rng, family, 0.2, 1.5),
                   rng.choice((0.01, 0.05, 0.1)), n, _rho0(rng), omega_s, output)
        ops.append((doc, ["--format", fmt] if flag else []))
    return ops


def steady_inputs(seed: int) -> list[tuple[dict, bool]]:
    """(config document, expected to exhaust the budget) for each `steady` op."""
    rng = random.Random(f"steady:{seed}")
    ops = []
    for family in FAMILIES:
        for dt in STEADY_DTS:
            # one magnitude per equal slice of [0.3, 1.5]: the iteration count
            # depends mostly on the magnitude, so every seed does similar work
            for k in range(STEADY_PER_CELL):
                lo = 0.3 + 1.2 * k / STEADY_PER_CELL
                coupling = _coupling(rng, family, lo, lo + 1.2 / STEADY_PER_CELL)
                ops.append((_doc(rng.uniform(0.2, 5.0), coupling, dt, 1000, _rho0(rng)), False))
    for coupling in STEADY_BUDGET_FAULT:
        ops.append((_doc(1.0, coupling, STEADY_FAULT_DT, 1000, "fig3"), True))
    rng.shuffle(ops)
    for k, (doc, _) in enumerate(ops):
        doc["output"] = {"path": f"s{k:03d}.json"}
    return ops


def sweep_input(seed: int) -> dict:
    """Two-axis sweep over beta (2 values) x J_y/J_x (61 values) at J_x = 1."""
    rng = random.Random(f"sweep:{seed}")
    betas = sorted(round(rng.uniform(0.2, 5.0), 6) for _ in range(2))
    base = _doc(betas[0], {"j": {"xx": 1.0, "yy": 0.0}}, rng.choice((0.05, 0.1)),
                SWEEP_N, _rho0(rng), output={"path": "sweep.csv", "format": "csv"})
    return {"base": base,
            "axes": [{"path": "model.beta", "values": betas},
                     dict(path="coupling.j.yy", **SWEEP_RATIOS)]}


# The figure commands take no input: their presets are fixed, so the seed
# does not change the figures workload.
FIGURE_COMMANDS = ("fig3", "fig5", "ergotropy-surface")

"""Command-line front end: runs, steady states, sweeps, figure data.

Subcommands: run, steady, sweep, fig3, fig5, ergotropy-surface. All output
is CSV (or JSON) written under --out, the COLLISIM_OUT environment variable,
or the working directory. Exit codes: 0 ok, 2 configuration error,
3 numerical failure.

Output is deterministic: identical configs give byte-identical files.
Every table is a NumPy record array; integer fields are written as
integers, floats in scientific notation with 17 significant digits and
strings as they are. The column sets are frozen and documented in README.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .config import (RUN_COLUMNS, ConfigError, RunConfig, SweepConfig, cartesian_grid,
                     load_run_config, load_sweep_config, parse_run_config)
from .engine import (CollisionConfig, NoSteadyStateError, propagate_collisions,
                     run, steady_state_by_iteration)
from .lindblad import steady_state_of
from .linalg import trace_distance
from .model import (FIG3_THETA, AncillaPrep, QubitHamiltonian,
                    SscAngles, diagonal_coupling, pure_state, ssc_to_coupling)
from .observables import SteadyStateReport, effective_beta, ergotropy, l1_coherence
from .thermo import current_evaluators

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

ENV_OUT_DIR = "COLLISIM_OUT"

# Rows formatted and written at a time: bounds the text held in memory.
WRITE_BATCH = 1000

# The printf conversion of a table field, by dtype kind.
CONVERSIONS = {"i": "%d", "u": "%d", "f": "%.16e", "U": "%s"}

# One record of a trajectory table: the collision index, then floats.
RUN_DTYPE = np.dtype([(name, np.int64 if name == "n" else np.float64) for name in RUN_COLUMNS])

# Documented figure presets (frequencies in units of omega_s = 1).
FIG_DT = 0.05
FIG_N = 1000
FIG3_RATIOS = (-0.5, 0.0, 0.5, 1.0)
FIG3_BETAS = (1.0, 3.0, 5.0, 7.0, 9.0)
FIG3A_RATIO_POINTS = 61
FIG5_GAMMA = math.atan(0.5)          # J_x = 2 J_y anchor
FIG5_MAGNITUDE = math.sqrt(1.25)     # J_x = 1 at alpha = 0
FIG5_ALPHAS = tuple(k * math.pi / 128 for k in range(65))
FIG5_PANEL_ALPHAS = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8)
ERGO_MAGNITUDE = 0.5
ERGO_ALPHAS = tuple(k * math.pi / 64 for k in range(33))
ERGO_GAMMAS = tuple(-math.pi / 2 + k * math.pi / 32 for k in range(33))


def write_table(path: str, columns: list[str], table: np.ndarray, out_format: str) -> None:
    """Write a record array under the header `columns`, one printf template per row.

    JSON holds each cell as a string, as `json.dump(doc, indent=1)` lays it
    out, so string fields must need no JSON escaping (state names).
    """
    convs = [CONVERSIONS[table.dtype[k].kind] for k in range(len(table.dtype))]
    if out_format == "csv":
        head, row, sep, tail = ",".join(columns) + "\n", ",".join(convs) + "\n", "", ""
    else:
        # the layout of json.dump(doc, indent=1), streamed row by row
        head, tail = json.dumps({"columns": columns, "rows": []}, indent=1).rsplit("[]", 1)
        head, tail = (head + "[\n", "\n ]" + tail) if len(table) else (head + "[]", tail)
        tail += "\n"
        row = "  [\n" + ",\n".join(f'   "{c}"' for c in convs) + "\n  ]" if convs else "  []"
        sep = ",\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for start in range(0, len(table), WRITE_BATCH):
            fh.write((sep if start else "") + sep.join(
                map(row.__mod__, table[start:start + WRITE_BATCH].tolist())))
        fh.write(tail)


def trajectory_rows(cfg: CollisionConfig) -> np.ndarray:
    """RUN_DTYPE records, one per recorded state, each trajectory of a stack in turn."""
    traj = run(cfg)
    r = traj.states
    z = r[..., 2]
    # the model scalars carry the config's stack axes: align them with time
    dt, omega = (np.asarray(x)[..., None] for x in (cfg.coupling.dt, cfg.hs.omega))
    # the current functionals carry the config's stack axes: put time first
    cur_w, cur_q = (np.moveaxis(c, 0, -1) for c in current_evaluators(
        cfg.coupling, cfg.hs, cfg.ancilla)(np.moveaxis(r, -2, 0)))
    # the ledger entry of the collision ending at each row; zeros on row 0
    w, q, de_s, ds, sigma = (np.pad(x, [(0, 0)] * (x.ndim - 1) + [(1, 0)]) for x in (
        traj.ledger.w, traj.ledger.q, traj.ledger.de_s, traj.ledger.ds, traj.ledger.sigma))
    n = np.arange(r.shape[-2])
    columns = [
        n, n * dt,
        # <e|rho|g> = (x - i y)/2; 0.0 - y writes no -0.0
        (1 + z) / 2, (1 - z) / 2, r[..., 0] / 2, (0.0 - r[..., 1]) / 2,
        effective_beta(r, omega), l1_coherence(r), ergotropy(r, omega),
        w, q, de_s, ds, sigma,
        np.cumsum(w, axis=-1), np.cumsum(q, axis=-1), np.cumsum(sigma, axis=-1),
        w / dt, q / dt, sigma / dt,
        cur_w, cur_q,
    ]
    table = np.empty(np.broadcast_shapes(*(np.shape(c) for c in columns)), RUN_DTYPE)
    for name, column in zip(RUN_COLUMNS, columns):
        table[name] = column
    return table.reshape(-1)


def _fields(table: np.ndarray, names) -> np.ndarray:
    """A view of the named fields of a record array, in order; names may repeat."""
    dt = table.dtype
    return table.view(np.dtype({"names": [f"f{k}" for k in range(len(names))],
                                "formats": [dt[name] for name in names],
                                "offsets": [dt.fields[name][1] for name in names],
                                "itemsize": dt.itemsize}))


def resolve_out_dir(arg_out: str | None) -> str:
    out = arg_out or os.environ.get(ENV_OUT_DIR) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _out_path(out_dir: str, name: str) -> str:
    return name if os.path.isabs(name) else os.path.join(out_dir, name)


def cmd_run(cfg: RunConfig, out_dir: str, out_format: str | None = None) -> str:
    """Write the trajectory table; returns the file path."""
    fmt_ = out_format or cfg.out_format
    table = _fields(trajectory_rows(cfg.collision), cfg.quantities)
    path = _out_path(out_dir, cfg.out_path)
    write_table(path, list(cfg.quantities), table, fmt_)
    return path


def report_to_dict(rep: SteadyStateReport) -> dict:
    """A one-point report as JSON values: floats, a bool, and null for a nan beta_eff."""
    # rho = [[p_e, (x - i y)/2], [(x + i y)/2, p_g]]; adding 0.0 writes no -0.0
    x, y, z = (rep.r_star + 0.0).tolist()
    pop_e, pop_g = (1 + z) / 2, (1 - z) / 2
    beta_eff = float(rep.beta_eff)
    return {
        "method": rep.method,
        "rho_star": [[[pop_e, 0.0], [x / 2, (0.0 - y) / 2]], [[x / 2, y / 2], [pop_g, 0.0]]],
        "pop_e": pop_e,
        "pop_g": pop_g,
        "beta_eff": None if math.isnan(beta_eff) else beta_eff,
        "coherence_l1": float(rep.coherence_l1),
        "ergotropy": float(rep.ergotropy),
        "residual": float(rep.residual),
        "degenerate": bool(rep.degenerate),
    }


def cmd_steady(cfg: RunConfig, method: str, out_dir: str) -> str:
    """Solve for the steady state and write a JSON report."""
    doc: dict = {"method": method}
    kernel_rep = iter_rep = None
    # one config, so both solves share one ancilla state
    collision = cfg.collision
    if method in ("kernel", "both"):
        kernel_rep = steady_state_of(collision.coupling, collision.hs, collision.ancilla)
        doc["kernel"] = report_to_dict(kernel_rep)
        if kernel_rep.degenerate:
            # non-unique family: the usable state depends on the initial
            # condition, so fall back to iterating from the configured rho0
            doc["note"] = "non-unique steady state; initial-state dependent"
    if method in ("iteration", "both") or "note" in doc:
        iter_rep = steady_state_by_iteration(collision)
        doc["iteration"] = report_to_dict(iter_rep)
    if kernel_rep is not None and iter_rep is not None:
        doc["trace_distance"] = float(trace_distance(kernel_rep.r_star, iter_rep.r_star))
    stem = os.path.splitext(os.path.basename(cfg.out_path))[0] or "steady"
    path = _out_path(out_dir, stem + "_steady.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def cmd_sweep(sweep: SweepConfig, out_dir: str,
              out_format: str | None = None) -> tuple[str, int]:
    """Evaluate all sweep points as stacks of trajectories; rows in axis order.

    The points of one run.n_collisions are parsed from one document and run as
    one stack of trajectories. Failed points emit no data rows; they are recorded
    with their error in a <output>_failures.json sidecar and make the command exit 3.
    """
    base_cfg = parse_run_config(sweep.base)
    fmt_ = out_format or base_cfg.out_format
    grid = sweep.points()
    results = [res for points in sweep.stacks(grid) for res in _stack_rows(sweep, grid, points)]
    results.sort(key=lambda res: res[0][0])     # a failed point comes alone: in point order
    failures = [{"point": int(points[0]), "error": res,
                 "axes": {path: values[points[0]] for path, values in zip(sweep.axes, grid)}}
                for points, res in results if isinstance(res, str)]
    tables = [(points, res) for points, res in results if not isinstance(res, str)]
    rows = np.zeros(len(grid[0]), int)      # of each point: none for a failed one
    for points, res in tables:
        rows[points] = len(res) // len(points)
    if len(tables) == 1:    # its points ascend and a failed point has no rows: grid order
        merged = tables[0][1]
    else:   # a point's rows follow one another in its stack's table: copy them to their place
        merged, first_row = np.empty(rows.sum(), RUN_DTYPE), np.cumsum(rows) - rows
        for points, res in tables:
            merged[(first_row[points, None] + np.arange(rows[points[0]])).ravel()] = res
    # an axis column holds integers only if all its values are ints (of int64 range)
    axes = (np.array(values.tolist()) for values in grid)
    table = np.rec.fromarrays([np.repeat(a.astype(float) if a.dtype == object else a, rows)
                               for a in axes] + [merged[q] for q in base_cfg.quantities])

    stem = os.path.splitext(os.path.basename(base_cfg.out_path))[0] or "sweep"
    path = _out_path(out_dir, stem + "_sweep." + ("csv" if fmt_ == "csv" else "json"))
    write_table(path, list(sweep.axes) + list(base_cfg.quantities), table, fmt_)
    if failures:
        fail_path = _out_path(out_dir, stem + "_sweep_failures.json")
        with open(fail_path, "w", encoding="utf-8") as fh:
            json.dump(failures, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return path, (EXIT_NUMERICAL if failures else EXIT_OK)


def _sweep_point_safe(doc: dict) -> CollisionConfig:
    """The stacked collision config of a sweep's stack document."""
    return parse_run_config(doc).collision


def _stack_rows(sweep: SweepConfig, grid: list[np.ndarray], points: np.ndarray) -> list:
    """[(points, the stack's trajectory table)]. A stack that fails, by config error or
    in the numerics, runs each point as a stack of one; a failing point gives its error."""
    try:
        cfg = _sweep_point_safe(sweep.stack_document(grid, points))
        # rho0 carries the stack axis, also where only run.n_collisions is an axis
        rho0 = np.broadcast_to(cfg.rho0, (len(points), 3))
        return [(points, trajectory_rows(dataclasses.replace(cfg, rho0=rho0)))]
    except (ValueError, np.linalg.LinAlgError, MemoryError) as exc:
        if len(points) == 1:
            return [(points, f"{type(exc).__name__}: {exc}")]
    return [res for point in points[:, None] for res in _stack_rows(sweep, grid, point)]


def _fig_run_config(coupling, beta, rho0: np.ndarray) -> CollisionConfig:
    """Preset run; stacked coupling, beta or rho0 make it a grid of runs."""
    return CollisionConfig(
        hs=QubitHamiltonian(1.0), ancilla=AncillaPrep(beta=beta, omega_a=1.0),
        coupling=coupling, n_collisions=FIG_N, rho0=rho0)


def cmd_fig3(out_dir: str) -> list[str]:
    """Effective-temperature curve and the four transient-current tables (one stacked run)."""
    paths = []
    beta, ratio = cartesian_grid(FIG3_BETAS, np.linspace(-3.0, 3.0, FIG3A_RATIO_POINTS))
    rep = steady_state_of(diagonal_coupling(1.0, ratio, FIG_DT), QubitHamiltonian(1.0),
                          AncillaPrep(beta=beta, omega_a=1.0))
    table = np.rec.fromarrays([beta, ratio, rep.beta_eff, rep.beta_eff / beta])
    path = _out_path(out_dir, "fig3a_beta_eff.csv")
    write_table(path, ["beta", "jy_over_jx", "beta_eff", "beta_eff_over_beta"], table, "csv")
    paths.append(path)

    coupling = diagonal_coupling(1.0, np.array(FIG3_RATIOS), FIG_DT)
    tables = trajectory_rows(_fig_run_config(coupling, 1.0, pure_state(FIG3_THETA)))
    for ratio, table in zip(FIG3_RATIOS, tables.reshape(len(FIG3_RATIOS), -1)):
        path = _out_path(out_dir, f"fig3_traj_ratio_{ratio:+.2f}.csv")
        write_table(path, list(RUN_COLUMNS), table, "csv")
        paths.append(path)
    return paths


def cmd_fig5(out_dir: str) -> list[str]:
    """Steady-state coherence vs alpha, and transient currents at beta = 1 (one stacked run)."""
    paths = []
    rho0 = pure_state(FIG3_THETA)
    beta, alpha = cartesian_grid(FIG3_BETAS, FIG5_ALPHAS)
    coupling = ssc_to_coupling(SscAngles(alpha, FIG5_GAMMA, FIG5_MAGNITUDE), FIG_DT)
    coherence = l1_coherence(propagate_collisions(_fig_run_config(coupling, beta, rho0), FIG_N))
    table = np.rec.fromarrays([beta, alpha, coherence])
    path = _out_path(out_dir, "fig5a_coherence.csv")
    write_table(path, ["beta", "alpha", "coherence_l1"], table, "csv")
    paths.append(path)

    coupling = ssc_to_coupling(SscAngles(np.array(FIG5_PANEL_ALPHAS), FIG5_GAMMA, FIG5_MAGNITUDE),
                               FIG_DT)
    tables = trajectory_rows(_fig_run_config(coupling, 1.0, rho0))
    labels = ("0", "pi8", "pi4", "3pi8")
    for label, table in zip(labels, tables.reshape(len(labels), -1)):
        path = _out_path(out_dir, f"fig5_traj_alpha_{label}.csv")
        write_table(path, list(RUN_COLUMNS), table, "csv")
        paths.append(path)
    return paths


def cmd_ergotropy_surface(out_dir: str) -> list[str]:
    """Ergotropy of the collision-protocol steady state over (alpha, gamma)."""
    names = np.array(["ground", "excited"])
    # one initial state per leading index, broadcast against the coupling grid
    rho0 = np.array([pure_state(math.pi / 2), pure_state(0.0)])[:, None]
    alpha, gamma = cartesian_grid(ERGO_ALPHAS, ERGO_GAMMAS)
    coupling = ssc_to_coupling(SscAngles(alpha, gamma, ERGO_MAGNITUDE), FIG_DT)
    ergo = ergotropy(propagate_collisions(_fig_run_config(coupling, 1.0, rho0), FIG_N), 1.0)
    table = np.rec.fromarrays([np.tile(alpha, len(names)), np.tile(gamma, len(names)),
                               np.repeat(names, alpha.size), ergo.ravel()])
    path = _out_path(out_dir, "ergotropy_surface.csv")
    write_table(path, ["alpha", "gamma", "rho0", "ergotropy"], table, "csv")
    paths = [path]

    # axes (beta, rho0, alpha), in the row order of the slice table
    coupling = ssc_to_coupling(SscAngles(np.array(ERGO_ALPHAS), 0.0, ERGO_MAGNITUDE), FIG_DT)
    cfg = _fig_run_config(coupling, np.array(FIG3_BETAS)[:, None, None], rho0)
    ergo = ergotropy(propagate_collisions(cfg, FIG_N), 1.0)
    beta, name, alpha = cartesian_grid(FIG3_BETAS, names, ERGO_ALPHAS)
    table = np.rec.fromarrays([beta, alpha, name, ergo.ravel()])
    path = _out_path(out_dir, "ergotropy_slice_gamma0.csv")
    write_table(path, ["beta", "alpha", "rho0", "ergotropy"], table, "csv")
    paths.append(path)
    return paths


# String cells go through write_table, and the per-row beta_eff through
# effective_beta; the old names stay bound because the benchmark's tracing
# spans (perfbench/spans.py) wrap them by name.
_write_mixed_table = write_table
_safe_beta_eff = effective_beta


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collisim",
        description="Qubit collision-model simulator with a thermodynamic ledger.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${ENV_OUT_DIR} or .)")

    p_run = sub.add_parser("run", help="simulate one trajectory")
    add_common(p_run)
    p_run.add_argument("--format", choices=["csv", "json"], default=None)

    p_steady = sub.add_parser("steady", help="solve for the steady state")
    add_common(p_steady)
    p_steady.add_argument("--method", choices=["kernel", "iteration", "both"],
                          default="both")

    p_sweep = sub.add_parser("sweep", help="cartesian parameter sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--format", choices=["csv", "json"], default=None)
    # accepted for existing invocations; sweeps run in one process
    p_sweep.add_argument("--parallel", type=int, default=None, help="no effect")

    for name, help_ in (("fig3", "effective temperature and current traces"),
                        ("fig5", "steady-state coherence and current traces"),
                        ("ergotropy-surface", "ergotropy over the coupling angles")):
        p = sub.add_parser(name, help=help_)
        add_common(p, config_required=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out_dir = resolve_out_dir(args.out)
        code = EXIT_OK
        if args.command == "run":
            paths = [cmd_run(load_run_config(args.config), out_dir, args.format)]
        elif args.command == "steady":
            paths = [cmd_steady(load_run_config(args.config), args.method, out_dir)]
        elif args.command == "sweep":
            path, code = cmd_sweep(load_sweep_config(args.config), out_dir, args.format)
            paths = [path]
        else:
            paths = {"fig3": cmd_fig3, "fig5": cmd_fig5,
                     "ergotropy-surface": cmd_ergotropy_surface}[args.command](out_dir)
        for path in paths:
            print(path)
        return code
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoSteadyStateError, ValueError, np.linalg.LinAlgError, MemoryError) as exc:
        # the failures a sweep records per point (NotAStateError is a ValueError;
        # a MemoryError is a run.n_collisions too large to allocate)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

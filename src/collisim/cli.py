"""Command-line front end: runs, steady states, sweeps, figure data.

Subcommands: run, steady, sweep, fig3, fig5, ergotropy-surface. All output
is CSV (or JSON) written under --out, the COLLISIM_OUT environment variable,
or the working directory. Exit codes: 0 ok, 2 configuration error,
3 numerical failure.

Output is deterministic: identical configs give byte-identical files, for
any parallelism. Floats are formatted in scientific notation with 17
significant digits; the column sets are frozen and documented in README.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import (RUN_COLUMNS, ConfigError, RunConfig, SweepConfig,
                     load_run_config, load_sweep_config, parse_run_config)
from .engine import (CollisionConfig, NoSteadyStateError, propagate_collisions,
                     run, steady_state_by_iteration)
from .lindblad import steady_state_of
from .linalg import NotAStateError, trace_distance
from .model import (FIG3_THETA, AncillaPrep, QubitHamiltonian, SscAngles,
                    diagonal_coupling, pure_state, ssc_to_coupling)
from .observables import SteadyStateReport, ergotropy, l1_coherence
from .thermo import current_evaluators

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

ENV_OUT_DIR = "COLLISIM_OUT"

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


def fmt(x) -> str:
    """Frozen float format: 17 significant digits, scientific notation.

    Integers are written as integers and strings (state names) as they are.
    """
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return f"{float(x):.16e}"


def write_table(path: str, columns: list[str], rows: list[list], out_format: str) -> None:
    if out_format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        doc = {"columns": columns,
               "rows": [[fmt(v) for v in row] for row in rows]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def _safe_beta_eff(rhos: np.ndarray, omega_s: float) -> np.ndarray:
    """Per-row population log-ratio ln(p_g/p_e)/omega_s of a stack of states.

    +inf where p_e vanishes, -inf where p_g does, nan for omega_s = 0.
    """
    p_e, p_g = rhos[:, 0, 0].real, rhos[:, 1, 1].real
    if omega_s == 0:
        return np.full(len(rhos), math.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(p_g / p_e) / omega_s
    return np.where(p_e <= 0, math.inf, np.where(p_g <= 0, -math.inf, out))


def trajectory_rows(cfg: CollisionConfig) -> list[list]:
    """One row per recorded state, in the frozen RUN_COLUMNS order."""
    traj = run(cfg)
    rhos = traj.states
    dt = cfg.coupling.dt
    cur_w, cur_q = current_evaluators(cfg.coupling, cfg.hs, cfg.ancilla)(rhos)
    # the ledger entry of the collision ending at each row; zeros on row 0
    w, q, de_s, ds, sigma = (np.concatenate(([0.0], getattr(traj.ledger, key)))
                             for key in ("w", "q", "de_s", "ds", "sigma"))
    columns = [
        np.arange(len(rhos)) * dt,
        rhos[:, 0, 0].real, rhos[:, 1, 1].real, rhos[:, 0, 1].real, rhos[:, 0, 1].imag,
        _safe_beta_eff(rhos, cfg.hs.omega), l1_coherence(rhos),
        ergotropy(rhos, cfg.hs.matrix()),
        w, q, de_s, ds, sigma,
        np.cumsum(w), np.cumsum(q), np.cumsum(sigma),
        w / dt, q / dt, sigma / dt,
        cur_w, cur_q,
    ]
    rows = np.column_stack(columns).tolist()
    for i, row in enumerate(rows):
        row.insert(0, i)
    return rows


def _select_columns(rows: list[list], quantities: tuple[str, ...]) -> list[list]:
    if tuple(quantities) == RUN_COLUMNS:
        return rows
    idx = [RUN_COLUMNS.index(q) for q in quantities]
    return [[row[k] for k in idx] for row in rows]


def resolve_out_dir(arg_out: str | None) -> str:
    out = arg_out or os.environ.get(ENV_OUT_DIR) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _out_path(out_dir: str, name: str) -> str:
    return name if os.path.isabs(name) else os.path.join(out_dir, name)


def cmd_run(cfg: RunConfig, out_dir: str, out_format: str | None = None) -> str:
    """Write the trajectory table; returns the file path."""
    fmt_ = out_format or cfg.out_format
    rows = _select_columns(trajectory_rows(cfg.collision_config()), cfg.quantities)
    path = _out_path(out_dir, cfg.out_path)
    write_table(path, list(cfg.quantities), rows, fmt_)
    return path


def report_to_dict(rep: SteadyStateReport) -> dict:
    rho = rep.rho_star
    return {
        "method": rep.method,
        "rho_star": [[[rho[r, c].real, rho[r, c].imag] for c in range(2)] for r in range(2)],
        "pop_e": rho[0, 0].real,
        "pop_g": rho[1, 1].real,
        "beta_eff": rep.beta_eff,
        "coherence_l1": rep.coherence_l1,
        "ergotropy": rep.ergotropy,
        "residual": rep.residual,
        "degenerate": rep.degenerate,
    }


def cmd_steady(cfg: RunConfig, method: str, out_dir: str) -> str:
    """Solve for the steady state and write a JSON report."""
    doc: dict = {"method": method}
    kernel_rep = iter_rep = None
    if method in ("kernel", "both"):
        kernel_rep = steady_state_of(cfg.coupling, cfg.hs(), cfg.ancilla())
        doc["kernel"] = report_to_dict(kernel_rep)
        if kernel_rep.degenerate:
            # non-unique family: the usable state depends on the initial
            # condition, so fall back to iterating from the configured rho0
            doc["note"] = "non-unique steady state; initial-state dependent"
            iter_rep = steady_state_by_iteration(cfg.collision_config())
            doc["iteration"] = report_to_dict(iter_rep)
    if method in ("iteration", "both") and iter_rep is None:
        iter_rep = steady_state_by_iteration(cfg.collision_config())
        doc["iteration"] = report_to_dict(iter_rep)
    if kernel_rep is not None and iter_rep is not None:
        doc["trace_distance"] = trace_distance(kernel_rep.rho_star, iter_rep.rho_star)
    stem = os.path.splitext(os.path.basename(cfg.out_path))[0] or "steady"
    path = _out_path(out_dir, stem + "_steady.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _evaluate_sweep_point(doc: dict) -> list[list]:
    """Worker: full trajectory rows of one sweep point."""
    return trajectory_rows(parse_run_config(doc).collision_config())


def cmd_sweep(sweep: SweepConfig, parallel: int | None, out_dir: str,
              out_format: str | None = None) -> tuple[str, int]:
    """Evaluate all sweep points; merge rows in axis order.

    Failed points emit no data rows; they are recorded with their error in a
    <output>_failures.json sidecar and make the command exit 3.
    """
    base_cfg = parse_run_config(sweep.base)
    fmt_ = out_format or base_cfg.out_format
    points = sweep.points()
    n_workers = parallel or sweep.parallel
    results: list = [None] * len(points)
    failures: list[dict] = []

    if n_workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            for i, res in enumerate(pool.map(_sweep_point_safe, points)):
                results[i] = res
    else:
        for i, doc in enumerate(points):
            results[i] = _sweep_point_safe(doc)

    axis_paths = [ax.path for ax in sweep.axes]
    columns = axis_paths + list(RUN_COLUMNS)
    merged: list[list] = []
    for i, (doc, res) in enumerate(zip(points, results)):
        axis_values = [_get_path(doc, p) for p in axis_paths]
        if isinstance(res, str):
            failures.append({"point": i,
                             "axes": dict(zip(axis_paths, axis_values)),
                             "error": res})
            continue
        for row in res:
            merged.append(axis_values + row)

    stem = os.path.splitext(os.path.basename(base_cfg.out_path))[0] or "sweep"
    path = _out_path(out_dir, stem + "_sweep." + ("csv" if fmt_ == "csv" else "json"))
    write_table(path, columns, merged, fmt_)
    if failures:
        fail_path = _out_path(out_dir, stem + "_sweep_failures.json")
        with open(fail_path, "w", encoding="utf-8") as fh:
            json.dump(failures, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return path, (EXIT_NUMERICAL if failures else EXIT_OK)


def _sweep_point_safe(doc: dict):
    try:
        return _evaluate_sweep_point(doc)
    except (ConfigError, NoSteadyStateError, NotAStateError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _get_path(doc: dict, path: str):
    node = doc
    for key in path.split("."):
        node = node[key]
    return node


def _fig_run_config(coupling, beta: float, rho0: np.ndarray) -> CollisionConfig:
    return CollisionConfig(
        hs=QubitHamiltonian(1.0), ancilla=AncillaPrep(beta=beta, omega_a=1.0),
        coupling=coupling, n_collisions=FIG_N, rho0=rho0)


def cmd_fig3(out_dir: str) -> list[str]:
    """Effective-temperature curve and the four transient-current tables."""
    paths = []
    hs = QubitHamiltonian(1.0)
    ratios = np.linspace(-3.0, 3.0, FIG3A_RATIO_POINTS)
    rows = []
    for beta in FIG3_BETAS:
        ancilla = AncillaPrep(beta=beta, omega_a=1.0)
        for ratio in ratios:
            rep = steady_state_of(diagonal_coupling(1.0, float(ratio), FIG_DT), hs, ancilla)
            rows.append([beta, float(ratio), rep.beta_eff, rep.beta_eff / beta])
    path = _out_path(out_dir, "fig3a_beta_eff.csv")
    write_table(path, ["beta", "jy_over_jx", "beta_eff", "beta_eff_over_beta"], rows, "csv")
    paths.append(path)

    rho0 = pure_state(FIG3_THETA)
    for ratio in FIG3_RATIOS:
        coupling = diagonal_coupling(1.0, ratio, FIG_DT)
        rows = trajectory_rows(_fig_run_config(coupling, 1.0, rho0))
        path = _out_path(out_dir, f"fig3_traj_ratio_{ratio:+.2f}.csv")
        write_table(path, list(RUN_COLUMNS), rows, "csv")
        paths.append(path)
    return paths


def cmd_fig5(out_dir: str) -> list[str]:
    """Steady-state coherence vs alpha, and transient currents at beta = 1."""
    paths = []
    rho0 = pure_state(FIG3_THETA)
    rows = []
    for beta in FIG3_BETAS:
        for alpha in FIG5_ALPHAS:
            coupling = ssc_to_coupling(SscAngles(alpha, FIG5_GAMMA, FIG5_MAGNITUDE), FIG_DT)
            cfg = _fig_run_config(coupling, beta, rho0)
            rows.append([beta, alpha, l1_coherence(propagate_collisions(cfg, FIG_N))])
    path = _out_path(out_dir, "fig5a_coherence.csv")
    write_table(path, ["beta", "alpha", "coherence_l1"], rows, "csv")
    paths.append(path)

    labels = ("0", "pi8", "pi4", "3pi8")
    for alpha, label in zip(FIG5_PANEL_ALPHAS, labels):
        coupling = ssc_to_coupling(SscAngles(alpha, FIG5_GAMMA, FIG5_MAGNITUDE), FIG_DT)
        rows = trajectory_rows(_fig_run_config(coupling, 1.0, rho0))
        path = _out_path(out_dir, f"fig5_traj_alpha_{label}.csv")
        write_table(path, list(RUN_COLUMNS), rows, "csv")
        paths.append(path)
    return paths


def cmd_ergotropy_surface(out_dir: str) -> list[str]:
    """Ergotropy of the collision-protocol steady state over (alpha, gamma)."""
    hs = QubitHamiltonian(1.0)
    h_s = hs.matrix()
    states = {"ground": pure_state(math.pi / 2), "excited": pure_state(0.0)}
    rows = []
    for name, rho0 in states.items():
        for alpha in ERGO_ALPHAS:
            for gamma in ERGO_GAMMAS:
                coupling = ssc_to_coupling(SscAngles(alpha, gamma, ERGO_MAGNITUDE), FIG_DT)
                cfg = _fig_run_config(coupling, 1.0, rho0)
                rows.append([alpha, gamma, name,
                             ergotropy(propagate_collisions(cfg, FIG_N), h_s)])
    path = _out_path(out_dir, "ergotropy_surface.csv")
    write_table(path, ["alpha", "gamma", "rho0", "ergotropy"], rows, "csv")
    paths = [path]

    rows = []
    for beta in FIG3_BETAS:
        for name, rho0 in states.items():
            for alpha in ERGO_ALPHAS:
                coupling = ssc_to_coupling(SscAngles(alpha, 0.0, ERGO_MAGNITUDE), FIG_DT)
                cfg = _fig_run_config(coupling, beta, rho0)
                rows.append([beta, alpha, name,
                             ergotropy(propagate_collisions(cfg, FIG_N), h_s)])
    path = _out_path(out_dir, "ergotropy_slice_gamma0.csv")
    write_table(path, ["beta", "alpha", "rho0", "ergotropy"], rows, "csv")
    paths.append(path)
    return paths


# String cells go through write_table; the old name stays bound because the
# benchmark's tracing spans (perfbench/spans.py) wrap it by name.
_write_mixed_table = write_table


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
    p_sweep.add_argument("--parallel", type=int, default=None)

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
        if args.command == "run":
            path = cmd_run(load_run_config(args.config), out_dir, args.format)
            print(path)
            return EXIT_OK
        if args.command == "steady":
            path = cmd_steady(load_run_config(args.config), args.method, out_dir)
            print(path)
            return EXIT_OK
        if args.command == "sweep":
            path, code = cmd_sweep(load_sweep_config(args.config), args.parallel,
                                   out_dir, args.format)
            print(path)
            return code
        if args.command == "fig3":
            for path in cmd_fig3(out_dir):
                print(path)
            return EXIT_OK
        if args.command == "fig5":
            for path in cmd_fig5(out_dir):
                print(path)
            return EXIT_OK
        if args.command == "ergotropy-surface":
            for path in cmd_ergotropy_surface(out_dir):
                print(path)
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoSteadyStateError, NotAStateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

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

# The failures that exit 3 and that a sweep records per point (NotAStateError and
# ConfigError are ValueErrors; a MemoryError is a run.n_collisions too large to allocate).
NUMERICAL_FAILURES = (NoSteadyStateError, ValueError, np.linalg.LinAlgError, MemoryError)

# Rows formatted and written at a time: bounds the bytes held in memory.
WRITE_BATCH = 256

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


@functools.cache
def _cell_tables():
    """The float kernel's tables: 10**(16 - e10) for e10 in [-292, 292] as hi, split in
    two 26-bit halves, plus lo (hi + lo exact to ~2**-106); then, as 4-byte words,
    b"\0-d." by lead digit d and sign, the 4-digit groups and b"e%+03d" by e10."""
    ratios = [(10 ** k, 1) if k >= 0 else (1, 10 ** -k) for k in range(308, -277, -1)]
    hi = np.array([p / q for p, q in ratios])
    lo = np.array([(p * den - num * q) / (q * den) for (p, q), (num, den)
                   in zip(ratios, map(float.as_integer_ratio, hi.tolist()))])
    m, ex = np.frexp(hi)
    c = m * 134217729.0     # Veltkamp split of the mantissa: c never overflows
    hh = np.ldexp(c - (c - m), ex)
    # a lead digit of 10 comes only with values that go through printf
    heads = np.array([b"\0%c%d." % (sign, d % 10) for sign in b"\0-" for d in range(11)])
    groups = np.array([b"%04d" % g for g in range(10000)])
    exps = np.array([b"e%+03d" % e for e in range(-292, 293)], "S8").view(np.uint32)
    return hh, hi - hh, lo, heads.view(np.uint32), groups.view(np.uint32), exps.reshape(-1, 2)


def _floats(x: np.ndarray) -> np.ndarray:
    """b"%.16e" % v of each float64 v, as rows of 28 NUL-padded bytes. A Dekker product
    scales |x| to y = |x| 10**(16 - e10), exact to ~1e-14, so the digits are floor(y) +
    (frac(y) > 0.5); values not so proved (0, inf, nan, |x| outside [1e-290, 1e290], frac(y)
    within 1e-6 of 0.5, floor(y) outside [1e16, 1e17)) go through printf once each."""
    hh, hl, lo, heads, groups, exps = _cell_tables()
    a = np.abs(x)
    fast = (a >= 1e-290) & (a <= 1e290)
    a = np.where(fast, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.intp) + 292
    hh, hl, lo = hh[e10], hl[e10], lo[e10]
    p = a * (hh + hl)
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo     # y = p + t, p integral
    frac = t - np.floor(t)
    q = p.astype(np.int64) + np.floor(t).astype(np.int64)
    d = q + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > 1e-6) & (q >= 10 ** 16) & (d < 10 ** 17)
    lead, d = np.divmod(d, 10 ** 16)
    out = np.empty((len(x), 7), np.uint32)
    out[:, 0] = heads[lead + 11 * (x < 0)]
    high, low = np.divmod(d, 10 ** 8)
    out[:, 1:5] = groups[np.stack(np.divmod(high, 10 ** 4) + np.divmod(low, 10 ** 4), 1)]
    out[:, 5:] = exps[e10]
    bits, inverse = np.unique(x[~fast].view(np.int64), return_inverse=True)
    out[~fast] = np.array([b"%.16e" % v for v in bits.view(np.float64).tolist()],
                          "S28").view(np.uint32).reshape(-1, 7)[inverse]
    return out.view(np.uint8)


def write_table(path: str, columns: list[str], table: np.ndarray, out_format: str) -> None:
    """Write a record array under the header `columns`: ints as "%d", floats as "%.16e",
    strings as they are; each batch of WRITE_BATCH rows is one uint8 array of NUL-padded
    cell blocks between separator blocks, its NUL bytes dropped. JSON holds each cell as
    a string, as `json.dump(doc, indent=1)` lays it out, so string cells must need no
    JSON escaping (state names) and hold no NUL byte."""
    names = table.dtype.names
    floats = [name for name in names if table.dtype[name].kind == "f"]
    marks = ["\0"] * len(names)
    if out_format == "csv":
        head, row, sep, tail = ",".join(columns) + "\n", ",".join(marks) + "\n", "", ""
    else:
        # the layout of json.dump(doc, indent=1), streamed row by row
        head, tail = json.dumps({"columns": columns, "rows": []}, indent=1).rsplit("[]", 1)
        head, tail = (head + "[\n", "\n ]" + tail) if len(table) else (head + "[]", tail)
        tail += "\n"
        row = "  [\n" + ",\n".join(f'   "{c}"' for c in marks) + "\n  ]" if marks else "  []"
        sep = ",\n"
    # the bytes before each cell and after the last, of a batch of rows each led by sep
    seps = [np.broadcast_to(np.frombuffer(s.encode(), np.uint8), (WRITE_BATCH, len(s)))
            for s in (sep + row).split("\0")]
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for start in range(0, len(table), WRITE_BATCH):
            rows = table[start:start + WRITE_BATCH]
            cells = {name: np.array([b"%d" % v for v in rows[name].tolist()])
                     if rows.dtype[name].kind in "iu" else np.char.encode(rows[name], "utf-8")
                     for name in names if name not in floats}
            if floats:
                x = np.stack([rows[name] for name in floats], 1, dtype=np.float64)
                cells.update(zip(floats, _floats(x.ravel()).reshape(*x.shape, -1).swapaxes(0, 1)))
            text = np.concatenate([seps[0][:len(rows)]] + [b for name, s in zip(names, seps[1:])
                                   for b in (cells[name].view(np.uint8).reshape(len(rows), -1),
                                             s[:len(rows)])], axis=1).ravel()
            fh.write(text[text != 0][0 if start else len(sep):].tobytes())
        fh.write(tail.encode())


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


def _write(out_dir: str, name: str, columns, table: np.ndarray, out_format: str = "csv") -> str:
    """Write a table to `name` under out_dir, or to `name` if it is absolute; returns
    the path. out_dir is made at the first write, so a failed command leaves none."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    write_table(path, list(columns), table, out_format)
    return path


def _write_json(out_dir: str, name: str, doc) -> str:
    """Write a JSON document as _write places a table; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def cmd_run(cfg: RunConfig, out_dir: str, out_format: str | None = None) -> str:
    """Write the trajectory table; returns the file path."""
    table = _fields(trajectory_rows(cfg.collision), cfg.quantities)
    return _write(out_dir, cfg.out_path, cfg.quantities, table, out_format or cfg.out_format)


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
    return _write_json(out_dir, stem + "_steady.json", doc)


def cmd_sweep(sweep: SweepConfig, out_dir: str,
              out_format: str | None = None) -> tuple[str, int]:
    """Evaluate all sweep points as stacks of trajectories; rows in axis order.

    The points of one run.n_collisions are parsed from one document and run as
    one stack of trajectories. Failed points emit no data rows; they are recorded
    with their error in a <output>_failures.json sidecar and make the command exit 3.
    """
    base = sweep.base
    fmt_ = out_format or base.out_format
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
                               for a in axes] + [merged[q] for q in base.quantities])

    stem = os.path.splitext(os.path.basename(base.out_path))[0] or "sweep"
    path = _write(out_dir, f"{stem}_sweep.{fmt_}", list(sweep.axes) + list(base.quantities),
                  table, fmt_)
    if failures:
        _write_json(out_dir, stem + "_sweep_failures.json", failures)
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
    except NUMERICAL_FAILURES as exc:
        if len(points) == 1:
            return [(points, f"{type(exc).__name__}: {exc}")]
    return [res for point in points[:, None] for res in _stack_rows(sweep, grid, point)]


def _fig_run_config(coupling, beta, rho0: np.ndarray) -> CollisionConfig:
    """Preset run; stacked coupling, beta or rho0 make it a grid of runs."""
    return CollisionConfig(
        hs=QubitHamiltonian(1.0), ancilla=AncillaPrep(beta=beta, omega_a=1.0),
        coupling=coupling, n_collisions=FIG_N, rho0=rho0)


def _panels(out_dir: str, names: list[str], coupling) -> list[str]:
    """One transient table per coupling of a stack, at beta = 1 from the fig3 state."""
    tables = trajectory_rows(_fig_run_config(coupling, 1.0, pure_state(FIG3_THETA)))
    return [_write(out_dir, name, RUN_COLUMNS, table)
            for name, table in zip(names, tables.reshape(len(names), -1))]


def cmd_fig3(out_dir: str) -> list[str]:
    """Effective-temperature curve and the four transient-current tables (one stacked run)."""
    beta, ratio = cartesian_grid(FIG3_BETAS, np.linspace(-3.0, 3.0, FIG3A_RATIO_POINTS))
    rep = steady_state_of(diagonal_coupling(1.0, ratio, FIG_DT), QubitHamiltonian(1.0),
                          AncillaPrep(beta=beta, omega_a=1.0))
    table = np.rec.fromarrays([beta, ratio, rep.beta_eff, rep.beta_eff / beta])
    path = _write(out_dir, "fig3a_beta_eff.csv",
                  ["beta", "jy_over_jx", "beta_eff", "beta_eff_over_beta"], table)
    return [path] + _panels(out_dir, [f"fig3_traj_ratio_{r:+.2f}.csv" for r in FIG3_RATIOS],
                            diagonal_coupling(1.0, np.array(FIG3_RATIOS), FIG_DT))


def cmd_fig5(out_dir: str) -> list[str]:
    """Steady-state coherence vs alpha, and transient currents at beta = 1 (one stacked run)."""
    beta, alpha = cartesian_grid(FIG3_BETAS, FIG5_ALPHAS)
    coupling = ssc_to_coupling(SscAngles(alpha, FIG5_GAMMA, FIG5_MAGNITUDE), FIG_DT)
    cfg = _fig_run_config(coupling, beta, pure_state(FIG3_THETA))
    table = np.rec.fromarrays([beta, alpha, l1_coherence(propagate_collisions(cfg))])
    path = _write(out_dir, "fig5a_coherence.csv", ["beta", "alpha", "coherence_l1"], table)
    coupling = ssc_to_coupling(SscAngles(np.array(FIG5_PANEL_ALPHAS), FIG5_GAMMA, FIG5_MAGNITUDE),
                               FIG_DT)
    return [path] + _panels(out_dir, [f"fig5_traj_alpha_{label}.csv"
                                      for label in ("0", "pi8", "pi4", "3pi8")], coupling)


def cmd_ergotropy_surface(out_dir: str) -> list[str]:
    """Ergotropy of the collision-protocol steady state over (alpha, gamma)."""
    names = np.array(["ground", "excited"])
    # one initial state per leading index, broadcast against the coupling grid
    rho0 = np.array([pure_state(math.pi / 2), pure_state(0.0)])[:, None]
    alpha, gamma = cartesian_grid(ERGO_ALPHAS, ERGO_GAMMAS)
    coupling = ssc_to_coupling(SscAngles(alpha, gamma, ERGO_MAGNITUDE), FIG_DT)
    ergo = ergotropy(propagate_collisions(_fig_run_config(coupling, 1.0, rho0)), 1.0)
    table = np.rec.fromarrays([np.tile(alpha, len(names)), np.tile(gamma, len(names)),
                               np.repeat(names, alpha.size), ergo.ravel()])
    path = _write(out_dir, "ergotropy_surface.csv", ["alpha", "gamma", "rho0", "ergotropy"], table)

    # axes (beta, rho0, alpha), in the row order of the slice table
    coupling = ssc_to_coupling(SscAngles(np.array(ERGO_ALPHAS), 0.0, ERGO_MAGNITUDE), FIG_DT)
    cfg = _fig_run_config(coupling, np.array(FIG3_BETAS)[:, None, None], rho0)
    ergo = ergotropy(propagate_collisions(cfg), 1.0)
    beta, name, alpha = cartesian_grid(FIG3_BETAS, names, ERGO_ALPHAS)
    table = np.rec.fromarrays([beta, alpha, name, ergo.ravel()])
    return [path, _write(out_dir, "ergotropy_slice_gamma0.csv",
                         ["beta", "alpha", "rho0", "ergotropy"], table)]


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
    out_dir = args.out or os.environ.get(ENV_OUT_DIR) or "."
    try:
        load = {"run": load_run_config, "steady": load_run_config, "sweep": load_sweep_config}
        cfg = load[args.command](args.config) if args.command in load else None
        # an --out under a file fails before any compute, with makedirs' own error
        parent = os.path.abspath(out_dir)
        while not os.path.exists(parent):
            parent = os.path.dirname(parent)
        if not os.path.isdir(parent):
            os.makedirs(out_dir, exist_ok=True)
        code = EXIT_OK
        if args.command == "run":
            paths = [cmd_run(cfg, out_dir, args.format)]
        elif args.command == "steady":
            paths = [cmd_steady(cfg, args.method, out_dir)]
        elif args.command == "sweep":
            path, code = cmd_sweep(cfg, out_dir, args.format)
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
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""Checks of collisim's output files against reference.py and method properties.

Every check returns a list of problems; an empty list means the file passed.
Nothing here compares against stored copies of earlier output. The
tolerances are stated in README.md and sit far below any physical effect
but well above the round-off seen between collisim and the reference.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as ref

RUN_COLUMNS = ("n", "t", "pop_e", "pop_g", "coh_re", "coh_im",
               "beta_eff", "coherence_l1", "ergotropy",
               "w", "q", "de_s", "ds", "sigma",
               "cum_w", "cum_q", "cum_sigma",
               "rate_w", "rate_q", "rate_sigma",
               "current_w", "current_q")

REF_TOL = 1e-9          # |x - x_ref| <= REF_TOL * (1 + |x_ref|)
PROPERTY_TOL = 1e-12    # first law, running sums, rates: same numbers recombined
SIGMA_FLOOR = -1e-12    # sigma >= 0 up to round-off
STATE_TOL = 1e-10       # trace, Hermiticity and positivity of reported states

FIG_DT, FIG_N = 0.05, 1000
FIG3_BETAS = (1.0, 3.0, 5.0, 7.0, 9.0)
FIG3_RATIOS = (-0.5, 0.0, 0.5, 1.0)
FIG5_GAMMA, FIG5_MAGNITUDE = math.atan(0.5), math.sqrt(1.25)
FIG5_ALPHAS = [k * math.pi / 128 for k in range(65)]
FIG5_PANELS = ((0.0, "0"), (math.pi / 8, "pi8"), (math.pi / 4, "pi4"), (3 * math.pi / 8, "3pi8"))
ERGO_MAGNITUDE = 0.5
ERGO_ALPHAS = [k * math.pi / 64 for k in range(33)]
ERGO_GAMMAS = [-math.pi / 2 + k * math.pi / 32 for k in range(33)]
FIG3_THETA = 15 * math.pi / 16


def pure(theta: float, phi: float = 0.0) -> np.ndarray:
    ket = np.array([math.cos(theta), np.exp(1j * phi) * math.sin(theta)])
    return np.outer(ket, ket.conj())


def initial_state(spec) -> np.ndarray:
    """rho0 of a run config, from the state grammar in the repository README."""
    if isinstance(spec, str):
        return {"ground": np.diag([0.0, 1.0]).astype(complex),
                "excited": np.diag([1.0, 0.0]).astype(complex),
                "plus": pure(math.pi / 4),
                "maximally_mixed": np.eye(2, dtype=complex) / 2,
                "fig3": pure(FIG3_THETA)}[spec]
    if "bloch" in spec:
        x, y, z = spec["bloch"]
        return (np.eye(2) + x * ref.PAULI[0] + y * ref.PAULI[1] + z * ref.PAULI[2]) / 2
    return pure(spec["theta"], spec.get("phi", 0.0))


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and cells of a CSV or JSON table written by collisim."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        doc = json.loads(text)
        return doc["columns"], doc["rows"]
    if not text.endswith("\n"):
        raise ValueError("CSV file is not newline-terminated")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _numbers(cells: list[list[str]], ncols: int) -> np.ndarray:
    if any(len(row) != ncols for row in cells):
        raise ValueError("ragged table")
    return np.array([[float(c) for c in row] for row in cells], dtype=float).reshape(-1, ncols)


def _compare(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        bad = ~same & ~(np.abs(got - want) <= tol * (1 + np.abs(want)))
    if np.any(bad):
        k = int(np.argmax(bad))
        return [f"{name}: {int(bad.sum())} values off, first at row {k}: "
                f"{got.flat[k]!r} vs reference {want.flat[k]!r}"]
    return []


def model_of(doc: dict) -> ref.Model:
    m, c = doc["model"], doc["coupling"]
    return ref.Model(m["omega_s"], m["omega_a"], m["beta"], ref.j_matrix(c), c["dt"])


def check_trajectory_values(columns: list[str], data: np.ndarray, doc: dict,
                            where: str) -> list[str]:
    """Rows of one trajectory against the reference and the ledger identities."""
    n = doc["run"]["n_collisions"]
    dt = doc["coupling"]["dt"]
    want = tuple(doc.get("output", {}).get("quantities", RUN_COLUMNS))
    if tuple(columns) != want:
        return [f"{where}: columns {columns} differ from {list(want)}"]
    if data.shape[0] != n + 1:
        return [f"{where}: {data.shape[0]} rows, expected {n + 1}"]
    cols = {c: data[:, k] for k, c in enumerate(columns)}
    reference = model_of(doc).columns(initial_state(doc["run"]["rho0"]), n)
    errors = []
    for c in columns:
        errors += _compare(f"{where} {c}", cols[c], reference[c], REF_TOL)
    if "n" in cols:
        errors += _compare(f"{where} n", cols["n"], np.arange(n + 1), 0.0)
    if {"w", "q", "de_s"} <= cols.keys():
        errors += _compare(f"{where} first law de_s = w - q", cols["de_s"],
                           cols["w"] - cols["q"], PROPERTY_TOL)
    for key in ("w", "q", "sigma"):
        if key in cols and "cum_" + key in cols:
            errors += _compare(f"{where} cum_{key} running sum", cols["cum_" + key],
                               np.cumsum(cols[key]), PROPERTY_TOL)
        if key in cols and "rate_" + key in cols:
            errors += _compare(f"{where} rate_{key} = {key}/dt", cols["rate_" + key],
                               cols[key] / dt, PROPERTY_TOL)
    if "sigma" in cols and not np.all(cols["sigma"] >= SIGMA_FLOOR):
        errors.append(f"{where}: sigma < 0 at row {int(np.argmin(cols['sigma']))}")
    return errors


def check_trajectory_file(path: str, doc: dict) -> list[str]:
    try:
        columns, cells = read_table(path)
        data = _numbers(cells, len(columns))
    except (OSError, ValueError, KeyError) as exc:
        return [f"{os.path.basename(path)}: unreadable: {exc}"]
    return check_trajectory_values(columns, data, doc, os.path.basename(path))


def fig_doc(coupling: dict, beta: float = 1.0, rho0="fig3", n: int = FIG_N) -> dict:
    return {"model": {"omega_s": 1.0, "omega_a": 1.0, "beta": beta},
            "coupling": dict(coupling, dt=FIG_DT), "run": {"n_collisions": n, "rho0": rho0}}


def _ssc(alpha: float, gamma: float, magnitude: float) -> dict:
    return {"ssc": {"alpha": alpha, "gamma": gamma, "magnitude": magnitude}}


def _grid_file(path: str, header: list[str], expected: list[tuple[tuple, tuple]]) -> list[str]:
    """Rows of (keys, values): keys must match exactly, values within REF_TOL."""
    name = os.path.basename(path)
    try:
        columns, cells = read_table(path)
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable: {exc}"]
    if columns != header:
        return [f"{name}: header {columns}"]
    if len(cells) != len(expected):
        return [f"{name}: {len(cells)} rows, expected {len(expected)}"]
    got, want = [], []
    for k, (row, (keys, values)) in enumerate(zip(cells, expected)):
        if len(row) != len(header):
            return [f"{name}: row {k} has {len(row)} cells"]
        try:
            parsed = [c if isinstance(key, str) else float(c) for c, key in zip(row, keys)]
            got.append([float(c) for c in row[len(keys):]])
        except ValueError as exc:
            return [f"{name}: row {k}: {exc}"]
        if any((p != key) if isinstance(key, str) else abs(p - key) > 1e-15 * (1 + abs(key))
               for p, key in zip(parsed, keys)):
            return [f"{name}: row {k} keys {row[:len(keys)]} expected {list(keys)}"]
        want.append(values)
    return _compare(name, np.array(got), np.array(want), REF_TOL)


def check_fig3(out_dir: str) -> list[str]:
    expected = []
    for beta in FIG3_BETAS:
        for ratio in np.linspace(-3.0, 3.0, 61).tolist():
            b_eff = ref.beta_eff_closed_form(beta, ratio)
            # at J_y = J_x the coupling is energy-preserving: beta_eff / beta = 1
            unit = math.isclose(ratio, 1.0, abs_tol=1e-12)
            expected.append(((beta, ratio), (b_eff, 1.0 if unit else b_eff / beta)))
    errors = _grid_file(os.path.join(out_dir, "fig3a_beta_eff.csv"),
                        ["beta", "jy_over_jx", "beta_eff", "beta_eff_over_beta"], expected)
    for ratio in FIG3_RATIOS:
        doc = fig_doc({"j": {"xx": 1.0, "yy": ratio}})
        path = os.path.join(out_dir, f"fig3_traj_ratio_{ratio:+.2f}.csv")
        errors += check_trajectory_file(path, doc)
    return errors


def check_fig5(out_dir: str) -> list[str]:
    rho0 = initial_state("fig3")
    expected = []
    for beta in FIG3_BETAS:
        for alpha in FIG5_ALPHAS:
            doc = fig_doc(_ssc(alpha, FIG5_GAMMA, FIG5_MAGNITUDE), beta)
            rho = model_of(doc).final_state(rho0, FIG_N)
            expected.append(((beta, alpha), (2 * abs(rho[0, 1]),)))
    errors = _grid_file(os.path.join(out_dir, "fig5a_coherence.csv"),
                        ["beta", "alpha", "coherence_l1"], expected)
    for alpha, label in FIG5_PANELS:
        doc = fig_doc(_ssc(alpha, FIG5_GAMMA, FIG5_MAGNITUDE))
        errors += check_trajectory_file(os.path.join(out_dir, f"fig5_traj_alpha_{label}.csv"), doc)
    return errors


def check_ergotropy(out_dir: str) -> list[str]:
    states = (("ground", initial_state("ground")), ("excited", initial_state("excited")))

    def ergo(alpha, gamma, beta, rho0):
        doc = fig_doc(_ssc(alpha, gamma, ERGO_MAGNITUDE), beta)
        return ref.state_ergotropy(model_of(doc).final_state(rho0, FIG_N), 1.0)
    surface = [((alpha, gamma, name), (ergo(alpha, gamma, 1.0, rho0),))
               for name, rho0 in states for alpha in ERGO_ALPHAS for gamma in ERGO_GAMMAS]
    errors = _grid_file(os.path.join(out_dir, "ergotropy_surface.csv"),
                        ["alpha", "gamma", "rho0", "ergotropy"], surface)
    slice_ = [((beta, alpha, name), (ergo(alpha, 0.0, beta, rho0),))
              for beta in FIG3_BETAS for name, rho0 in states for alpha in ERGO_ALPHAS]
    errors += _grid_file(os.path.join(out_dir, "ergotropy_slice_gamma0.csv"),
                         ["beta", "alpha", "rho0", "ergotropy"], slice_)
    return errors


FIGURE_CHECKS = {"fig3": check_fig3, "fig5": check_fig5, "ergotropy-surface": check_ergotropy}


def _report_state(rep: dict, omega_s: float, where: str) -> tuple[np.ndarray, list[str]]:
    """The reported rho_star, and problems with it or with the fields derived from it."""
    rho = np.array([[complex(*rep["rho_star"][r][c]) for c in range(2)] for r in range(2)])
    errors = []
    if abs(np.trace(rho) - 1) > STATE_TOL or np.max(np.abs(rho - rho.conj().T)) > STATE_TOL:
        errors.append(f"{where}: rho_star is not a unit-trace Hermitian matrix")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -STATE_TOL:
        errors.append(f"{where}: rho_star is not positive")
    coh = 2 * abs(rho[0, 1])
    errors += _compare(f"{where} pop_e", rep["pop_e"], rho[0, 0].real, 0.0)
    errors += _compare(f"{where} pop_g", rep["pop_g"], rho[1, 1].real, 0.0)
    errors += _compare(f"{where} coherence_l1", rep["coherence_l1"], coh, REF_TOL)
    errors += _compare(f"{where} ergotropy", rep["ergotropy"],
                       ref.state_ergotropy(rho, omega_s), REF_TOL)
    if coh <= 1e-6 and omega_s != 0:
        want = math.log(rho[1, 1].real / rho[0, 0].real) / omega_s
        if rep["beta_eff"] is None:
            errors.append(f"{where}: beta_eff missing")
        else:
            errors += _compare(f"{where} beta_eff", rep["beta_eff"], want, REF_TOL)
    elif rep["beta_eff"] is not None:
        errors.append(f"{where}: beta_eff given for a coherent state")
    if not (isinstance(rep["residual"], float) and rep["residual"] >= 0):
        errors.append(f"{where}: bad residual {rep['residual']!r}")
    return rho, errors


def check_steady_file(path: str, doc: dict) -> list[str]:
    """A `steady --method both` report: the kernel state is annihilated by the
    reference generator, the iterated state is a fixed point of the reference
    map to the requested tolerance, energy-preserving couplings give the
    Gibbs state at beta, and every derived field matches its state."""
    where = os.path.basename(path)
    try:
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
        model = model_of(doc)
        omega_s, beta, dt = doc["model"]["omega_s"], doc["model"]["beta"], doc["coupling"]["dt"]
        kernel, k_err = _report_state(rep["kernel"], omega_s, where + " kernel")
        iterated, i_err = _report_state(rep["iteration"], omega_s, where + " iteration")
        errors = k_err + i_err
        if rep["method"] != "both" or rep["kernel"]["method"] != "kernel" \
                or rep["iteration"]["method"] != "iteration":
            errors.append(f"{where}: method fields {rep['method']!r}")
        g = model.generator
        if np.max(np.abs(g @ kernel.ravel())) > PROPERTY_TOL * (1 + np.max(np.abs(g))):
            errors.append(f"{where}: kernel state is not annihilated by the reference generator")
        tol = doc["run"].get("convergence_tol", 1e-10)
        step = model.fixed_point_step(iterated)
        if step > 1.5 * tol * dt + 1e-15:
            errors.append(f"{where}: iterated state moves {step:.3e} under one reference collision")
        errors += _compare(f"{where} trace_distance", rep["trace_distance"],
                           ref.trace_distance(kernel, iterated), PROPERTY_TOL)
        j = ref.j_matrix(doc["coupling"])
        if j[0, 0] == j[1, 1] != 0 and np.count_nonzero(j) == 2:
            gibbs = ref.thermal(doc["model"]["omega_a"], beta)
            if ref.trace_distance(kernel, gibbs) > REF_TOL:
                errors.append(f"{where}: energy-preserving kernel state is not Gibbs at beta")
            if ref.trace_distance(iterated, gibbs) > 1e-8:
                errors.append(f"{where}: energy-preserving iterated state is not Gibbs at beta")
        return errors
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{where}: unreadable: {exc}"]


def check_sweep_file(path: str, sweep: dict) -> list[str]:
    """Every point's rows, in axis order, against its own trajectory reference."""
    name = os.path.basename(path)
    try:
        columns, cells = read_table(path)
        data = _numbers(cells, len(columns))
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable: {exc}"]
    axes = sweep["axes"]
    paths = [ax["path"] for ax in axes]
    if columns[:len(paths)] != paths:
        return [f"{name}: axis columns {columns[:len(paths)]}"]
    grids = [ax["values"] if "values" in ax else
             np.linspace(ax["start"], ax["stop"], ax["steps"]).tolist() for ax in axes]
    n_rows = sweep["base"]["run"]["n_collisions"] + 1
    n_points = math.prod(len(g) for g in grids)
    if data.shape[0] != n_points * n_rows:
        return [f"{name}: {data.shape[0]} rows, expected {n_points * n_rows}"]
    errors = []
    for point, values in enumerate(np.ndindex(*[len(g) for g in grids])):
        doc = json.loads(json.dumps(sweep["base"]))
        doc.pop("output", None)
        block = data[point * n_rows:(point + 1) * n_rows]
        for k, (axis_path, idx) in enumerate(zip(paths, values)):
            node = doc
            *head, last = axis_path.split(".")
            for key in head:
                node = node[key]
            node[last] = grids[k][idx]
            errors += _compare(f"{name} point {point} {axis_path}", block[:, k],
                               np.full(n_rows, grids[k][idx]), 0.0)
        errors += check_trajectory_values(columns[len(paths):], block[:, len(paths):],
                                          doc, f"{name} point {point}")
        if errors:
            return errors
    return errors

"""Self-test of the output checks: each must pass a real output file and
reject corrupted copies of it (a flipped sign, a dropped row, a perturbed
digit in every checked column).

    python3 perfbench/selftest.py

Writes real outputs with the collisim CLI under perfbench/out, corrupts
copies one at a time, and exits 1 if a check passes a corrupted file or
rejects a real one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from collisim.cli import main as cli_main  # noqa: E402

FAILURES: list[str] = []


def cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"collisim {' '.join(argv)} exited {code}")


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


# -- corruptions of a table (CSV or JSON) -------------------------------------

def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        doc = json.loads(text)
        return doc["columns"], doc["rows"], doc
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]], None


def _save(path: str, columns, rows, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if doc is not None:
            json.dump(dict(doc, columns=columns, rows=rows), fh)
        else:
            fh.write("\n".join([",".join(columns)] + [",".join(r) for r in rows]) + "\n")


def _nonzero_cell(rows, col: int) -> int:
    """Index of a middle row whose cell in `col` is clearly nonzero."""
    order = list(range(len(rows) // 2, len(rows))) + list(range(len(rows) // 2))
    for i in order:
        try:
            if abs(float(rows[i][col])) > 1e-6:
                return i
        except ValueError:
            continue
    return -1


def perturb_digit(cell: str) -> str:
    """Change the second significant digit: a relative change of about 1e-2."""
    k = 2 + cell.startswith("-")
    return cell[:k] + str((int(cell[k]) + 5) % 10) + cell[k + 1:]


def table_corruptions(path: str, value_columns: list[str]):
    """Yield (label, writer) for every corruption of the table at path."""
    columns, rows, doc = _load(path)

    def edited(fn):
        def write():
            new_rows = [list(r) for r in rows]
            fn(new_rows)
            _save(path, columns, new_rows, doc)
        return write

    yield "dropped row", edited(lambda r: r.pop(len(r) // 2))
    for name in value_columns:
        col = columns.index(name)
        i = _nonzero_cell(rows, col)
        if i < 0:
            continue

        def flip(r, i=i, col=col):
            r[i][col] = r[i][col][1:] if r[i][col].startswith("-") else "-" + r[i][col]

        def digit(r, i=i, col=col):
            r[i][col] = perturb_digit(r[i][col])
        yield f"flipped sign in {name}", edited(flip)
        yield f"perturbed digit in {name}", edited(digit)


def exercise(path: str, check, value_columns: list[str]) -> None:
    name = os.path.basename(path)
    expect(not check(), f"{name}: real output passes")
    backup = path + ".orig"
    shutil.copyfile(path, backup)
    try:
        for label, write in table_corruptions(path, value_columns):
            write()
            expect(bool(check()), f"{name}: {label} is rejected")
            shutil.copyfile(backup, path)
    finally:
        shutil.move(backup, path)


def steady_corruptions(path: str, check) -> None:
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as fh:
        original = json.load(fh)
    expect(not check(), f"{name}: real output passes")
    edits = {
        "dropped iteration report": lambda d: d.pop("iteration"),
        "flipped sign of kernel pop_e": lambda d: d["kernel"].update(pop_e=-d["kernel"]["pop_e"]),
        "perturbed kernel rho_star": lambda d: d["kernel"]["rho_star"][0][0].__setitem__(
            0, d["kernel"]["rho_star"][0][0][0] * 1.01),
        "perturbed iteration rho_star": lambda d: d["iteration"]["rho_star"][0][1].__setitem__(
            0, d["iteration"]["rho_star"][0][1][0] + 1e-3),
        "perturbed ergotropy": lambda d: d["iteration"].update(
            ergotropy=d["iteration"]["ergotropy"] * 1.01 + 1e-6),
        "perturbed trace_distance": lambda d: d.update(trace_distance=d["trace_distance"] + 1e-6),
    }
    try:
        for label, edit in edits.items():
            doc = json.loads(json.dumps(original))
            edit(doc)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            expect(bool(check()), f"{name}: {label} is rejected")
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(original, fh)


def main() -> int:
    out_root = os.path.join(HERE, "out")
    os.makedirs(out_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=out_root)
    try:
        out = os.path.join(work, "out")
        # trajectory tables: CSV with every column, JSON with the subset
        physics = [c for c in checks.RUN_COLUMNS if c not in ("n", "t")]
        for k in (0, 4):
            doc, extra = inputs.trajectory_inputs(7)[k]
            doc["run"]["n_collisions"] = 300
            cfg = os.path.join(work, f"traj{k}.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            cli(["run", "--config", cfg, "--out", out] + extra)
            path = os.path.join(out, doc["output"]["path"])
            cols = [c for c in doc["output"].get("quantities", checks.RUN_COLUMNS) if c in physics]
            exercise(path, lambda p=path, d=doc: checks.check_trajectory_file(p, d), cols)

        # figure tables
        for cmd in ("fig3", "fig5", "ergotropy-surface"):
            cli([cmd, "--out", out])
        for cmd, name, cols in (
                ("fig3", "fig3a_beta_eff.csv", ["beta_eff", "beta_eff_over_beta"]),
                ("fig3", "fig3_traj_ratio_+0.50.csv", physics),
                ("fig5", "fig5a_coherence.csv", ["coherence_l1"]),
                ("fig5", "fig5_traj_alpha_pi4.csv", physics),
                ("ergotropy-surface", "ergotropy_surface.csv", ["ergotropy"]),
                ("ergotropy-surface", "ergotropy_slice_gamma0.csv", ["ergotropy"])):
            exercise(os.path.join(out, name), lambda c=cmd: checks.FIGURE_CHECKS[c](out), cols)

        # steady reports: an energy-preserving and an SSC coupling
        docs = [doc for doc, fault in inputs.steady_inputs(7) if not fault]
        energy_preserving = next(
            d for d in docs if d["coupling"].get("j", {}).keys() == {"xx", "yy"}
            and d["coupling"]["j"]["xx"] == d["coupling"]["j"]["yy"])
        ssc = next(d for d in docs if "ssc" in d["coupling"])
        for doc in (energy_preserving, ssc):
            cfg = os.path.join(work, "steady.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            cli(["steady", "--config", cfg, "--method", "both", "--out", out])
            path = os.path.join(out, os.path.splitext(doc["output"]["path"])[0] + "_steady.json")
            steady_corruptions(path, lambda p=path, d=doc: checks.check_steady_file(p, d))

        # sweep: a small grid, parallel and serial
        sweep = inputs.sweep_input(7)
        sweep["base"]["run"]["n_collisions"] = 20
        sweep["axes"][1]["steps"] = 5
        cfg = os.path.join(work, "sweep.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(sweep, fh)
        par, ser = os.path.join(out, "par"), os.path.join(out, "ser")
        cli(["sweep", "--config", cfg, "--out", par, "--parallel", "2"])
        cli(["sweep", "--config", cfg, "--out", ser, "--parallel", "1"])
        par_file, ser_file = (os.path.join(d, "sweep_sweep.csv") for d in (par, ser))
        exercise(par_file, lambda: checks.check_sweep_file(par_file, sweep),
                 ["model.beta", "coupling.j.yy", "pop_e", "coh_re", "q", "sigma", "current_w"])

        def identical():
            with open(par_file, "rb") as a, open(ser_file, "rb") as b:
                return [] if a.read() == b.read() else ["differ"]
        exercise(ser_file, identical, ["pop_g", "w"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

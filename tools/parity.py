"""Output parity of the working tree against a parent commit, or across CPU dispatch.

    python tools/parity.py --parent HEAD              # uncommitted change
    python tools/parity.py --parent HEAD~1            # committed change
    python tools/parity.py --dispatch-off             # numpy's SIMD dispatch on and off

Runs one fixed corpus of CLI commands (`corpus`) through `collisim.cli.main`
on two trees, each in its own process: the parent's committed files (exported
with `git archive` into a temporary directory) and the working tree, or with
--dispatch-off the working tree twice, the second time with
NPY_DISABLE_CPU_FEATURES set to every name in numpy's `__cpu_dispatch__`. Each
command runs in a fresh directory with its inputs and writes there. The exit
code, stdout, stderr and every written file are compared byte for byte. Where
a file differs, both are parsed (CSV and JSON tables by column, any other JSON
document by the path of each leaf) and each column reports its largest
|a - b| / max(1, |b|) and the row where it occurs. The tool exits 1 if any
column moves beyond --tol, or if anything else differs: an exit code, a
message, a file's presence, a table's shape or a cell that is not a number
on both sides.

The corpus: the seed 1-3 ops of the four workloads in perfbench/inputs.py with
their extra CLI arguments; a sweep with a run.n_collisions axis and a failing
point, in CSV and JSON; README's edge cases (beta = +-inf, omega_s = 0,
j.xx = 1e154 and 1e200, n_collisions = 10**15, an --out that is a file or
under one); a weak-coupling ladder g = 1e-2 ... 1e-8; sigma_z-column
couplings; omega_a = 0.7 and 1.9, where the heat functional has its own scale.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, export, git  # noqa: E402

# The tolerance README states for a change that moves outputs by round-off, and for
# the cross-dispatch check.
TOL = 1e-11
# Problems listed in the summary; the rest are counted.
MAX_PROBLEMS = 40

def _inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(ROOT, "perfbench", "inputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(j: dict, beta=1.0, omega_s=1.0, omega_a=1.0, dt=0.05, n=200, rho0="fig3",
         path="run.csv") -> dict:
    return {"model": {"omega_s": omega_s, "omega_a": omega_a, "beta": beta},
            "coupling": {"j": j, "dt": dt, "scaling": "sqrt_dt"},
            "run": {"n_collisions": n, "rho0": rho0}, "output": {"path": path}}


def _case(name: str, argv: list[str], config: dict | None = None, **files: str) -> dict:
    """One command, run in a fresh directory holding `files` (and cfg.json for config)."""
    if config is not None:
        files["cfg.json"] = json.dumps(config)
        argv = argv[:1] + ["--config", "cfg.json"] + argv[1:]
    return {"name": name, "argv": argv + ([] if "--out" in argv else ["--out", "out"]),
            "files": files}


def _run_and_steady(name: str, doc: dict) -> list[dict]:
    return [_case(f"{name}-run-csv", ["run"], doc),
            _case(f"{name}-run-json", ["run", "--format", "json"], doc),
            _case(f"{name}-steady", ["steady", "--method", "both"], doc)]


def corpus() -> list[dict]:
    """The fixed corpus: a list of {name, argv, files}."""
    inputs = _inputs()
    cases = []
    for seed in (1, 2, 3):
        for k, (doc, extra) in enumerate(inputs.trajectory_inputs(seed)):
            cases.append(_case(f"trajectory-s{seed}-{k}", ["run"] + extra, doc))
        cases.append(_case(f"sweep-s{seed}", ["sweep"], inputs.sweep_input(seed)))
        for k, (doc, _) in enumerate(inputs.steady_inputs(seed)):
            cases.append(_case(f"steady-s{seed}-{k:03d}", ["steady", "--method", "both"], doc))
    cases += [_case(cmd, [cmd]) for cmd in inputs.FIGURE_COMMANDS]

    diag, ssc = {"xx": 1.0, "yy": 0.5}, {"xx": 1.0, "yy": 0.5, "zy": 0.3}
    full = {a + b: 0.1 * (k + 1) * (-1) ** k for k, (a, b) in
            enumerate((a, b) for a in "xyz" for b in "xyz")}
    sweep = {"base": _doc(diag, n=5, path="nsweep.csv"),
             "axes": [{"path": "run.n_collisions", "values": [3, 7]},
                      {"path": "coupling.j.xx", "values": [0.5, 1e200]}]}
    for fmt in ("csv", "json"):
        cases.append(_case(f"sweep-n-axis-failing-{fmt}", ["sweep", "--format", fmt], sweep))
    edges = {"beta-inf": _doc(ssc, beta="inf"), "beta-minus-inf": _doc(ssc, beta="-inf"),
             "omega-s-0": _doc(ssc, omega_s=0.0), "jxx-1e154": _doc({"xx": 1e154}),
             "jxx-1e200": _doc({"xx": 1e200}), "n-1e15": _doc(diag, n=10 ** 15)}
    for name, doc in edges.items():
        cases += _run_and_steady(name, doc)
    for cmd in ("run", "sweep"):
        doc = sweep if cmd == "sweep" else _doc(diag)
        cases += [_case(f"out-file-{cmd}", [cmd, "--out", "afile"], doc, afile="x\n"),
                  _case(f"out-under-file-{cmd}", [cmd, "--out", "afile/sub"], doc, afile="x\n")]
    for g in (1e-2, 1e-4, 1e-6, 3e-7, 1e-7, 1e-8):
        weak = {key: g * v for key, v in ssc.items()}
        cases += _run_and_steady(f"weak-{g:g}", _doc(weak, n=50))
    sigma_z = {"mixed": {"xx": 0.8, "yy": 0.3, "zy": 0.4, "yz": 0.5}, "xz": {"xz": 1.0},
               "zz": {"zz": 1.0}}
    for name, j in sigma_z.items():
        cases += _run_and_steady(f"sigma-z-column-{name}", _doc(j, beta=1.28))
    for omega_a in (0.7, 1.9):
        for name, j in (("diagonal", diag), ("ssc", ssc), ("full", full)):
            cases += _run_and_steady(f"omega-a-{omega_a}-{name}",
                                     _doc(j, beta=0.8, omega_s=1.3, omega_a=omega_a, n=2000))
    sweep = {"base": _doc(ssc, n=20, path="oa.csv"),
             "axes": [{"path": "model.omega_a", "values": [0.7, 1.0, 1.9]},
                      {"path": "model.beta", "values": [0.5, 2.0]}]}
    cases.append(_case("sweep-omega-a", ["sweep"], sweep))
    return cases


def work(cases_file: str, dest: str) -> None:
    """Run every case of cases_file through collisim.cli.main, each in dest/<name>;
    write {name: {code, stdout, stderr}} to dest.json. Every warning is shown."""
    from collisim.cli import main

    warnings.simplefilter("always")
    with open(cases_file, encoding="utf-8") as fh:
        cases = json.load(fh)
    results = {}
    for case in cases:
        folder = os.path.join(dest, case["name"])
        os.makedirs(folder)
        for name, text in case["files"].items():
            with open(os.path.join(folder, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(folder)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(case["argv"])
            except SystemExit as exc:     # argparse's usage errors
                code = exc.code
            except Exception:  # noqa: BLE001 - a crash is an outcome to compare
                code = "raised"
                traceback.print_exc()
        results[case["name"]] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    with open(dest + ".json", "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def run_side(src: str, cases_file: str, dest: str, env: dict | None = None) -> dict:
    """Run the corpus on the package under src in a new process; returns its results."""
    code = (f"import sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r});"
            f" import parity; parity.work({cases_file!r}, {dest!r})")
    env = dict(os.environ if env is None else env, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, cwd=os.path.dirname(dest), check=True)
    with open(dest + ".json", encoding="utf-8") as fh:
        return json.load(fh)


def _number(cell):
    """A cell as a float, or None if it is not a number (a string such as a state name)."""
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _columns(path: str) -> dict[str, list]:
    """The cells of a written file by column: a table's columns, or a JSON document's leaves."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.startswith("{"):    # a CSV table, whatever the file's name
        header, *rows = list(csv.reader(io.StringIO(text)))
        return {name: [row[k] for row in rows] for k, name in enumerate(header)}
    doc = json.loads(text)
    if isinstance(doc, dict) and set(doc) == {"columns", "rows"}:
        return {name: [row[k] for row in doc["rows"]] for k, name in enumerate(doc["columns"])}
    leaves: dict[str, list] = {}

    def walk(node, key):
        if isinstance(node, dict):
            for name, child in node.items():
                walk(child, f"{key}.{name}" if key else name)
        elif isinstance(node, list):
            for k, child in enumerate(node):
                walk(child, f"{key}[{k}]")
        else:
            leaves[key] = [node]
    walk(doc, "")
    return leaves


def compare_file(a_path: str, b_path: str) -> tuple[dict, list[str]]:
    """{column: (largest |a - b| / max(1, |b|), its row)} over the columns that differ, and
    the differences that are not numeric (shape, a column's presence, a non-number cell)."""
    a, b = _columns(a_path), _columns(b_path)
    moved, problems = {}, []
    if list(a) != list(b):
        problems.append(f"columns differ: {sorted(set(a) ^ set(b)) or 'order'}")
    for name in (n for n in a if n in b and a[n] != b[n]):
        if len(a[name]) != len(b[name]):
            problems.append(f"{name}: {len(a[name])} rows against {len(b[name])}")
            continue
        worst = (0.0, 0)
        for row, (x, y) in enumerate(zip(a[name], b[name])):
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            if fx is not None and fy is not None and math.isfinite(fx) and math.isfinite(fy):
                worst = max(worst, (abs(fx - fy) / max(1.0, abs(fy)), row))
            elif fx is None or fy is None or not (fx == fy or math.isnan(fx) and math.isnan(fy)):
                problems.append(f"{name} row {row}: {x!r} against {y!r}")
        moved[name] = worst
    return moved, problems


def _files(folder: str) -> set[str]:
    return {os.path.relpath(os.path.join(top, name), folder)
            for top, _, names in os.walk(folder) for name in names}


def compare(a_dir: str, b_dir: str, a_results: dict, b_results: dict) -> dict:
    """Compare side a (the change) against side b (the reference) case by case."""
    report = {"cases": len(b_results), "files": 0, "identical_files": 0,
              "columns": {}, "problems": []}
    for name, b_res in b_results.items():
        a_res = a_results.get(name)
        for key in ("code", "stdout", "stderr"):
            if a_res is None or a_res[key] != b_res[key]:
                report["problems"].append(f"{name}: {key} {a_res and a_res[key]!r} "
                                          f"against {b_res[key]!r}")
        a_files, b_files = _files(os.path.join(a_dir, name)), _files(os.path.join(b_dir, name))
        if a_files != b_files:
            report["problems"].append(f"{name}: files {sorted(a_files ^ b_files)} on one side")
        for rel in sorted(a_files & b_files):
            report["files"] += 1
            a_path, b_path = os.path.join(a_dir, name, rel), os.path.join(b_dir, name, rel)
            with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
                if fa.read() == fb.read():
                    report["identical_files"] += 1
                    continue
            moved, problems = compare_file(a_path, b_path)
            report["problems"] += [f"{name}/{rel}: {p}" for p in problems]
            for column, (dev, row) in moved.items():
                best = report["columns"].get(column)
                if best is None or dev > best["max"]:
                    report["columns"][column] = {"max": dev, "at": f"{name}/{rel} row {row}"}
    return report


def summary(report: dict, tol: float) -> tuple[str, bool]:
    """The report as text, and whether it passes at tol."""
    columns = report["columns"]
    lines = [f"{report['cases']} cases, {report['files']} files, "
             f"{report['identical_files']} byte-identical; "
             + ("every exit code, stdout and stderr identical" if not report["problems"]
                else f"{len(report['problems'])} problems")]
    lines += [f"  {name}: max {c['max']:.2g} at {c['at']}" for name, c in
              sorted(columns.items(), key=lambda item: -item[1]["max"])]
    lines += [f"  problem: {p}" for p in report["problems"][:MAX_PROBLEMS]]
    if len(report["problems"]) > MAX_PROBLEMS:
        lines.append(f"  ... and {len(report['problems']) - MAX_PROBLEMS} more problems")
    beyond = [name for name, c in columns.items() if c["max"] > tol]
    lines.append(f"columns beyond tol {tol:g}: {', '.join(beyond) or 'none'}")
    return "\n".join(lines), not (beyond or report["problems"])


def dispatch_off_env() -> dict:
    """The environment with every name in numpy's __cpu_dispatch__ disabled."""
    import numpy
    core = getattr(numpy, "_core", None) or numpy.core
    return dict(os.environ,
                NPY_DISABLE_CPU_FEATURES=" ".join(core._multiarray_umath.__cpu_dispatch__))


def check(a_src: str, b_src: str, cases: list[dict], a_env: dict | None = None) -> dict:
    """Run cases on the package trees under a_src (the change, in a_env) and b_src
    (the reference), and compare them."""
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        cases_file = os.path.join(tmp, "cases.json")
        with open(cases_file, "w", encoding="utf-8") as fh:
            json.dump(cases, fh)
        a_dir, b_dir = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        b_results = run_side(b_src, cases_file, b_dir)
        a_results = run_side(a_src, cases_file, a_dir, a_env)
        return compare(a_dir, b_dir, a_results, b_results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", help="commit to compare the working tree against")
    side.add_argument("--dispatch-off", action="store_true",
                      help="compare the working tree with numpy's SIMD dispatch off against on")
    parser.add_argument("--tol", type=float, default=TOL)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if args.dispatch_off:
        env = dispatch_off_env()
        print(f"NPY_DISABLE_CPU_FEATURES={env['NPY_DISABLE_CPU_FEATURES']}", flush=True)
        report = check(src, src, corpus(), env)
    else:
        with tempfile.TemporaryDirectory(prefix="parity-parent-") as tmp:
            export(git("rev-parse", args.parent), tmp)
            report = check(src, os.path.join(tmp, "src"), corpus())
    text, ok = summary(report, args.tol)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

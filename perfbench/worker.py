"""One benchmark process: set up a workload, run timed rounds of CLI ops
through `collisim.cli.main`, check every output file, print one JSON line.

Started by run.py, which times the set-up (interpreter start, `import
collisim`, input generation) from the moment it starts this process to the
`READY` line. `--setup-only` exits right after that line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
FAULT_MESSAGE = "no steady state within budget"

FIGURE_FILES = {
    "fig3": ["fig3a_beta_eff.csv"]
    + [f"fig3_traj_ratio_{r:+.2f}.csv" for r in (-0.5, 0.0, 0.5, 1.0)],
    "fig5": ["fig5a_coherence.csv"]
    + [f"fig5_traj_alpha_{a}.csv" for a in ("0", "pi8", "pi4", "3pi8")],
    "ergotropy-surface": ["ergotropy_surface.csv", "ergotropy_slice_gamma0.csv"],
}
FIGURE_ROWS = {"fig3": 5 * 61 + 4 * 1001, "fig5": 5 * 65 + 4 * 1001,
               "ergotropy-surface": 2 * 33 * 33 + 5 * 2 * 33}


@dataclass
class Op:
    """One CLI command of a round, with what it writes and how to check it."""

    argv: list[str]
    outputs: list[str]
    rows: int
    check: object                      # () -> list of problems
    expect_fault: bool = False
    digests: list = field(default_factory=list)   # per round: output digest or None


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def build_ops(workload: str, seed: int, work: str) -> list[Op]:
    """Write the workload's input configs under `work`; return one round of ops."""
    import checks
    import inputs

    out = os.path.join(work, "out")
    cfg = os.path.join(work, "cfg")
    os.makedirs(out)
    os.makedirs(cfg)
    ops = []
    if workload == "trajectory":
        for k, (doc, extra) in enumerate(inputs.trajectory_inputs(seed)):
            path = _write_json(os.path.join(cfg, f"traj{k}.json"), doc)
            target = os.path.join(out, doc["output"]["path"])
            ops.append(Op(["run", "--config", path, "--out", out] + extra, [target],
                          doc["run"]["n_collisions"] + 1,
                          lambda t=target, d=doc: checks.check_trajectory_file(t, d)))
    elif workload == "figures":
        for cmd in inputs.FIGURE_COMMANDS:
            ops.append(Op([cmd, "--out", out], [os.path.join(out, f) for f in FIGURE_FILES[cmd]],
                          FIGURE_ROWS[cmd], lambda c=cmd: checks.FIGURE_CHECKS[c](out)))
    elif workload == "sweep":
        doc = inputs.sweep_input(seed)
        path = _write_json(os.path.join(cfg, "sweep.json"), doc)
        rows = 2 * inputs.SWEEP_RATIOS["steps"] * (doc["base"]["run"]["n_collisions"] + 1)
        par, ser = os.path.join(out, "parallel"), os.path.join(out, "serial")
        par_file, ser_file = (os.path.join(d, "sweep_sweep.csv") for d in (par, ser))
        nproc = len(os.sched_getaffinity(0))

        def same_bytes():
            with open(par_file, "rb") as a, open(ser_file, "rb") as b:
                return [] if a.read() == b.read() else ["serial and parallel sweep files differ"]
        ops.append(Op(["sweep", "--config", path, "--out", par, "--parallel", str(nproc)],
                      [par_file], rows, lambda: checks.check_sweep_file(par_file, doc)))
        ops.append(Op(["sweep", "--config", path, "--out", ser, "--parallel", "1"],
                      [ser_file], rows, same_bytes))
    elif workload == "steady":
        for doc, fault in inputs.steady_inputs(seed):
            stem = os.path.splitext(doc["output"]["path"])[0]
            path = _write_json(os.path.join(cfg, stem + ".json"), doc)
            target = os.path.join(out, stem + "_steady.json")
            ops.append(Op(["steady", "--config", path, "--method", "both", "--out", out],
                          [target], 1, lambda t=target, d=doc: checks.check_steady_file(t, d),
                          expect_fault=fault))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def _cpu() -> float:
    a = resource.getrusage(resource.RUSAGE_SELF)
    b = resource.getrusage(resource.RUSAGE_CHILDREN)
    return a.ru_utime + a.ru_stime + b.ru_utime + b.ru_stime


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_op(main, op: Op) -> tuple[bool, float, float]:
    """Run one CLI command; returns (succeeded, wall seconds, CPU seconds).

    The previous round's output files are removed first, outside the timed
    region: every round writes new files, as into a fresh output directory,
    instead of truncating old ones, which on ext4 waits for their writeback.
    """
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    c0 = _cpu()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv)
    except Exception:                               # the op fails, the run goes on
        code = -1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    cpu = _cpu() - c0
    if code == 0:
        op.digests.append(_digest(op.outputs))
        return True, wall, cpu
    op.digests.append(None)
    if not (op.expect_fault and code == 3 and FAULT_MESSAGE in err.getvalue()):
        print(f"op {' '.join(op.argv)} failed with exit {code}: {err.getvalue().strip()}",
              file=sys.stderr)
    return False, wall, cpu


def run_rounds(main, ops: list[Op], seconds: float) -> list[dict]:
    """Whole rounds until the next one would end after `seconds`; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        wall = cpu = 0.0
        rows = 0
        latencies = []
        for op in ops:
            ok, w, c = run_op(main, op)
            wall += w
            cpu += c
            latencies.append(w)
            rows += op.rows if ok else 0
        rounds.append({"wall": wall, "cpu": cpu, "rows": rows, "latencies": latencies})
        print(f"round {len(rounds)}: wall {wall:.4f} s, cpu {cpu:.4f} s, {rows} rows",
              file=sys.stderr)
        spent = time.perf_counter() - start
        if spent + statistics.median(r["wall"] for r in rounds) > seconds:
            return rounds


def check_outputs(ops: list[Op]) -> tuple[int, list[str]]:
    """Failed op count over all rounds, and the problems found.

    A round's op fails when the command failed, when its output differs from
    the last round's, or when the output check rejects it. The files on disk
    are the last round's.
    """
    failed, problems = 0, []
    for op in ops:
        last = op.digests[-1]
        errors = op.check() if last is not None else []
        problems += errors
        for d in op.digests:
            if d is None or errors:
                failed += 1
            elif d != last:
                failed += 1
                problems.append(f"{' '.join(op.argv)}: output differs between rounds")
    return failed, problems


def mean_wall(rounds: list[dict]) -> float:
    return sum(r["wall"] for r in rounds) / len(rounds)


def end_to_end(rounds: list[dict]) -> dict:
    """Per-round means over the whole run: the host's speed drifts over
    seconds, so the mean of all rounds repeats better than any one round."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    wall = sum(r["wall"] for r in rounds)
    return {
        "wall_s": (mean_wall(rounds), "s"),
        "cpu_s": (sum(r["cpu"] for r in rounds) / len(rounds), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "rows_per_s": (sum(r["rows"] for r in rounds) / wall, "rows/s"),
        "op_ms.p50": (1e3 * statistics.median(x for r in rounds for x in r["latencies"]), "ms"),
    }


def per_layer(stats: dict, n_rounds: int, overhead_pct: float) -> dict:
    """Per-layer metrics from the span totals of `n_rounds` traced rounds."""
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def per(name, num="total", den="calls", scale=1e6):
        d = get(name, den)
        return get(name, num) / d * scale if d else 0.0

    def per_round(name, key="calls"):
        return get(name, key) // n_rounds

    rows = get("cli.trajectory_rows", "rows")
    write_s = get("cli.write_table", "total")
    iteration = "engine.steady_state_by_iteration"
    phi = "engine.collision_map_superoperator"
    return {
        "config.parse_run_config.us": (per("config.parse_run_config"), "us/call"),
        "config.sweep_points.ms": (per("config.sweep_points", scale=1e3), "ms/sweep"),
        "model.collision_unitary.us": (per("model.collision_unitary"), "us/call"),
        "model.collision_unitary.calls": (per_round("model.collision_unitary"), "count"),
        "engine.run.us_per_collision": (per("engine.run", den="collisions"), "us/collision"),
        phi + ".us": (per(phi), "us/call"),
        phi + ".calls": (per_round(phi), "count"),
        "engine.propagate_collisions.us": (per("engine.propagate_collisions"), "us/call"),
        "engine.propagate_collisions.calls": (per_round("engine.propagate_collisions"), "count"),
        iteration + ".ms": (per(iteration, scale=1e3), "ms/call"),
        iteration + ".failed": (per_round(iteration, "failed"), "count"),
        "lindblad.steady_state_of.us": (per("lindblad.steady_state_of"), "us/call"),
        "lindblad.steady_state_of.calls": (per_round("lindblad.steady_state_of"), "count"),
        "thermo.ledger_record.us": (per("thermo.ledger_record"), "us/collision"),
        "thermo.currents.us_per_row": (per("thermo.currents"), "us/row"),
        "observables.row.us_per_row": (get("observables.row", "total") / rows * 1e6
                                       if rows else 0.0, "us/row"),
        "observables.make_report.us": (per("observables.make_report"), "us/call"),
        "linalg.clamp_to_density.us": (per("linalg.clamp_to_density"), "us/call"),
        "linalg.clamp_to_density.calls": (per_round("linalg.clamp_to_density"), "count"),
        "cli.trajectory_rows.self_us_per_row": (per("cli.trajectory_rows", "self", "rows"),
                                                "us/row"),
        "cli.write_table.us_per_row": (per("cli.write_table", den="rows"), "us/row"),
        "cli.write_table.mb_per_s": (get("cli.write_table", "bytes") / write_s / 1e6
                                     if write_s else 0.0, "MB/s"),
        "cli.write_table.bytes": (per_round("cli.write_table", "bytes"), "bytes"),
        "cli.sweep.self_s": (per("cli.sweep", "self", scale=1.0), "s"),
        "cli.steady.self_ms": (per("cli.steady", "self", scale=1e3), "ms/call"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "collisim", "__init__.py")):
        print(f"collisim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from collisim.cli import main as cli_main

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        ops = build_ops(args.workload, args.seed, work)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if not args.trace:
            rounds = run_rounds(cli_main, ops, args.seconds)
            metrics = end_to_end(rounds)
            n_rounds = len(rounds)
        else:
            import spans
            plain = run_rounds(cli_main, ops, args.seconds / 2)
            tracer = spans.Tracer(os.path.join(work, "spans"))
            spans.install(tracer)
            try:
                traced = run_rounds(cli_main, ops, args.seconds / 2)
            finally:
                tracer.unpatch()
            overhead = 100.0 * (mean_wall(traced) / mean_wall(plain) - 1.0)
            metrics = per_layer(tracer.stats, len(traced), overhead)
            n_rounds = len(plain) + len(traced)
            with open(os.path.join(OUT, f"trace_{args.workload}_{args.seed}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"rounds": len(traced), "spans": tracer.stats}, fh, indent=1,
                          sort_keys=True)
        failed, problems = check_outputs(ops)
        for p in problems[:20]:
            print(f"check failed: {p}", file=sys.stderr)
        result = {"correct": not problems, "attempted": n_rounds * len(ops), "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

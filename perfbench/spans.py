"""Per-layer spans around collisim's public functions.

Each function is wrapped where the calling module looks it up (for example
`collisim.cli.run`, the binding of `engine.run` that the CLI calls), so the
span sits at the layer boundary and the program itself is unchanged. A span
records its duration and the part of it that its child spans cover; the
difference is its self time. Spans are aggregated in memory per name.

Sweep pool workers are forked from the traced process and inherit the
wrappers. Each worker writes its aggregates and the intervals of its sweep
points to a file after every point; the sweep span merges them when it
ends and counts the time that worker points cover as child time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict


def _new_stat() -> dict:
    return {"calls": 0, "total": 0.0, "self": 0.0, "failed": 0}


def _union_length(intervals: list) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class Tracer:
    def __init__(self, worker_dir: str):
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        os.makedirs(worker_dir, exist_ok=True)
        self.worker_pid: int | None = None
        self.stack: list[list] = []           # open spans: [name, child seconds]
        self.stats: dict[str, dict] = defaultdict(_new_stat)
        self.points: list = []
        self._undo: list = []

    def span(self, name, fn, units=None):
        """Wrap fn in a span. `name` is a string, or a function of the parent
        span's name; `units(args, result)` returns counts to add (rows, bytes)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(tracer.stack[-1][0] if tracer.stack else None) if callable(name) else name
            frame = [label, 0.0]
            tracer.stack.append(frame)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                elapsed = time.perf_counter() - t0
                tracer.stack.pop()
                st = tracer.stats[label]
                st["calls"] += 1
                st["total"] += elapsed
                st["self"] += elapsed - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
                if not ok:
                    st["failed"] += 1
                elif units is not None:
                    for key, value in units(args, out).items():
                        st[key] = st.get(key, 0) + value
        return wrapper

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name, units=None) -> None:
        self.replace(owner, attr, self.span(name, getattr(owner, attr), units))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def sweep_point(self, fn):
        """Wrap the sweep-point function: in a forked pool worker, keep only
        the worker's own spans and write them out after every point."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(doc):
            if os.getpid() == tracer.pid:
                return fn(doc)
            if tracer.worker_pid != os.getpid():    # first point in this worker
                tracer.worker_pid = os.getpid()
                tracer.stack.clear()
                tracer.stats.clear()
                tracer.points = []
            t0 = time.perf_counter()
            out = fn(doc)
            tracer.points.append((t0, time.perf_counter()))
            path = os.path.join(tracer.worker_dir, f"{tracer.worker_pid}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"stats": tracer.stats, "points": tracer.points}, fh)
            return out
        return wrapper

    def merge_workers(self) -> None:
        """Fold worker files into the stats. Worker points are child time of
        the span that is open here (the sweep)."""
        intervals = []
        for fname in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, fname)
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            os.remove(path)
            for label, st in doc["stats"].items():
                mine = self.stats[label]
                for key, value in st.items():
                    mine[key] = mine.get(key, 0) + value
            intervals += doc["points"]
        self.stats["cli.sweep_point"]["worker_calls"] = (
            self.stats["cli.sweep_point"].get("worker_calls", 0) + len(intervals))
        if intervals and self.stack:
            self.stack[-1][1] += _union_length(intervals)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of collisim that the CLI reaches."""
    from collisim import cli, config, engine, lindblad, observables, thermo

    p = tracer.patch
    p(config, "parse_run_config", "config.parse_run_config")
    p(cli, "parse_run_config", "config.parse_run_config")
    p(config.SweepConfig, "points", "config.sweep_points")
    p(engine, "collision_unitary", "model.collision_unitary")
    p(cli, "run", "engine.run", lambda args, out: {"collisions": len(out.states) - 1})
    p(engine, "collision_map_superoperator", "engine.collision_map_superoperator")
    p(cli, "propagate_collisions", "engine.propagate_collisions")
    p(cli, "steady_state_by_iteration", "engine.steady_state_by_iteration")
    p(cli, "steady_state_of", "lindblad.steady_state_of")
    p(thermo.ThermoLedger, "record", "thermo.ledger_record")
    p(engine, "clamp_to_density", "linalg.clamp_to_density")
    p(lindblad, "clamp_to_density", "linalg.clamp_to_density")
    p(observables, "make_report", "observables.make_report")
    p(lindblad, "make_report", "observables.make_report")

    def row_or_point(parent):
        # per-row observables of a trajectory table, apart from grid points
        return "observables.row" if parent == "cli.trajectory_rows" else "observables.point"
    for attr in ("_safe_beta_eff", "l1_coherence", "ergotropy"):
        p(cli, attr, row_or_point)

    evaluators = cli.current_evaluators
    tracer.replace(cli, "current_evaluators", tracer.span(
        "thermo.current_evaluators",
        lambda *a, **k: tracer.span("thermo.currents", evaluators(*a, **k))))

    p(cli, "trajectory_rows", "cli.trajectory_rows", lambda args, out: {"rows": len(out)})

    def written(args, out):
        return {"rows": len(args[2]), "bytes": os.path.getsize(args[0])}
    p(cli, "write_table", "cli.write_table", written)
    p(cli, "_write_mixed_table", "cli.write_table", written)
    tracer.replace(cli, "_sweep_point_safe", tracer.sweep_point(cli._sweep_point_safe))

    sweep = cli.cmd_sweep

    def cmd_sweep(*args, **kwargs):
        try:
            return sweep(*args, **kwargs)
        finally:
            tracer.merge_workers()
    tracer.replace(cli, "cmd_sweep", tracer.span("cli.sweep", cmd_sweep))
    for attr, label in (("cmd_run", "cli.run"), ("cmd_steady", "cli.steady"),
                        ("cmd_fig3", "cli.fig3"), ("cmd_fig5", "cli.fig5"),
                        ("cmd_ergotropy_surface", "cli.ergotropy_surface")):
        p(cli, attr, label)

"""Benchmark of the collisim CLI: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; collisim is imported from ./src.
Set-up time is measured over SETUP_SAMPLES fresh processes (interpreter
start, `import collisim`, input generation); the last of them goes on to
run the workload. With --trace 0 the result holds the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("trajectory", "figures", "sweep", "steady")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def _start(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns it and the set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not set up (exit {proc.returncode})")
    return proc, elapsed


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker; kill it if it outlives the timeout. Returns its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    started = time.perf_counter()

    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, elapsed = _start(common + ["--setup-only"])
        _finish(proc, 60.0)
        samples.append(elapsed)
    proc, elapsed = _start(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    samples.append(elapsed)
    out = _finish(proc, max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Paired benchmark runs of a parent commit against the working tree.

    python tools/bench_pairs.py --parent HEAD --out BENCH_22.json     # uncommitted change
    python tools/bench_pairs.py --parent HEAD~1 --out BENCH_22.json   # committed change

Runs perfbench/run.py unchanged, once from the committed files of the parent
(exported with `git archive` into a temporary directory, which is removed
afterwards) and once from the working tree, for every workload of
BENCHMARK.json, for PAIRS pairs of SECONDS-second runs at --trace 0. Pair k
runs both sides at seed k, the parent first for odd k and the change first
for even k. The JSON written holds the machine, both commits (the change
side is HEAD plus any uncommitted edits under src/ or perfbench/, the files
the runs read), the line counts of src/, and for each workload: per
end-to-end metric of BENCHMARK.json each side's median and quartiles and the
pairs the change won (ties count for neither side), and per side the output
checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
SECONDS = 8.0


def git(*args: str, cwd: str = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def uncommitted(checkout: str = ROOT) -> bool:
    """Whether the files that the runs read, src/ and perfbench/, differ from HEAD."""
    return bool(git("status", "--porcelain", "--", "src", "perfbench", cwd=checkout))


def export(commit: str, dest: str) -> None:
    """Write the files of commit into dest, as a fresh checkout has them."""
    tree = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                          capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=tree, check=True)


def src_lines(checkout: str) -> dict[str, int]:
    """Line count of each Python file under src/, and their total."""
    counts = {}
    for folder, _, files in os.walk(os.path.join(checkout, "src")):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    counts[os.path.relpath(path, checkout)] = sum(1 for _ in fh)
    return dict(sorted(counts.items()), total=sum(counts.values()))


def machine() -> dict:
    info = {"python": platform.python_version(), "platform": platform.platform(),
            "cpus": os.cpu_count()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for module in ("numpy", "scipy"):
        try:
            info[module] = __import__(module).__version__
        except ImportError:
            pass
    return info


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One perfbench/run.py result, from the root of checkout."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {proc.returncode}:\n"
                           + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per-side statistics and pairs won, from runs[side] = [result of pair k, ...]."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in results]
                  for side, results in runs.items()}
        sign = 1 if spec["better"] == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        out[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                     "parent": quartiles(values["parent"]),
                     "change": quartiles(values["change"]),
                     "pairs_won": won, "pairs": len(values["parent"])}
    out["checks"] = {}
    for side, results in runs.items():
        out["checks"][side] = {"correct": all(r["correct"] for r in results),
                               "failed": sum(r["failed"] for r in results),
                               "attempted": sum(r["attempted"] for r in results)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    parent = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export(parent, tmp)
        sides = {"parent": tmp, "change": ROOT}
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for seed in range(1, PAIRS + 1):
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for workload in workloads:
                for side in order:
                    result = run_once(sides[side], workload, seed)
                    runs[workload][side].append(result)
                    print(f"pair {seed} {workload} {side}: "
                          f"wall_s {result['metrics']['wall_s']['value']:.4g}", flush=True)
        lines = {"parent": src_lines(tmp), "change": src_lines(ROOT)}
    doc = {"machine": machine(),
           # the change side is HEAD plus any uncommitted edits of the working tree
           "commits": {"parent": parent, "change": git("rev-parse", "HEAD"),
                       "change_uncommitted": uncommitted()},
           "src_lines": lines,
           "settings": {"pairs": PAIRS, "seconds": SECONDS, "trace": 0,
                        "seeds": f"1..{PAIRS}", "first": "parent on odd seeds"},
           "workloads": {w: summarize(runs[w], bench["end_to_end"]) for w in workloads}}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

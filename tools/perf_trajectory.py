#!/usr/bin/env python3
"""Append one perfbench entry for a checkout to the trajectory in BENCH_perfbench.json.

Usage:
    perf_trajectory.py [--root DIR]

For each of perfbench's workloads the script runs

    python3 perfbench/run.py --workload W --seed 7 --seconds 10.0

three times untraced and once with --trace 1, in the checkout at --root
(default: the checkout holding this script), and appends one entry to
BENCH_perfbench.json in the checkout holding this script. The seed, run
length and run count are fixed, so that any two entries from one machine
measure the same thing. An entry holds:

- the commit (perfbench's `git:` hash of HEAD; "dirty" is true when src/ or
  perfbench/ differ from it) and perfbench's `src:` digest of src/ and
  perfbench/, which names the measured code whether or not it is committed;
- the machine: CPU model and nproc, from perfbench's `# nproc=... cpu=...`
  header, and the seed, run length and run count;
- per workload, the median, min and max of each end-to-end metric over the
  untraced runs, and their summed attempted/failed operations;
- per workload, the traced run's self time per layer in ms (perfbench's
  "per-layer self time" table) and its total, the traced job time.

It then prints each workload's change against the previous entry with the
same machine, seed, run length and run count, and names the layer whose
self time moved most. A run that exits nonzero or reports "correct": false
stops the script before anything is appended. Only python3's standard
library is used.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

WORKLOADS = ("reproduce", "retrain", "fleet")
SEED = 7
SECONDS = 10.0
RUNS = 3
HEADER_RE = re.compile(r'^# nproc=(\d+) cpu="([^"]*)"')
COMMIT_RE = re.compile(r"commit=git:([^,\s]+),src:(\S+)")
LAYER_RE = re.compile(r"^(\S+)\s+\|\s+([-0-9.]+)\s+\|\s+[-0-9.]+%$")


def run_perfbench(root, workload, trace):
    """Run perfbench once; returns (header, result JSON, self-time table)."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_trajectory: {' '.join(cmd[1:])} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"perf_trajectory: {workload} reported incorrect output")
    header = {}
    layers = {}
    in_table = False
    for line in lines:
        if m := HEADER_RE.match(line):
            header["nproc"], header["cpu"] = int(m.group(1)), m.group(2)
        if m := COMMIT_RE.search(line):
            header["commit"], header["src"] = m.group(1), m.group(2)
        if line.startswith("per-layer self time,"):
            in_table = True
        elif in_table and (m := LAYER_RE.match(line)):
            layers[m.group(1)] = float(m.group(2))
        elif in_table and line.startswith("spans:"):
            in_table = False
    return header, result, layers


def worktree_dirty(root):
    """True when src/ or perfbench/ differ from HEAD (False outside git)."""
    try:
        out = subprocess.run(["git", "-C", root, "status", "--porcelain", "--",
                              "src", "perfbench"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return False
    return out.returncode == 0 and out.stdout.strip() != ""


def measure(root, workload):
    values = {}
    units = {}
    attempted = failed = 0
    for i in range(RUNS):
        print(f"perf_trajectory: {workload} untraced run {i + 1}/{RUNS}", file=sys.stderr)
        header, result, _ = run_perfbench(root, workload, 0)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"perf_trajectory: {workload} traced run", file=sys.stderr)
    _, _, layers = run_perfbench(root, workload, 1)
    traced_job_ms = layers.pop("total")
    end_to_end = {
        name: {"median": statistics.median(v), "min": min(v), "max": max(v),
               "unit": units[name]}
        for name, v in values.items()
    }
    return header, {
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "layer_self_ms": layers,
        "traced_job_ms": traced_job_ms,
    }


def describe(entry):
    dirty = " (uncommitted changes)" if entry.get("dirty") else ""
    return f"{entry['commit']}{dirty}, src {entry['src']}"


def settings(entry):
    """What two entries must share to be compared."""
    return (entry["machine"], entry["seed"], entry["seconds"], entry["runs"])


def compare(previous, entry):
    print(f"\nagainst the previous entry from this machine: {describe(previous)}")
    for workload, now in entry["workloads"].items():
        before = previous["workloads"].get(workload)
        if before is None:
            print(f"{workload}: not in the previous entry")
            continue
        print(f"{workload}:")
        for name, metric in now["end_to_end"].items():
            old = before["end_to_end"].get(name)
            if old is None:
                continue
            change = ""
            if old["median"] != 0:
                change = f"{100.0 * (metric['median'] / old['median'] - 1.0):+7.2f}%"
            print(f"  {name:<16} median {old['median']:>14.6g} -> "
                  f"{metric['median']:<14.6g} {metric['unit']:<4} {change}")
        moved = {
            layer: ms - before["layer_self_ms"].get(layer, 0.0)
            for layer, ms in now["layer_self_ms"].items()
        }
        for layer, ms in before["layer_self_ms"].items():
            moved.setdefault(layer, -ms)
        layer = max(moved, key=lambda name: abs(moved[name]))
        old_ms = before["layer_self_ms"].get(layer, 0.0)
        new_ms = now["layer_self_ms"].get(layer, 0.0)
        print(f"  layer that moved most: {layer} {old_ms:.3f} -> {new_ms:.3f} ms "
              f"({moved[layer]:+.3f} ms per traced job)")


def main():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=here, help="checkout to measure")
    root = os.path.abspath(parser.parse_args().root)
    out = os.path.join(here, "BENCH_perfbench.json")

    entry = {"commit": "none", "dirty": worktree_dirty(root), "src": "none",
             "machine": {}, "seed": SEED, "seconds": SECONDS, "runs": RUNS,
             "workloads": {}}
    for workload in WORKLOADS:
        header, measured = measure(root, workload)
        entry["commit"] = header.get("commit", "none")
        entry["src"] = header.get("src", "none")
        entry["machine"] = {"cpu": header.get("cpu", "unknown"),
                            "nproc": header.get("nproc", 0)}
        entry["workloads"][workload] = measured

    trajectory = []
    if os.path.isfile(out):
        with open(out) as fh:
            trajectory = json.load(fh)
    previous = next((e for e in reversed(trajectory)
                     if settings(e) == settings(entry)), None)
    trajectory.append(entry)
    with open(out, "w") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    print(f"appended entry {len(trajectory)} to {out}: {describe(entry)}, "
          f"machine {entry['machine']['cpu']} x{entry['machine']['nproc']}")
    if previous is None:
        print(f"no previous entry from this machine at seed {SEED}, {SECONDS} s "
              f"runs and {RUNS} runs per workload to compare against")
    else:
        compare(previous, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())

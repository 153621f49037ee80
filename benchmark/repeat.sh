#!/usr/bin/env bash
# Repeatability self-check: run the whole benchmark N times (default 3) on
# this tree, each time with another seed as the driver does, and print per
# workload and end-to-end metric the min, max and spread of the N values.
# The spread is the distance between the first and the third quartile as a
# share of the median (Python's statistics.quantiles, n=4).  Fails if any
# spread exceeds the metric's bound in BENCHMARK.json; setup_s is printed
# but, as in the driver's own check, does not fail the run.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-3}" <<'PY'
import json, statistics, subprocess, sys

runs = int(sys.argv[1])
if runs < 2:
    sys.exit("repeat.sh needs at least 2 runs to take a spread")
manifest = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
subprocess.run(["cargo", "build", "--release", "--offline", "--manifest-path", "benchmark/Cargo.toml"], check=True)

over = []
for workload in (w["name"] for w in manifest["workloads"]):
    values = {name: [] for name in bounds}
    for seed in range(1, runs + 1):
        command = manifest["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, check=True, capture_output=True, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} epochs failed")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    print(f"{workload}  ({runs} runs)")
    for name, seen in values.items():
        q1, _, q3 = statistics.quantiles(seen, n=4)
        spread = (q3 - q1) / statistics.median(seen)
        verdict = "ok" if spread <= bounds[name] else "not gated" if name == "setup_s" else "OVER"
        print(f"  {name:22s} min {min(seen):<14.6g} max {max(seen):<14.6g} "
              f"spread {spread:7.2%}  bound {bounds[name]:4.0%}  {verdict}")
        if verdict == "OVER":
            over.append(f"{workload}/{name}")
if over:
    sys.exit("spread over the bound: " + ", ".join(over))
PY

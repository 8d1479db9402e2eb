#!/usr/bin/env python3
"""Runs the benchmark ten times on each workload, each time with another seed,
and prints for every end-to-end metric the median, the quartiles and the
spread (q3 - q1) / median, as statistics.quantiles(values, n=4) gives them:
the figure BENCHMARK.json's bounds are chosen from. Run it from the root of
the checkout:  python3 bench/spread.py [first_seed] [runs] [log_dir] > spread.txt
With log_dir, the full output of every run is kept there.
"""
import json
import statistics
import subprocess
import sys

first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
log_dir = sys.argv[3] if len(sys.argv) > 3 else None
spec = json.load(open("BENCHMARK.json"))
for w in spec["workloads"]:
    values = {}
    for seed in range(first, first + runs):
        cmd = spec["command"] + ["--workload", w["name"], "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if log_dir:
            with open(f"{log_dir}/{w['name']}-{seed}.txt", "w") as f:
                f.write(done.stdout + done.stderr)
        if done.returncode != 0:
            print("#", w["name"], "seed", seed, "FAILED:", done.stderr.strip(), flush=True)
            continue
        res = json.loads(done.stdout.strip().splitlines()[-1])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("#", w["name"], "seed", seed, {k: round(v[-1], 3) for k, v in values.items()}, flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f'{w["name"]:16} {m["name"]:15} median {med:11.3f} q1 {q1:11.3f} q3 {q3:11.3f} '
              f'spread {100 * (q3 - q1) / med:5.1f} %  bound {100 * m["bound"]:4.1f} %', flush=True)

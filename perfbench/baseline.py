#!/usr/bin/env python3
"""Runs every workload on several seeds and records the spread of each metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Workloads alternate within each seed, so slow periods of a shared host
fall on all of them alike. For every end-to-end metric the output holds
the median, the quartiles (statistics.quantiles, n=4), and the spread:
the distance between the quartiles as a share of the median. Each
metric's bound in BENCHMARK.json should be at least three times its
spread. Every run must report "correct": true.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w["name"]: [] for w in spec["workloads"]}
    for seed in args.seeds:
        for workload in runs:
            start = time.time()
            out = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            result = json.loads(out.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed} is not correct:\n{out}")
            metrics = {n: v["value"] for n, v in result["metrics"].items()}
            runs[workload].append({"seed": seed, "metrics": metrics})
            print(f"{workload} seed {seed} ({time.time() - start:.0f} s): "
                  + ", ".join(f"{n} {v:.5g}" for n, v in metrics.items()),
                  flush=True)

    summary = {}
    for workload, rows in runs.items():
        summary[workload] = {}
        for name in bounds:
            s = summarize([r["metrics"][name] for r in rows])
            summary[workload][name] = s
            print(f"{workload:14s} {name:18s} median {s['median']:.5g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]})")
    baseline = {
        "host": {"machine": platform.machine(), "processor": cpu_model(),
                 "cpus": os.cpu_count(), "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "summary": summary,
        "runs": runs,
    }
    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    main()

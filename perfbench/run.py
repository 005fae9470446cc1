#!/usr/bin/env python3
"""StrataIB benchmark: builds the driver, runs one workload, prints metrics.

    python3 perfbench/run.py --workload ib_dense --seed 1 --seconds 25 --trace 0

Run from the root of a source tree. The driver (perfbench.cpp) is built
from source into $CARGO_TARGET_DIR/perfbench (default .bench_build) and
does the measuring; this script turns its raw document into the metrics
listed in BENCHMARK.json, checks the modeled digests against
reference.json, and prints a readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md). Exit codes: 0 on a finished run (even an incorrect one,
which the JSON line reports), 2 on bad arguments or a STRATAIB_* knob in
the environment, 1 when the build or the driver fails.

--update-reference records this run's modeled digests in reference.json
instead of checking them (the service sessions' digest is stored per seed).
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("ib_dense", "loop_dense", "code_churn", "tenant_warm")

# Percentiles the tail metric may report, highest last.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Cycle categories reported as arch.cycles.<name> shares.
CYCLE_CATEGORIES = {
    "app": "cycles.app",
    "translate": "cycles.translate",
    "dispatch": "cycles.dispatch",
    "iblookup": "cycles.ib-lookup",
    "link": "cycles.link",
    "snapshotload": "cycles.snapshot-load",
}
SPAN_LAYERS = ("bench", "workloads", "vm", "core", "service")


# --- Statistics ----------------------------------------------------------


def nearest_rank(count, pct):
    """1-based nearest rank of percentile `pct` among `count` samples."""
    tenths = round(pct * 10)  # integer arithmetic: no 0.9 * 100 rounding
    return max(1, -(-tenths * count // 1000))


def tail_percentile(values):
    """The highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond, sample count). With fewer
    than twenty samples no percentile qualifies and the median is
    returned with however many samples lie beyond it.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("tail_percentile of no samples")
    best = None
    for pct in TAIL_LADDER:
        rank = nearest_rank(len(xs), pct)
        beyond = len(xs) - rank
        if beyond >= TAIL_MIN_BEYOND or best is None:
            best = (pct, xs[rank - 1], beyond, len(xs))
    return best


def geomean(values):
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def valid_metric_name(name):
    return METRIC_NAME.fullmatch(name) is not None


def ratio(num, den):
    return num / den if den else 0.0


# --- Build and run -----------------------------------------------------------


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures and builds incrementally. Output goes to stderr."""
    out = build_dir()
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j4"], check=True,
                   stdout=sys.stderr)
    return out / "strataib_perfbench"


def run_driver(binary, args):
    """Runs the driver and returns its document; exits with its code if
    it fails. A driver that overruns by 100 s is killed (exit 1)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                str(build_dir() / f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 100)
    except subprocess.TimeoutExpired:
        print("perfbench: the driver did not finish in time", file=sys.stderr)
        sys.exit(1)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return json.loads(proc.stdout)


# --- Metrics -----------------------------------------------------------------


def reference_key(raw, label):
    """Cell digests do not depend on the seed; the session digest does."""
    return f"seed:{raw['seed']}" if label == "trace" else label


def drift(raw, reference):
    """(cells whose digest differs from the reference, cells unchecked)."""
    expected = reference.get(raw["workload"], {})
    drifted = unchecked = 0
    for label, digest in raw["digests"].items():
        want = expected.get(reference_key(raw, label))
        if want is None:
            unchecked += 1
        elif want != digest:
            drifted += 1
    return drifted, unchecked


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def modeled_slowdown(modeled):
    """Geo-mean over cells of translated over native cycles.

    A cell's slowdown is the geo-mean of its operations: one run per
    translated cell, and all of a tenant's sessions for a tenant, so the
    seeded admission mix does not weight popular tenants more.
    """
    by_cell = {}
    for sdt, native, cell in modeled:
        by_cell.setdefault(cell, []).append(sdt / native)
    return geomean(geomean(v) for v in by_cell.values())


def best_by_operation(samples, traced=False):
    """{operation: (guest instructions, fastest ns)} over the passes.

    Other load on a shared host slows single passes by up to 2x for
    seconds at a time; the fastest of an operation's passes is the one
    least disturbed, so it is what the end-to-end host times are made of.
    """
    best = {}
    for op, _pass, instrs, ns, was_traced in samples:
        if was_traced == traced and (op not in best or ns < best[op][1]):
            best[op] = (instrs, ns)
    return best


def mips(best):
    return sum(i for i, _ in best.values()) / sum(n for _, n in best.values()) * 1e3


def ns_per_instr_by_cell(raw, best):
    """Host ns per guest instruction of each cell.

    A cell's relative cost in a pass is its ns per instruction over the
    whole pass's. Its figure is the median of that over the untraced
    passes, times the workload's ns per instruction from the operations'
    fastest passes (1000 / guest_mips). A slow CPU or period stretches
    every cell of a pass alike, so it cancels out of the relative cost,
    whereas a single cell's fastest pass depends on whether that one
    cell happened to run in a quiet moment.

    A tenant's sessions add up to one cell, as in modeled_slowdown: the
    slowest single session out of ~20 similar ones is an extreme of
    noise, not a property of the simulator.
    """
    passes = {}
    for op, pass_id, instrs, ns, traced in raw["samples"]:
        if traced:
            continue
        cell = raw["operations"][op][1]
        c = passes.setdefault(pass_id, {}).setdefault(cell, [0, 0])
        c[0] += instrs
        c[1] += ns
    relative = {}
    for cells in passes.values():
        whole = (sum(ns for _, ns in cells.values())
                 / sum(i for i, _ in cells.values()))
        for cell, (instrs, ns) in cells.items():
            relative.setdefault(cell, []).append(ns / instrs / whole)
    workload = 1e3 / mips(best)
    return {cell: workload * statistics.median(r)
            for cell, r in relative.items()}


def end_to_end(raw):
    best = best_by_operation(raw["samples"])
    per_instr = ns_per_instr_by_cell(raw, best)
    slowest = max(per_instr, key=per_instr.get)
    passes = sum(1 for p in raw["passes"] if not p["traced"])
    metrics = {
        "guest_mips": (mips(best), "Minstr/s"),
        "ns_per_instr_p50": (statistics.median(per_instr.values()), "ns"),
        "ns_per_instr_tail": (per_instr[slowest], "ns"),
        "setup_s": (median_of(raw["setup"], "total_ns") / 1e9, "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "modeled_slowdown": (modeled_slowdown(raw["modeled"]), "x"),
    }
    notes = {
        "guest_mips": f"{len(best)} operations, fastest of {passes} passes each",
        "ns_per_instr_p50": f"median of {len(per_instr)} cells",
        "ns_per_instr_tail": f"slowest cell: {slowest}",
        "setup_s": f"median of {len(raw['setup'])} set-ups",
    }
    return metrics, notes


def all_samples_percentiles(raw):
    """Median and ladder tail of host ns per guest instruction over every
    untraced (operation, pass) sample, with the tail's note."""
    per_instr = [s[3] / s[2] for s in raw["samples"] if not s[4]]
    pct, tail, beyond, count = tail_percentile(per_instr)
    return (statistics.median(per_instr), tail,
            f"p{pct:g} of {count} samples, {beyond} beyond")


def per_layer(raw, drifted):
    c = raw["counters"]
    d = raw["differential"]
    setup = raw["setup"]
    passes = raw["passes"]
    native_ms = median_of(setup, "native_ns") / 1e6
    run_ns = median_of(passes, "run_ns")
    run_trace_ns = median_of(passes, "run_trace_ns")
    inside_ns = run_ns + run_trace_ns
    total_cycles = sum(v for k, v in c.items() if k.startswith("cycles."))
    raw_p50, raw_tail, raw_note = all_samples_percentiles(raw)

    m = {
        "workloads.build_ms": (median_of(setup, "build_ns") / 1e6, "ms"),
        "vm.native_ms": (native_ms, "ms"),
        "vm.native_mips": (raw["native_instrs"] / native_ms / 1e3, "Minstr/s"),
        "arch.native_timing_ms": (
            native_ms - median_of(setup, "native_untimed_ns") / 1e6, "ms"),
    }
    for name, key in CYCLE_CATEGORIES.items():
        m[f"arch.cycles.{name}"] = (ratio(c.get(key, 0), total_cycles), "share")
    m.update({
        "core.create_ms": (median_of(passes, "create_ns") / 1e6, "ms"),
        "core.run_ms": (run_ns / 1e6, "ms"),
        "core.ib_execs": (c["ib_execs"], "count"),
        "core.dispatch_entries": (c["dispatch_entries"], "count"),
        "core.mech_lookups": (c.get("mech_lookups", 0), "count"),
        "core.mech_hit_rate": (ratio(c.get("mech_hits", 0),
                                     c.get("mech_lookups", 0)), "ratio"),
        "core.ns_per_ib": (ratio(inside_ns, c["ib_execs"]), "ns"),
        "core.fragments_translated": (c["fragments_translated"], "count"),
        "core.us_per_fragment": (
            ratio(inside_ns / 1e3, c["fragments_translated"]), "us"),
        "core.code_write_invalidations": (c["code_write_invalidations"], "count"),
        "core.fragments_invalidated_by_write": (
            c["fragments_invalidated_by_write"], "count"),
        "exec.plans_built": (c.get("plans_built", 0), "count"),
        "exec.plans_rebuilt": (c.get("plans_rebuilt", 0), "count"),
        "exec.rebuild_ratio": (ratio(c.get("plans_rebuilt", 0),
                                     c.get("plans_built", 0)), "ratio"),
        "exec.legacy_fragments": (c.get("legacy_fragments", 0), "count"),
        "exec.static_fused_share": (
            ratio(c.get("fused_ops", 0),
                  c.get("fused_ops", 0) + c.get("step_ops", 0)), "share"),
        "exec.plan_speedup": (plan_speedup(raw), "ratio"),
        "exec.engine_deopt_cells": (raw["engine_deopt_cells"], "count"),
        "cachemgr.flushes": (c["flushes"], "count"),
        "cachemgr.partial_evictions": (c["partial_evictions"], "count"),
        "cachemgr.evicted_bytes": (c["evicted_bytes"], "bytes"),
        "cachemgr.retranslations": (c["retranslations"], "count"),
        "cachemgr.links_unlinked": (c["links_unlinked"], "count"),
        "opt.traces_built": (c["traces_built"], "count"),
        "opt.traces_optimized": (c["traces_optimized"], "count"),
        "opt.trace_instrs_eliminated": (c["trace_instrs_eliminated"], "count"),
        "opt.spec_guard_hit_rate": (
            ratio(c["spec_guard_hits"],
                  c["spec_guard_hits"] + c["spec_guard_misses"]), "ratio"),
        "service.register_ms": (median_of(passes, "register_ns") / 1e6, "ms"),
        "service.run_trace_ms": (run_trace_ns / 1e6, "ms"),
        "service.warm_share": (ratio(c.get("warm_sessions", 0),
                                     c.get("sessions", 0)), "share"),
        "service.snapshot_errors": (c.get("snapshot_errors", 0), "count"),
        "service.snapshot_bytes": (d["snapshot_bytes"], "bytes"),
        "service.encode_us": (d["encode_ns"] / 1e3, "us"),
        "service.decode_us": (d["decode_ns"] / 1e3, "us"),
        "core.prewarm_ms": (d["prewarm_ns"] / 1e6, "ms"),
        "core.rehydrated_fragments": (c["rehydrated_fragments"], "count"),
        "raw.ns_per_instr_p50": (raw_p50, "ns"),
        "raw.ns_per_instr_tail": (raw_tail, "ns"),
        "trace.overhead_pct": (tracing_overhead_pct(raw), "%"),
        "modeled_drift_cells": (drifted, "count"),
    })
    for layer in SPAN_LAYERS:
        m[f"self_ms.{layer}"] = (raw["self_ns"].get(layer, 0) / 1e6, "ms")
    return m, {"raw.ns_per_instr_tail": raw_note}


def plan_speedup(raw):
    """Switch-engine run time over plan-engine run time, summed over cells.

    Each cell's plan time is its median over the run's passes.
    """
    switch = raw["differential"]["switch_ns"]
    if not switch:
        return 0.0
    by_cell = {}
    for s in raw["samples"]:
        by_cell.setdefault(s[0], []).append(s[3])
    plan = sum(statistics.median(by_cell[i]) for i in range(len(switch)))
    return sum(switch) / plan


def tracing_overhead_pct(raw):
    """How much slower recorded passes ran than unrecorded ones."""
    untraced = best_by_operation(raw["samples"], traced=False)
    traced = best_by_operation(raw["samples"], traced=True)
    return (ratio(mips(untraced), mips(traced)) - 1.0) * 100.0


# --- Report ------------------------------------------------------------------


def report(args, raw, metrics, notes, drifted, unchecked):
    print(f"StrataIB benchmark: workload {raw['workload']}, seed {raw['seed']}, "
          f"{'traced' if args.trace else 'untraced'} run, "
          f"{len(raw['passes'])} measured passes")
    print(f"operations: {raw['failed']} failed of {raw['attempted']} attempted")
    for f in raw["failures"]:
        print(f"  FAILED {f}")
    print(f"modeled_drift_cells: {drifted} "
          f"({unchecked} cells not in reference.json)")
    print(f"exec.engine_deopt_cells: {raw['engine_deopt_cells']}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {value:14.6g} {unit}{note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [0, 600]")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    raw = run_driver(binary, args)

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.update_reference:
        entry = reference.setdefault(raw["workload"], {})
        for label, digest in raw["digests"].items():
            entry[reference_key(raw, label)] = digest
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")
    drifted, unchecked = drift(raw, reference)

    if args.trace:
        metrics, notes = per_layer(raw, drifted)
    else:
        metrics, notes = end_to_end(raw)
    assert all(valid_metric_name(n) for n in metrics)
    report(args, raw, metrics, notes, drifted, unchecked)

    correct = (raw["failed"] == 0 and drifted == 0
               and raw["nondeterministic_ops"] == 0
               and raw["engine_deopt_cells"] == 0)
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

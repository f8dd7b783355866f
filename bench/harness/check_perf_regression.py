#!/usr/bin/env python3
"""Compare a fresh perf_smoke run against the committed BENCH_perf.json.

Usage:
    check_perf_regression.py BASELINE.json CURRENT.json [--threshold=1.25]

Both files must be sjoin-perf-v7 documents. Rows are matched by (name,
workload, len, shards, threads, planner, sessions, offered_rate); engine
rows from perf_smoke carry no sessions/offered_rate and read as
sessions=1 / offered_rate=0. The raw per-row
ratio current/baseline of ns_per_step is normalized by the median ratio
across all matched rows before thresholding: CI machines are uniformly
slower or faster than the laptop that committed the baseline, and that
uniform shift carries no information about the code. A real regression
moves one row relative to the rest, which the normalized ratio isolates.

Only threads=1, sessions<=1 rows feed the median and the threshold:
multi-thread timings depend on the host's core count (a single-core
runner serializes every worker, a many-core one doesn't), and
multi-session serve timings depend on how the host schedules the worker
engines — so comparing either across machines measures the hardware, not
the code. threads>1 and sessions>1 rows are still matched and printed —
as "info" — and the serve rows' threads sweep is summarized after the
table as best-threads speedups over their own threads=1 row: the quick
read on whether scheduler workers pay off on this host (on a single-core
runner they won't, and that's expected). Engine rows from perf_smoke
always run inline and record threads=1; only serve rows (whose `threads`
counts scheduler workers) sweep it.

Serve rows (name SERVE-PROB, emitted by bench/serve_load)
carry `sessions` and `offered_rate` plus the per-step latency
percentiles p50_step_ns / p99_step_ns; the sessions=1 row is gated (it
is the scheduler-overhead anchor over a bare engine run) and the sweep
is summarized after the table — aggregate steps/s and the latency
percentiles per (sessions, rate, threads) cell.

Planner rows (multi-way rows with the runtime probe planner + score
memos attached) are gated like any other threads=1 row
and summarized after the table: per planner-on row, the steps/sec
speedup over its planner-off twin plus the probe skip rate, probe-cache
hit rate and checkpoint re-plan count. The planner is cost-only by
contract, so a planner pair disagreeing on counted_results in the
current run is a hard failure — that's a correctness bug, not a perf
question.

Exit status 1 if any normalized threads=1 ratio exceeds the threshold,
if a baseline row is missing from the current run, or if a planner pair
disagrees on counted_results.
"""

import json
import statistics
import sys


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "sjoin-perf-v7":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return {
        (r["name"], r["workload"], r["len"], r["shards"], r["threads"],
         r["planner"], r.get("sessions", 1), r.get("offered_rate", 0)): r
        for r in doc["results"]
    }


def describe(key):
    name, workload, length, shards, threads, planner, sessions, rate = key
    suffix = ", planner" if planner else ""
    if sessions > 1 or rate > 0:
        suffix += f", sessions={sessions}, rate={rate}"
    return (f"{name} ({workload}, len={length}, shards={shards}, "
            f"threads={threads}{suffix})")


def thread_scaling_summary(rows):
    """Best-threads speedup vs the threads=1 row for each serve sweep."""
    groups = {}
    for key, row in rows.items():
        if "p50_step_ns" not in row:
            continue  # Engine rows run inline; only serve rows sweep threads.
        group_key = key[:4] + key[5:]  # Everything but the threads axis.
        groups.setdefault(group_key, {})[key[4]] = row["ns_per_step"]
    printed_header = False
    for group_key, by_threads in sorted(groups.items()):
        if len(by_threads) < 2 or 1 not in by_threads:
            continue
        if not printed_header:
            print("\nserve thread scaling (current run, best scheduler "
                  "workers vs threads=1):")
            printed_header = True
        serial = by_threads[1]
        best_threads = min(by_threads, key=lambda t: by_threads[t])
        speedup = serial / by_threads[best_threads]
        name, workload, length, shards, planner, sessions, rate = group_key
        tag = " planner" if planner else ""
        if sessions > 1:
            tag += f" n={sessions} rate={rate}"
        print(f"  {name:<18} {workload:<6} len={length:<5} "
              f"shards={shards:<2}{tag} best t={best_threads} "
              f"speedup x{speedup:.2f} "
              f"({serial:.0f} -> {by_threads[best_threads]:.0f} ns/step)")


def probe_plan_summary(rows):
    """Planner-on vs planner-off twins: speedup and probe-order stats.

    Returns the number of planner pairs whose counted_results disagree —
    the planner is cost-only by contract, so any disagreement is a
    correctness failure.
    """
    mismatches = 0
    printed_header = False
    for key, row in sorted(rows.items()):
        if key[5] == 0:
            continue
        twin_key = key[:5] + (0,) + key[6:]
        twin = rows.get(twin_key)
        if not printed_header:
            print("\nprobe planner (current run, planner-on vs planner-off "
                  "twin):")
            printed_header = True
        name, workload, length = key[:3]
        line = f"  {name:<18} {workload:<6} len={length:<5} "
        if twin is None:
            print(line + "no planner-off twin in this run")
            continue
        speedup = twin["ns_per_step"] / row["ns_per_step"]
        skip = row.get("probe_skip_rate", 0.0)
        hit = row.get("probe_cache_hit_rate", 0.0)
        replans = row.get("plan_replans", 0)
        line += (f"speedup x{speedup:.2f} "
                 f"({twin['ns_per_step']:.0f} -> {row['ns_per_step']:.0f} "
                 f"ns/step), skip {skip * 100:.1f}%, "
                 f"memo hit {hit * 100:.1f}%, {replans} replans")
        if row["counted_results"] != twin["counted_results"]:
            line += (f"  COUNTED_RESULTS DIVERGE ({twin['counted_results']} "
                     f"vs {row['counted_results']})")
            mismatches += 1
        print(line)
    return mismatches


def serve_summary(rows):
    """Serve load sweep: throughput and step-latency tails per cell."""
    printed_header = False
    for key, row in sorted(rows.items(), key=lambda kv: (kv[0][6],
                                                         kv[0][7],
                                                         kv[0][4])):
        if "p50_step_ns" not in row:
            continue
        if not printed_header:
            print("\nserve load sweep (current run, aggregate throughput "
                  "and per-step latency):")
            printed_header = True
        name, _, length, _, threads, _, sessions, rate = key
        print(f"  {name:<18} n={sessions:<5} rate={rate:<3} t={threads} "
              f"len={length:<5} "
              f"{row['steps_per_sec']:>10.0f} steps/s  "
              f"p50 {row['p50_step_ns']:>7.0f} ns  "
              f"p99 {row['p99_step_ns']:>7.0f} ns")


def main(argv):
    threshold = 1.25
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        sys.exit(__doc__)
    baseline = load_rows(paths[0])
    current = load_rows(paths[1])

    missing = sorted(set(baseline) - set(current))
    for key in missing:
        print(f"MISSING  {describe(key)}: "
              "row present in baseline but absent from current run")
    extra = sorted(set(current) - set(baseline))
    for key in extra:
        print(f"note: new row {describe(key)} has no baseline yet")

    matched = sorted(set(baseline) & set(current))
    if not matched:
        sys.exit("no rows in common between baseline and current run")
    ratios = {
        key: current[key]["ns_per_step"] / baseline[key]["ns_per_step"]
        for key in matched
    }
    gated = [key for key in matched if key[4] == 1 and key[6] <= 1]
    if not gated:
        sys.exit("no threads=1 rows in common to gate on")
    median = statistics.median(ratios[key] for key in gated)
    print(f"median current/baseline ns_per_step ratio: {median:.3f} "
          "(machine-speed normalizer, threads=1 sessions<=1 rows)")

    failed = bool(missing)
    for key in matched:
        normalized = ratios[key] / median
        if key[4] != 1 or key[6] > 1:
            verdict = "info"
        elif normalized > threshold:
            verdict = f"REGRESSED >{(threshold - 1) * 100:.0f}%"
            failed = True
        else:
            verdict = "ok"
        tag = "p" if key[5] else ""
        serve_cell = f" n={key[6]} rate={key[7]}" if key[6] > 1 else ""
        print(f"{verdict:>14}  {key[0]:<18} {key[1]:<6} len={key[2]:<5} "
              f"s{key[3]}{tag}/t{key[4]:<2} "
              f"ns/step {baseline[key]['ns_per_step']:>12.0f} -> "
              f"{current[key]['ns_per_step']:>12.0f} "
              f"(raw x{ratios[key]:.3f}, normalized x{normalized:.3f})"
              f"{serve_cell}")

    thread_scaling_summary(current)
    serve_summary(current)
    if probe_plan_summary(current) > 0:
        print("planner pair counted_results mismatch — the probe planner "
              "must be cost-only")
        failed = True

    if failed:
        print("perf regression check FAILED")
        return 1
    print("perf regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

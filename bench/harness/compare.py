#!/usr/bin/env python3
"""Compares two directories of harness result files: the parent commit's and
the change's, made with identical benchmark code and settings.

Runs pair up by (workload, seed); run at least 10 seeds per side,
alternating which side runs first. For every end-to-end metric
BENCHMARK.json lists, it prints one row per workload marked:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run;
  unchanged   otherwise.

A last row per workload compares the failure share (failed / attempted).
Every other metric (the served extras, and the per-layer metrics of traced
results) gets an "info:" row with no bound: improved, or regressed by the
same 9/10 rule in the parent's favour, else unchanged. Host fingerprints
that differ between the two sides are reported as warnings. Exits 1 when
an end-to-end row or a failure-share row regressed; info rows never decide
the exit status.

usage: compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
"""

import argparse
import glob
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "simd_detected", "simd_active", "compiler", "build_type",
             "harmony_obs")


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            run = json.load(f)
        runs[(run["workload"], run["traced"], run["seed"])] = run
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """parent/change: value lists in seed order (pairs)."""
    sign = 1 if better == "higher" else -1  # sign * (change - parent) > 0: better
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (cm - pm)
    enough = len(parent) >= 10
    if enough and wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "improved", wins
    if bound is None:
        if enough and losses >= 0.9 * len(parent) and -gain > q3 - q1:
            return "regressed", wins
        return "unchanged", wins
    if -gain > bound * abs(pm):
        return "regressed", wins
    if pm != 0 and (q3 - q1) / abs(pm) > bound and not all(
            sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved", wins
    return "unchanged", wins


def describe(values):
    q1, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (statistics.median(values), q1, q3)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    parent, change = load(args.parent), load(args.change)

    for key in HOST_KEYS:
        sides = [sorted({str(r["fingerprint"].get(key)) for r in runs.values()})
                 for runs in (parent, change)]
        if sides[0] != sides[1]:
            print("WARNING: host %s differs: parent %s, change %s" %
                  (key, ", ".join(sides[0]), ", ".join(sides[1])))

    groups = sorted({(w, t) for (w, t, _) in parent} & {(w, t) for (w, t, _) in change})
    print("%-32s %-20s %-36s %-36s %5s  %s" %
          ("metric", "workload", "parent median [q1, q3]",
           "change median [q1, q3]", "wins", "verdict"))
    regressed = False
    for workload, traced in groups:
        seeds = sorted({s for (w, t, s) in parent if (w, t) == (workload, traced)} &
                       {s for (w, t, s) in change if (w, t) == (workload, traced)})
        if len(seeds) < 10:
            print("WARNING: %s%s has %d pairs; a gain needs at least 10" %
                  (workload, " (traced)" if traced else "", len(seeds)))
        p_runs = [parent[(workload, traced, s)] for s in seeds]
        c_runs = [change[(workload, traced, s)] for s in seeds]
        names = sorted(set.intersection(*(set(r["metrics"]) for r in p_runs + c_runs)))
        for name in names:
            meta = p_runs[0]["metrics"][name]
            gated = not traced and name in bounds
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            mark, wins = verdict(p_vals, c_vals, meta["better"],
                                 bounds[name] if gated else None)
            if gated:
                regressed |= mark == "regressed"
            else:
                mark = "info: " + mark
            print("%-32s %-20s %-36s %-36s %2d/%-2d  %s" % (
                name + (" (layer)" if traced else ""), workload,
                describe(p_vals), describe(c_vals), wins, len(seeds), mark))
        shares = []
        for runs in (p_runs, c_runs):
            attempted = sum(r["attempted"] for r in runs)
            shares.append(sum(r["failed"] for r in runs) / max(attempted, 1))
        mark = ("regressed" if shares[1] > shares[0] else
                "improved" if shares[1] < shares[0] else "unchanged")
        regressed |= mark == "regressed"
        print("%-32s %-20s %-36s %-36s %5s  %s" % (
            "failure share" + (" (layer)" if traced else ""), workload,
            "%.6g" % shares[0], "%.6g" % shares[1], "", mark))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

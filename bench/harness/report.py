#!/usr/bin/env python3
"""Prints harness result files: every metric by name with its unit, then one
JSON summary line holding the metrics BENCHMARK.json lists (end_to_end, or
per_layer with --trace 1). With several result files the summary keys are
<workload>.<metric>. Exits 1 when a run was incorrect or lacks a listed
metric."""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", required=True, help="BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("results", nargs="+", help="harness result files")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for path in args.results:
        with open(path) as f:
            result = json.load(f)
        print("== %s seed %d%s: %s, %d attempted, %d failed" % (
            result["workload"], result["seed"],
            " traced" if result["traced"] else "",
            "correct" if result["correct"] else "INCORRECT",
            result["attempted"], result["failed"]))
        for failure in result["failures"]:
            print("   check failed: " + failure)
        for name, metric in sorted(result["metrics"].items()):
            print("   %-34s %16.6f %s" % (name, metric["value"], metric["unit"]))
        for key, value in sorted(result["notes"].items()):
            print("   note %s: %s" % (key, json.dumps(value)))
        print("   host: " + json.dumps(result["fingerprint"]))

        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for entry in listed:
            name = entry["name"]
            metric = result["metrics"].get(name)
            if metric is None or metric["value"] is None:
                print("   missing metric: " + name, file=sys.stderr)
                summary["correct"] = False
                continue
            key = name if len(args.results) == 1 else result["workload"] + "." + name
            summary["metrics"][key] = {"value": metric["value"], "unit": metric["unit"]}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check benchmark fleet digests against the pinned values.

    python3 scripts/check-bench-digests.py [--results DIR] [--pins FILE]

Reads every untraced record perfbench/run.py left in DIR (default
.bench_build/results) and compares the digest of each rep with the value
pinned for its workload, run seed and fleet seed in FILE (default
scripts/bench-digests.json). Exits 1 when a digest differs, when a pinned
workload has no record, or when a record lacks a pinned fleet; prints one
line per checked fleet.
"""

import argparse
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results",
                        default=os.path.join(ROOT, ".bench_build", "results"))
    parser.add_argument("--pins",
                        default=os.path.join(ROOT, "scripts", "bench-digests.json"))
    args = parser.parse_args()

    with open(args.pins) as f:
        pins = {k: v for k, v in json.load(f).items() if not k.startswith("_")}
    failures = []
    for workload, pin in sorted(pins.items()):
        path = os.path.join(args.results,
                            f"{workload}-seed{pin['seed']}-trace0.json")
        if not os.path.exists(path):
            failures.append(f"{workload}: no record at {path}")
            continue
        with open(path) as f:
            record = json.load(f)
        seen = set()
        for rep in record.get("reps", []):
            fleet = str(rep["seed"])
            want = pin["fleets"].get(fleet)
            got = str(rep["digest"])
            if want is None:
                failures.append(f"{workload}: fleet {fleet} is not pinned")
            elif got != want:
                failures.append(f"{workload}: fleet {fleet} digest {got}, "
                                f"pinned {want}")
            elif fleet not in seen:
                print(f"ok {workload} fleet {fleet}: {got}")
            seen.add(fleet)
        for fleet in sorted(set(pin["fleets"]) - seen):
            failures.append(f"{workload}: pinned fleet {fleet} did not run")
    # Records of unpinned seeds or traced runs are not compared.
    for path in sorted(glob.glob(os.path.join(args.results, "*.json"))):
        name = os.path.basename(path)
        if not any(name == f"{w}-seed{p['seed']}-trace0.json"
                   for w, p in pins.items()):
            print(f"skip {name} (not pinned)")
    for line in dict.fromkeys(failures):  # repeated reps fail once
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

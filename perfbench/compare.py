#!/usr/bin/env python3
"""Compares two benchmark result records written by run.py
(.bench_build/results/<workload>-seed<N>-trace<T>.json).

    python3 perfbench/compare.py BASE.json NEW.json

Prints NEW/BASE per metric. Refuses (exit 2) to compare records of
different workloads or scales, or any metric whose unit or thread count
differs between the two: such a pair measures different things, and a
ratio of them would read as a false regression or gain.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    refused = []
    for key in ("workload", "scale", "trace"):
        if base[key] != new[key]:
            refused.append(f"{key}: {base[key]} vs {new[key]}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            refused.append(f"{name}: missing from {argv[2]}")
            continue
        for key in ("unit", "threads"):
            if b[key] != n[key]:
                refused.append(f"{name}: {key} {b[key]} vs {n[key]}")
    if refused:
        for r in refused:
            print("refused:", r, file=sys.stderr)
        return 2
    print(f"{'metric':<32} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, b in base["metrics"].items():
        n = new["metrics"][name]
        rel = n["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:<32} {b['value']:>14.6g} {n['value']:>14.6g} "
              f"{rel:>9.4f} {b['unit']} @{b['threads']} threads")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

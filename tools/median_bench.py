#!/usr/bin/env python3
"""Fold N bench JSON artifacts into one: the element-wise median.

Usage:
    python3 tools/median_bench.py OUT.json RUN1.json RUN2.json ...

Every artifact must have the same shape (keys, list lengths).  A
numeric leaf that differs between runs -- wall-clock timings, rates --
becomes the median over the runs; every other leaf must be identical
in all runs (counts, options, digests), otherwise the tool exits 1
naming the first field that disagrees.  Use an odd N so integer fields
stay integers.  This is how the committed BENCH_e2e.json baseline is
produced:

    for i in 1 2 3 4 5; do
        ./build/bench/bench_e2e_throughput --json run$i.json
    done
    python3 tools/median_bench.py BENCH_e2e.json run*.json
"""

import json
import statistics
import sys


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def fold(values, path, folded):
    first = values[0]
    if isinstance(first, dict):
        if any(not isinstance(v, dict) or v.keys() != first.keys()
               for v in values):
            raise ValueError(f"{path}: keys differ between runs")
        return {k: fold([v[k] for v in values], f"{path}.{k}", folded)
                for k in first}
    if isinstance(first, list):
        if any(not isinstance(v, list) or len(v) != len(first)
               for v in values):
            raise ValueError(f"{path}: list lengths differ between runs")
        return [fold([v[i] for v in values], f"{path}[{i}]", folded)
                for i in range(len(first))]
    if all(v == first for v in values):
        return first
    if all(is_number(v) for v in values):
        folded.append(path)
        return statistics.median(values)
    raise ValueError(f"{path}: non-numeric field differs between runs")


def main():
    if len(sys.argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    runs = []
    for path in sys.argv[2:]:
        with open(path) as f:
            runs.append(json.load(f))
    folded = []
    try:
        out = fold(runs, "$", folded)
    except ValueError as e:
        print(f"median_bench: {e}", file=sys.stderr)
        return 1
    with open(sys.argv[1], "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"median_bench: {len(runs)} runs, {len(folded)} fields took "
          "the median")
    return 0


if __name__ == "__main__":
    sys.exit(main())

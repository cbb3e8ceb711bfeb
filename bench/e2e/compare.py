#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py A/*.json B/*.json
    python3 bench/e2e/compare.py A B

A is the baseline (parent), B the change. Files are grouped by the
directory they sit in, so exactly two directories must be named. For each
(workload, metric) the table gives each side's median and quartiles and one
label:

  worse       B's median is worse than A's by more than the metric's bound
  better      B wins at least 9 in 10 runs paired by seed, and the medians
              differ by more than A's own quartile spread
  unresolved  a side's quartile spread is wider than the bound, and B's runs
              do not all read better (or all worse) than A's
  unchanged   none of the above

Per-layer metrics have no bound and are labelled by the pairing rule only.
Results measured in different machine contexts (CPU, CPU count, threads,
compiler, build type, smoke mode, run length) are refused. The exit code
is 1 when an end-to-end metric is worse, 2 when the inputs are refused.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
# Context keys that must match for two results to be comparable.
MACHINE_KEYS = ("cpu_model", "nproc", "threads", "compiler", "build_type",
                "smoke", "seconds", "grid")


def load_groups(paths):
    groups = {}
    for p in paths:
        files = ([os.path.join(p, f) for f in sorted(os.listdir(p))
                  if f.endswith(".json") and not f.endswith(".trace.json")]
                 if os.path.isdir(p) else [p])
        for f in files:
            groups.setdefault(os.path.dirname(os.path.abspath(f)), []).append(f)
    if len(groups) != 2:
        sys.exit("compare.py: need results from exactly two directories, "
                 "got %d" % len(groups))
    return [[json.load(open(f)) for f in files] for files in groups.values()]


def refuse_mixed_contexts(a, b):
    seen = {}
    for side, runs in (("A", a), ("B", b)):
        for r in runs:
            key = (r["workload"], r["trace"])
            ctx = tuple(str(r["context"].get(k)) for k in MACHINE_KEYS)
            if seen.setdefault(key, (side, ctx))[1] != ctx:
                first_side, first = seen[key]
                diff = ["%s: %s vs %s" % (k, x, y) for k, x, y in
                        zip(MACHINE_KEYS, first, ctx) if x != y]
                sys.stderr.write("compare.py: refusing to compare %s runs "
                                 "from different machine contexts (%s)\n"
                                 % (r["workload"], "; ".join(diff)))
                sys.exit(2)


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def label(a_runs, b_runs, lower_better, bound):
    """a_runs/b_runs: lists of (seed, value)."""
    a = [v for _, v in a_runs]
    b = [v for _, v in b_runs]
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1 if lower_better else -1

    def better(x, y):  # x better than y
        return sign * (x - y) < 0

    if bound is not None and a_med != 0:
        worse_by = sign * (b_med - a_med) / abs(a_med)
        spread = max((a_q3 - a_q1) / abs(a_med),
                     (b_q3 - b_q1) / abs(b_med) if b_med else 0)
        if spread > bound:
            if all(better(x, y) for x in b for y in a):
                return "better"
            return "unresolved"
        if worse_by > bound:
            return "worse"
    # Pair runs by seed where both sides have it, else by position.
    a_by_seed = defaultdict(list)
    for s, v in a_runs:
        a_by_seed[s].append(v)
    pairs = []
    for s, v in b_runs:
        if a_by_seed.get(s):
            pairs.append((a_by_seed[s].pop(0), v))
    if not pairs:
        pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs)
    losses = sum(better(x, y) for x, y in pairs)
    beyond_spread = abs(b_med - a_med) > (a_q3 - a_q1)
    if pairs and beyond_spread and wins >= 0.9 * len(pairs):
        return "better"
    if pairs and beyond_spread and losses >= 0.9 * len(pairs) and bound is None:
        return "worse"
    return "unchanged"


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    spec = json.load(open(SPEC))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    a, b = load_groups(sys.argv[1:])
    refuse_mixed_contexts(a, b)

    def collect(runs):
        out = defaultdict(list)
        for r in runs:
            for name, m in r["metrics"].items():
                out[(r["workload"], name)].append((r["seed"], m["value"]))
        return out

    va, vb = collect(a), collect(b)
    order = [w["name"] for w in spec["workloads"]]
    keys = sorted(set(va) & set(vb),
                  key=lambda k: (order.index(k[0]) if k[0] in order else 99,
                                 k[1] not in bounds, k[1]))
    print("%-14s %-30s %-34s %-34s %8s %6s  %s" % (
        "workload", "metric", "A median [q1, q3] (n)",
        "B median [q1, q3] (n)", "delta", "bound", "label"))
    any_worse = False
    for w, name in keys:
        m = bounds.get(name) or layers.get(name)
        if m is None:
            continue
        bound = bounds[name]["bound"] if name in bounds else None
        lab = label(va[(w, name)], vb[(w, name)], m["better"] == "lower",
                    bound)
        any_worse |= lab == "worse" and bound is not None

        def fmt(runs):
            q1, med, q3 = quartiles([v for _, v in runs])
            return "%.4g [%.4g, %.4g] (%d)" % (med, q1, q3, len(runs))

        a_med = quartiles([v for _, v in va[(w, name)]])[1]
        b_med = quartiles([v for _, v in vb[(w, name)]])[1]
        delta = "%+.1f%%" % (100 * (b_med - a_med) / abs(a_med)) \
            if a_med else "n/a"
        print("%-14s %-30s %-34s %-34s %8s %6s  %s" % (
            w, name, fmt(va[(w, name)]), fmt(vb[(w, name)]), delta,
            "%g" % bound if bound is not None else "-", lab))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 bench/e2e/selftest.py

Checks BENCHMARK.json against the benchmark contract (keys, names, units,
bounds), then runs `run.py --smoke --trace` (every workload at 5% size, one
repetition, untraced and traced) and checks that it exits 0 and prints every
metric BENCHMARK.json names, for every workload, with its unit.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec, errors):
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != want:
        errors.append("BENCHMARK.json keys %s" % sorted(spec))
    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("need 2..8 workloads")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or \
                "\n" in w["why"]:
            errors.append("workload %s: bad keys or why" % w["name"])
    for m in spec["end_to_end"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            errors.append("end_to_end %s: bad keys or bound" % m["name"])
    for m in spec["per_layer"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better"}:
            errors.append("per_layer %s: bad keys" % m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            errors.append("%s: bad unit or direction" % m["name"])
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(set(names)) != len(names):
        errors.append("invalid or repeated names: %s" % bad)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (s, lower) is required")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    check_spec(spec, errors)

    out_dir = os.path.join(ROOT, "build-e2e", "selftest")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--trace",
         "--seed", "1", "--out", out_dir],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        errors.append("run.py --smoke exited with %d" % proc.returncode)
    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4:
            printed[(parts[0], parts[1])] = parts[3]
    for w in spec["workloads"]:
        for m in spec["end_to_end"] + spec["per_layer"]:
            unit = printed.get((w["name"], m["name"]))
            if unit != m["unit"]:
                errors.append("%s %s: printed unit %s, expected %s"
                              % (w["name"], m["name"], unit, m["unit"]))
    for e in errors:
        print("selftest: " + e)
    print("selftest: %s" % ("FAIL" if errors else "ok"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

One workload (the form BENCHMARK.json's command takes):

    python3 bench/e2e/run.py --workload nell-admm --seed 1 --seconds 10 --trace 0

prints `workload metric value unit` lines and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. `--trace 0` reports
the end-to-end metrics, `--trace 1` the per-layer ones.

Every workload:

    python3 bench/e2e/run.py --seed 1 [--trace]

runs each workload in its own process (untraced, and with --trace also
traced) and writes one result file per run under build-e2e/results/ (or
--out). `--smoke` shrinks every input to 5% and runs one repetition.

The program is built from source into build-e2e/ on every call; an
up-to-date build costs about a second. The exit code is 0 only when every
run finished, every correctness check passed and every metric named in
BENCHMARK.json was reported.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "e2e_bench")

# Each run must finish within the benchmark contract's 180 s.
RUN_TIMEOUT_S = 170
# Process environment per workload. shard-spill's workers are plain
# threads, which take their OpenMP team size from the environment.
WORKLOAD_ENV = {"shard-spill": {"OMP_NUM_THREADS": "1"}}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure and build build-e2e/ from source; output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", jobs]):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (full log: %s)" % log_path)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_context():
    """What a result was measured on; compare.py refuses to mix these."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()
        compiler = version[0] if version else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    commit = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
    }


def run_workload(spec, args, workload, trace):
    """Run one workload in its own process; return its result record."""
    names = {m["name"]: m for m in
             spec["per_layer" if trace else "end_to_end"]}
    os.makedirs(args.out, exist_ok=True)
    stem = "%s-seed%d-trace%d-%d" % (workload, args.seed, trace,
                                     time.time_ns())
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(trace),
           "--smoke", str(int(args.smoke)), "--work-dir",
           os.path.join(BUILD, "work")]
    if trace:
        cmd += ["--chrome-trace", os.path.join(args.out, stem + ".trace.json")]
    env = dict(os.environ, **WORKLOAD_ENV.get(workload, {}))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, proc.returncode))
    out = json.loads(lines[-1])

    metrics = {}
    problems = []
    for name, m in names.items():
        got = out["metrics"].get(name)
        if got is None:
            problems.append("missing metric " + name)
        elif not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("non-finite metric " + name)
        elif got["unit"] != m["unit"]:
            problems.append("%s unit %s, expected %s"
                            % (name, got["unit"], m["unit"]))
        else:
            metrics[name] = {"value": got["value"], "unit": got["unit"]}
    for p in problems:
        print("run.py: %s: %s" % (workload, p), file=sys.stderr)

    record = {
        "workload": workload,
        "seed": args.seed,
        "trace": trace,
        "correct": bool(out["correct"]) and not problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
        "context": dict(machine_context(), seed=args.seed, smoke=args.smoke,
                        seconds=args.seconds, **out["context"]),
    }
    with open(os.path.join(args.out, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for name, m in metrics.items():
        print("%s %s %.9g %s" % (workload, name, m["value"], m["unit"]))
    return record


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run only this workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="per-layer (traced) pass")
    p.add_argument("--smoke", action="store_true",
                   help="5%% inputs, one repetition: a quick self-check")
    p.add_argument("--out", default=os.path.join(BUILD, "results"),
                   help="directory for result files")
    args = p.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        fail("unknown workload %s (known: %s)"
             % (args.workload, ", ".join(workloads)))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.smoke:
        args.seconds = 1.0
    args.out = os.path.abspath(args.out)

    build()
    if args.workload is not None:
        record = run_workload(spec, args, args.workload, args.trace)
        summary = {k: record[k]
                   for k in ("correct", "attempted", "failed", "metrics")}
        ok = record["correct"] and record["failed"] == 0
    else:
        records = []
        for w in workloads:
            records.append(run_workload(spec, args, w, 0))
            if args.trace:
                records.append(run_workload(spec, args, w, 1))
        summary = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {"%s/%s" % (r["workload"], n): m
                        for r in records for n, m in r["metrics"].items()},
        }
        ok = summary["correct"] and summary["failed"] == 0
        for r in records:
            print("%s failed_frac %.9g ratio" % (
                r["workload"], r["failed"] / max(1, r["attempted"])))
    print(json.dumps(summary))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark of the dynsub serve path.

One run:

    python3 perfbench/run.py --workload serve_hot --seed 7 --seconds 20 \\
        --trace 0

builds perfbench/ (and with it the dynsub library) into $CARGO_TARGET_DIR,
default .bench_build, runs dynsub_perfbench, checks its outputs, and prints
as the last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
an untraced pass and a traced pass of the same seed, requires both to agree
on the deterministic digest, and reports the per-layer metrics.  The exit
code is 0 only when every correctness check passed.

Steadiness mode runs one workload K times on consecutive seeds and prints
each end-to-end metric's median, quartiles and spreads:

    python3 perfbench/run.py --workload wide_churn --seed 1001 --seconds 20 \\
        --steadiness 10

See perfbench/DESIGN.md for the workloads, metrics and their rationale.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("wide_churn", "dense_cycles", "serve_hot")
RUN_BUDGET_S = 170  # every invocation must end within 180 s
TUNING_SEEDS = range(1, 16)  # seen while the workloads were sized


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds dynsub_perfbench; returns its path."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as f:
            configured = f.read()
        if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % SOURCE not in configured:
            shutil.rmtree(out)  # configured for another checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", SOURCE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "dynsub_perfbench")


def run_pass(binary, workload, seed, seconds, traced, deadline):
    """One dynsub_perfbench pass; returns its result (with "exit") or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: dynsub_perfbench timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: dynsub_perfbench printed nothing (exit %d)"
            % proc.returncode)
        return None
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def binary_id(binary):
    """A hash of the built program, so that digests of different builds
    sharing one build directory are never compared."""
    with open(binary, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_digest(binary, result, errors):
    """The digest of (build, workload, seed, rounds) must repeat across
    runs."""
    path = os.path.join(build_dir(), "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            seen = json.load(f)
    key = "%s/%s/%d/%d" % (binary_id(binary), result["workload"],
                           result["seed"], result["rounds"])
    if key in seen and seen[key] != result["digest"]:
        errors.append("digest of %s differs from an earlier run: %s vs %s"
                      % (key, result["digest"], seen[key]))
    else:
        seen[key] = result["digest"]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(seen, f, indent=1, sort_keys=True)


def metric_specs(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def one_run(binary, workload, seed, seconds, traced):
    """Runs the benchmark once; returns (result line, info, ok)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    errors = []
    passes = []
    for pass_traced in ([False, True] if traced else [False]):
        result = run_pass(binary, workload, seed, seconds, pass_traced,
                          deadline)
        if result is None:
            return None, None, False
        errors += result["errors"]
        if result["exit"] != 0 and not result["errors"]:
            errors.append("dynsub_perfbench exited %d" % result["exit"])
        check_digest(binary, result, errors)
        passes.append(result)
    if traced:
        plain, trace = passes
        if plain["digest"] != trace["digest"]:
            errors.append("untraced and traced digests differ: %s vs %s"
                          % (plain["digest"], trace["digest"]))
        values = trace["layers"]
        specs = metric_specs("per_layer")
    else:
        values = passes[0]["e2e"]
        specs = metric_specs("end_to_end")
    missing = [name for name, _ in specs if name not in values]
    if missing:
        errors.append("metrics missing: " + ", ".join(missing))
    info = {
        "workload": workload, "seed": seed, "rounds": passes[0]["rounds"],
        "threads": max(p["threads"] for p in passes),
        "nproc": passes[0]["nproc"],
        "answer_samples": [p["answer_samples"] for p in passes],
        "setup_s_reps": passes[0]["setup_s_reps"],
        "measured": passes[0]["measured"],
        "host_slowdown": {"setup": passes[0]["setup_slowdown"],
                          "window": passes[0]["window_slowdown"],
                          "window_slices": passes[0]["window_probe_slices"]},
        "digest": passes[0]["digest"], "errors": errors,
    }
    line = {
        "correct": not errors,
        "attempted": int(sum(p["attempted"] for p in passes)),
        "failed": int(sum(p["failed"] for p in passes)),
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in specs},
    }
    return line, info, not errors


def steadiness(binary, args):
    """Runs one workload args.steadiness times and prints the spreads."""
    seeds = range(args.seed, args.seed + args.steadiness)
    if set(seeds) & set(TUNING_SEEDS):
        log("perfbench: seeds %d-%d overlap the tuning seeds %d-%d; use "
            "fresh ones to check steadiness" % (
                seeds[0], seeds[-1], TUNING_SEEDS[0], TUNING_SEEDS[-1]))
    runs = []
    for i in range(args.steadiness):
        line, info, ok = one_run(binary, args.workload, args.seed + i,
                                 args.seconds, args.trace == 1)
        if line is None or not ok:
            log("perfbench: run %d failed: %s"
                % (i, info["errors"] if info else "no result"))
            return 1
        runs.append(line["metrics"])
        log("run %d seed %d: %s" % (i, args.seed + i, json.dumps(
            {k: round(v["value"], 4) for k, v in line["metrics"].items()})))
    print("%-30s %12s %12s %12s %9s %9s" % (
        "metric", "median", "q1", "q3", "iqr/med", "range/med"))
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        scale = abs(med) if med else 1.0
        print("%-30s %12.5g %12.5g %12.5g %9.4f %9.4f" % (
            name, med, q1, q3, (q3 - q1) / scale,
            (max(values) - min(values)) / scale))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="K",
                        help="run K times on seeds seed..seed+K-1")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    binary = build()
    if binary is None:
        return 1
    if args.steadiness:
        return steadiness(binary, args)
    line, info, ok = one_run(binary, args.workload, args.seed, args.seconds,
                             args.trace == 1)
    if line is None:
        return 1
    print(json.dumps(info))
    print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

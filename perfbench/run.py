#!/usr/bin/env python3
"""Builds and runs the swdnn benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (the library from src/
plus the perfbench binary) into $CARGO_TARGET_DIR or .bench_build, runs
it, and prints every metric by name and unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and the
per-layer metrics for --trace 1. A per-layer metric of a layer the
workload does not load reads 0. The lines above it list every metric
the run measured, so a --trace 0 run also shows its wall-clock figures. The environment block and the full
result are also written to <build dir>/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the perfbench binary; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        log("build failed")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    env, result = None, None
    for line in proc.stdout.splitlines():
        if line.startswith("ENV "):
            env = json.loads(line[4:])
        elif line.startswith("RESULT "):
            result = json.loads(line[7:])
        else:
            print(line)
    if result is None or env is None:
        log(f"perfbench exited {proc.returncode} without a result")
        return 1

    raw = result["metrics"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for m in declared:
        name = m["name"]
        if name not in raw and not args.trace:
            log(f"end-to-end metric {name} missing from the perfbench report")
            return 1
        metrics[name] = {"value": raw.get(name, 0.0), "unit": m["unit"]}
    undeclared = sorted(set(raw) - set(units))
    if undeclared:
        log("metrics not declared in BENCHMARK.json: " + ", ".join(undeclared))
        return 1

    env.update({"git_sha": git_sha(), "source_sha256": source_digest(),
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace})
    attempted, failed = result["attempted"], result["failed"]
    print("env " + json.dumps(env))
    print(f"{'fail_ratio':40s} {failed / max(attempted, 1):14.6g} share "
          f"({failed} of {attempted})")
    for name in sorted(raw):
        print(f"{name:40s} {raw[name]:14.6g} {units[name]}")

    line = {"correct": result["correct"], "attempted": attempted,
            "failed": failed, "metrics": metrics}
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, out_name), "w") as f:
        json.dump({"env": env, **line}, f, indent=1)
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

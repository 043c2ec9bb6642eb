#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the eacs libraries and the perfbench program from source (CMake,
Release) and runs one named workload:

    python3 perfbench/run.py --workload fleet_vod --seed 1 --seconds 10 --trace 0

Run it from the repository root. Workloads: fleet_vod, fleet_planner,
fleet_faults, trace_eval (BENCHMARK.json says why each exists). --seed takes a
number or `default` / `heldout`, the two seeds recorded in
perfbench/workloads.json. --trace 0 prints the end-to-end metrics of an
untraced run; --trace 1 prints the per-layer metrics of a traced run and
writes its spans under the build directory.

    python3 perfbench/run.py --workload all --seed default --seconds 10

runs every workload untraced and traced and prints all metrics, each name
prefixed with its workload. `--selftest` builds and runs the tests of the
benchmark's own helpers.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every
correctness check passed. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
WORKLOADS_JSON = HERE / "workloads.json"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not root.is_absolute():
        root = Path.cwd() / root
    return root / "perfbench"


def build(target):
    """Configures (once) and builds `target`; build chatter goes to stderr."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    steps = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    if subprocess.run(steps, stdout=sys.stderr).returncode != 0:
        fail(f"build of {target} failed")
    return out / target


def resolve_seed(text, manifest):
    if text in ("default", "heldout"):
        return manifest[f"{text}_seed"]
    try:
        seed = int(text)
    except ValueError:
        fail(f"--seed takes a number, 'default' or 'heldout', not {text!r}")
    if not 0 <= seed < 2**64:
        fail("--seed must be in [0, 2^64)")
    return seed


def run_one(exe, workload, seed, seconds, trace, spec):
    """Runs one workload; returns (exit code, result dict or None).

    Prints the program's output except its JSON line, then checks that line
    against BENCHMARK.json: exact keys, and exactly the listed metrics with
    their units.
    """
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(build_dir() / "perfbench-out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        print(f"perfbench: {workload} printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1, None

    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if got != expected:
        problems.append("metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        "unit mismatch "
                        f"{sorted(n for n in got if n in expected and got[n] != expected[n])}")
    if problems:
        for p in problems:
            print(f"CHECK FAILED: {p}")
        result["correct"] = False
    code = proc.returncode if proc.returncode != 0 else (0 if result["correct"] else 1)
    return code, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="default")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        spec = json.loads(BENCHMARK_JSON.read_text())
        manifest = json.loads(WORKLOADS_JSON.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read the benchmark definition: {err}")

    if args.selftest:
        sys.exit(subprocess.run([str(build("perfbench_selftest"))]).returncode)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        fail(f"--workload must be one of {names + ['all']}")
    if not args.seconds > 0:
        fail("--seconds must be > 0")
    seed = resolve_seed(args.seed, manifest)
    exe = build("perfbench")

    if args.workload != "all":
        code, result = run_one(exe, args.workload, seed, args.seconds,
                               args.trace, spec)
        if result is None:
            sys.exit(code or 1)
        print(json.dumps(result))
        sys.exit(code)

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in names:
        for trace in (0, 1):
            code, result = run_one(exe, workload, seed, args.seconds, trace, spec)
            worst = worst or code
            if result is None:
                merged["correct"] = False
                continue
            merged["correct"] &= bool(result["correct"])
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    sys.exit(worst or (0 if merged["correct"] else 1))


if __name__ == "__main__":
    main()

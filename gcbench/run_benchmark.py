#!/usr/bin/env python3
"""Builds bench_gc from this checkout and runs one workload of it.

Usage, from the root of a checkout:

    python3 gcbench/run_benchmark.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--out FILE]

The build goes to $CARGO_TARGET_DIR, or to .bench_build, relative to the
checkout root; only the first run of a checkout compiles anything.

Every metric is printed as `name value unit`. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json, with --trace 1 its per_layer list; a traced run also
writes its spans as a Chrome trace next to the build. --out appends the
result, with its workload and seed, to a JSON-lines file that
compare_runs.py reads.

Exits non-zero without a result line when the build fails, when bench_gc
fails (a safety violation among others), or when bench_gc does not print
a metric that BENCHMARK.json lists.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures once and builds bench_gc; returns the binary's path."""
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "gcbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step failed: {err}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "bench_gc"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {', '.join(names)}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(out / f"trace_{args.workload}_{args.seed}.json")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"bench_gc did not finish: {err}")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"bench_gc exited with {done.returncode}")

    printed = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = (float(parts[1]), parts[2])
    missing = [m["name"] for m in wanted
               if printed.get(m["name"], (0, None))[1] != m["unit"]]
    checks = ("check.correct", "check.attempted", "check.failed")
    missing += [c for c in checks if c not in printed]
    if missing:
        fail("bench_gc printed no (or a differently-united) value for: " +
             ", ".join(missing))

    metrics = {}
    for m in wanted:
        value, unit = printed[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": unit}
        print(m["name"], repr(value), unit)
    result = {
        "correct": printed["check.correct"][0] == 1,
        "attempted": int(printed["check.attempted"][0]),
        "failed": int(printed["check.failed"][0]),
        "metrics": metrics,
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "result": result}
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

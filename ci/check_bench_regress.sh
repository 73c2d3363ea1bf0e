#!/usr/bin/env sh
# Guard: the scale-tier bench must not silently regress. Compares the
# freshly produced build/BENCH_scale.json against the committed baseline
# (bench/baseline/BENCH_scale.json) and fails when any shared config
# regresses by more than 15% on either axis the perf trajectory tracks:
#
#   * events_per_sec            (throughput  — fresh must be >= 85% of base)
#   * bytes_per_reclaimed       (wire cost   — fresh must be <= 115% of base)
#   * control_bytes_per_reclaimed (GGD control cost — same 115% ceiling)
#   * sweep_pause_p99_us          (sweep pause ceiling — fresh must be
#                                  <= 125% of base; wall-clock, so the
#                                  margin is wider than the byte gates)
#   * peak_rss_kb                 (memory footprint — fresh must be <=
#                                  115% of base; the memory-diet gate)
#
# plus the threaded runtime's threaded_events_per_sec (>= 85% of base),
# and the per-message kernels of bench_micro (see MICRO_KERNELS below).
#
# Byte-per-reclaimed ratios are deterministic for a given seed, so the
# 15% margin there is pure headroom for protocol drift. Throughput is
# wall-clock and machine-dependent; the margin absorbs runner jitter,
# and the baseline is refreshed (deliberately, in-diff) whenever the
# bench shape changes.
#
# Usage: check_bench_regress.sh <fresh-dir> [baseline-dir]
set -u

fresh_dir="${1:-build}"
base_dir="${2:-bench/baseline}"

fresh="$fresh_dir/BENCH_scale.json"
base="$base_dir/BENCH_scale.json"
fresh_micro="$fresh_dir/BENCH_micro.json"
base_micro="$base_dir/BENCH_micro.json"

for f in "$fresh" "$base"; do
  if [ ! -f "$f" ]; then
    echo "MISSING FILE: $f" >&2
    echo "bench regress guard FAILED" >&2
    exit 1
  fi
done

python3 - "$fresh" "$base" "$fresh_micro" "$base_micro" <<'EOF'
import json
import os
import statistics
import sys

fresh = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))

THROUGHPUT_FLOOR = 0.85  # fresh/base must stay above this
COST_CEILING = 1.15      # fresh/base must stay below this
PAUSE_CEILING = 1.25     # sweep-pause p99 is wall-clock: wider margin

failures = []
compared = 0


def check(name, metric, fresh_v, base_v, kind):
    global compared
    if base_v is None or fresh_v is None:
        return
    if not base_v:
        return  # zero baseline (e.g. nothing reclaimed): no ratio to take
    compared += 1
    ratio = fresh_v / base_v
    if kind == "throughput" and ratio < THROUGHPUT_FLOOR:
        failures.append(
            f"{name}.{metric}: {fresh_v:.0f} vs baseline {base_v:.0f} "
            f"({ratio:.2f}x, floor {THROUGHPUT_FLOOR}x)")
    if kind == "cost" and ratio > COST_CEILING:
        failures.append(
            f"{name}.{metric}: {fresh_v:.0f} vs baseline {base_v:.0f} "
            f"({ratio:.2f}x, ceiling {COST_CEILING}x)")
    if kind == "pause" and ratio > PAUSE_CEILING:
        failures.append(
            f"{name}.{metric}: {fresh_v:.0f} vs baseline {base_v:.0f} "
            f"({ratio:.2f}x, ceiling {PAUSE_CEILING}x)")


for name, b_cfg in base.get("configs", {}).items():
    f_cfg = fresh.get("configs", {}).get(name)
    if f_cfg is None:
        failures.append(f"config '{name}' present in baseline, missing fresh")
        continue
    check(name, "events_per_sec", f_cfg.get("events_per_sec"),
          b_cfg.get("events_per_sec"), "throughput")
    check(name, "bytes_per_reclaimed", f_cfg.get("bytes_per_reclaimed"),
          b_cfg.get("bytes_per_reclaimed"), "cost")
    check(name, "control_bytes_per_reclaimed",
          f_cfg.get("control_bytes_per_reclaimed"),
          b_cfg.get("control_bytes_per_reclaimed"), "cost")
    # Older baselines predate the unit-suffixed alias; fall back to the
    # histogram field so the gate still bites across the rename.
    check(name, "sweep_pause_p99_us",
          f_cfg.get("sweep_pause_p99_us", f_cfg.get("sweep_pause_p99")),
          b_cfg.get("sweep_pause_p99_us", b_cfg.get("sweep_pause_p99")),
          "pause")
    # Memory is the axis the arena/SoA diet exists to hold down. RSS is a
    # process-wide high-water mark, so the same cost ceiling doubles as
    # the allocator-regression tripwire.
    check(name, "peak_rss_kb", f_cfg.get("peak_rss_kb"),
          b_cfg.get("peak_rss_kb"), "cost")

check("threaded", "threaded_events_per_sec",
      fresh.get("threaded", {}).get("threaded_events_per_sec"),
      base.get("threaded", {}).get("threaded_events_per_sec"), "throughput")

# Per-message kernels (Google Benchmark JSON, written by
#   bench_micro --benchmark_repetitions=9 --benchmark_out=BENCH_micro.json
#   --benchmark_out_format=json
# into the fresh dir). Each kernel is gated as a ratio taken within one
# run: its median cpu_time over the median of a reference kernel the
# per-message path does not use, so the host's speed cancels and a
# baseline recorded on one machine can gate a run on another. The fresh
# ratio must stay <= 115% of the baseline's. When the baseline
# repetitions of the kernel or of the reference spread wider than that
# margin (quartile range over median), a change of the margin's size
# cannot be told apart from noise: the kernel is reported, not gated,
# until the baseline is re-recorded tighter. No fresh file (Google Benchmark is
# optional, so bench_micro may not be built) skips the micro gate.
MICRO_KERNELS = ("BM_ComputeV/256", "BM_WalkToRoot/256", "BM_DecodeGgdControl")
MICRO_REFERENCE = "BM_VectorMerge/512"


def micro_cpu_times(path):
    times = {}
    for b in json.load(open(path)).get("benchmarks", []):
        if b.get("run_type", "iteration") == "iteration":
            times.setdefault(b["name"], []).append(b["cpu_time"])
    return times


def quartile_spread(ts):
    if len(ts) < 4:
        return float("inf")
    q1, _, q3 = statistics.quantiles(ts, n=4)
    return (q3 - q1) / statistics.median(ts)


fresh_micro, base_micro = sys.argv[3], sys.argv[4]
if not os.path.isfile(base_micro) or not os.path.isfile(fresh_micro):
    print(f"micro gate skipped: needs both {fresh_micro} and {base_micro}")
else:
    f_times = micro_cpu_times(fresh_micro)
    b_times = micro_cpu_times(base_micro)
    for kernel in MICRO_KERNELS:
        if kernel not in f_times or MICRO_REFERENCE not in f_times:
            failures.append(f"micro kernel {kernel} or {MICRO_REFERENCE} "
                            "missing from fresh run")
            continue
        if kernel not in b_times or MICRO_REFERENCE not in b_times:
            continue
        f_ratio = (statistics.median(f_times[kernel]) /
                   statistics.median(f_times[MICRO_REFERENCE]))
        b_ratio = (statistics.median(b_times[kernel]) /
                   statistics.median(b_times[MICRO_REFERENCE]))
        spread = max(quartile_spread(b_times[kernel]),
                     quartile_spread(b_times[MICRO_REFERENCE]))
        if spread > COST_CEILING - 1:
            print(f"micro {kernel}: {f_ratio / b_ratio:.2f}x baseline "
                  f"(advisory: baseline quartile spread {spread:.0%})")
            continue
        check("micro", kernel + "/" + MICRO_REFERENCE, f_ratio, b_ratio,
              "cost")

if not compared:
    failures.append("no comparable metrics between fresh and baseline")

if failures:
    for f in failures:
        print(f"REGRESSION: {f}", file=sys.stderr)
    print("bench regress guard FAILED", file=sys.stderr)
    sys.exit(1)

print(f"bench regress guard OK: {compared} metrics within margins")
EOF

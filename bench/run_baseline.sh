#!/usr/bin/env bash
# Refresh the committed microbenchmark baseline.
#
# Usage: run_baseline.sh [--check] <perf_microbench-binary> <repo-root> [out-name] [prev-name]
#
# Runs the google-benchmark harness in JSON mode and writes the result to
# <repo-root>/<out-name>. The file is committed at the repo root as one
# point of the performance trajectory; each perf change adds a new
# BENCH_prN.json next to the previous points. out-name has no default: a
# run without --check that names no file fails with the usage line rather
# than overwrite a committed point. When a previous
# baseline exists (default: the highest-numbered committed BENCH_pr*.json
# other than the one being written) and python3 is available, a
# regression table of common benchmarks is printed afterwards; benchmarks
# new in this PR (firehose streaming, LOESS kernel, v6 batch CryptoPAN)
# are listed separately since they have no prior point.
#
# With --check (or NBV6_BENCH_CHECK=1) the script exits non-zero when any
# common benchmark regressed by more than 25% vs the previous baseline
# (new real_time > 1.25x old), making the table usable as a local or CI
# bench gate. Check runs write their JSON to a throwaway temp file unless
# an out-name is passed explicitly, so a quick gate pass never overwrites
# the committed baseline; a missing previous baseline or python3 fails the
# gate rather than silently passing. Extra benchmark arguments can be
# forwarded via NBV6_BENCH_ARGS (e.g.
# NBV6_BENCH_ARGS=--benchmark_min_time=0.01 for a smoke run).
set -euo pipefail

CHECK=${NBV6_BENCH_CHECK:-0}
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
fi

USAGE="usage: run_baseline.sh [--check] <perf_microbench-binary> <repo-root> [out-name] [prev-name]"
BIN=${1:?$USAGE}
ROOT=${2:?$USAGE}
OUT=${3:-}
if [[ "$CHECK" != "1" && -z "$OUT" ]]; then
  echo "$USAGE" >&2
  echo "error: out-name is required unless --check is given" >&2
  exit 1
fi

# Gate runs (typically short smoke passes) must not clobber the committed
# baseline: unless an out-name was given explicitly, a --check run writes
# its JSON to a throwaway file instead of $ROOT/$OUT.
OUT_PATH="$ROOT/$OUT"
WRITES_BASELINE=1
if [[ "$CHECK" == "1" && -z "${3:-}" ]]; then
  OUT_PATH=$(mktemp /tmp/nbv6-bench-check.XXXXXX.json)
  WRITES_BASELINE=0
  trap 'rm -f "$OUT_PATH"' EXIT
fi

# Previous baseline: explicit 4th argument, else the highest-numbered
# committed BENCH_pr*.json — excluding the file this run is about to
# (re)write, so a baseline refresh compares against its predecessor while
# a throwaway --check run gates against the newest committed point.
if [[ -n "${4:-}" ]]; then
  PREV=$4
else
  PREV=""
  while IFS= read -r f; do
    base=$(basename "$f")
    if [[ "$WRITES_BASELINE" == "1" && "$base" == "$OUT" ]]; then
      continue
    fi
    PREV=$base
  done < <(ls "$ROOT"/BENCH_pr*.json 2>/dev/null | sort -V)
  PREV=${PREV:-BENCH_pr2.json}
fi

if [[ "$CHECK" == "1" ]]; then
  # A gate that cannot check must fail, not silently pass.
  if [[ ! -f "$ROOT/$PREV" ]]; then
    echo "error: --check requested but previous baseline $ROOT/$PREV is missing" >&2
    exit 1
  fi
  if ! command -v python3 >/dev/null 2>&1; then
    echo "error: --check requested but python3 is unavailable" >&2
    exit 1
  fi
fi

"$BIN" \
  --benchmark_out="$OUT_PATH" \
  --benchmark_out_format=json \
  --benchmark_format=console \
  ${NBV6_BENCH_ARGS:-}

if [[ -f "$ROOT/$PREV" ]] && command -v python3 >/dev/null 2>&1; then
  python3 - "$ROOT/$PREV" "$OUT_PATH" "$CHECK" <<'PY'
import json, sys

prev_path, cur_path, check = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
def load(path):
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: b for b in data.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"}

prev, cur = load(prev_path), load(cur_path)
common = [n for n in cur if n in prev]
regressed = []
comparable = 0
# Two labeled tiers: >5% slower earns an informational notice in the
# table; >25% slower is what the --check gate fails on.
NOTICE, GATE = 1.05, 1.25
if common:
    print(f"\n--- regression vs {prev_path.split('/')[-1]} "
          f"(old/new real_time; >1 is faster) ---")
    for name in common:
        old = prev[name].get("real_time")
        new = cur[name].get("real_time")
        unit = cur[name].get("time_unit", "ns")
        # A zero or missing time on either side cannot anchor a ratio:
        # dividing by it (or gating on 1.25 * 0) would fabricate a pass or
        # a regression. Name the broken side so the operator fixes the
        # right file.
        if not old or old <= 0:
            print(f"  {name:<36} no baseline (old={old!r})"
                  " -- not comparable")
            continue
        if not new or new <= 0:
            print(f"  {name:<36} current run produced no usable time"
                  f" (new={new!r}) -- not comparable")
            continue
        comparable += 1
        ratio = old / new
        if new > GATE * old:
            regressed.append((name, ratio))
            flag = "   <-- REGRESSION (>25%, gates --check)"
        elif new > NOTICE * old:
            flag = "   <-- slower (>5%)"
        else:
            flag = ""
        print(f"  {name:<36} {old:12.1f} -> {new:12.1f} {unit}  x{ratio:5.2f}{flag}")
new_only = [n for n in cur if n not in prev]
if new_only:
    print("--- new benchmarks (no prior baseline) ---")
    for name in new_only:
        print(f"  {name:<36} {cur[name].get('real_time', 0.0):12.1f} {cur[name].get('time_unit','ns')}")

if check and comparable == 0:
    # A gate with nothing to compare must say so and fail, not silently
    # report success over an empty table.
    print(f"\nFAIL: no baseline -- {prev_path.split('/')[-1]} shares no "
          "comparable (nonzero-time) benchmarks with this run")
    sys.exit(1)
if check and regressed:
    print(f"\nFAIL: {len(regressed)} benchmark(s) regressed >25% "
          f"vs {prev_path.split('/')[-1]}:")
    for name, ratio in regressed:
        print(f"  {name}  x{ratio:.2f}")
    sys.exit(1)
PY
fi

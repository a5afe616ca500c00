#!/usr/bin/env python3
"""nbv6 benchmark: one command, two workloads, every metric by name and unit.

    python3 perfbench/run.py --workload fleet|web_survey|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of an nbv6 checkout. The first run builds the harness
(perfbench/CMakeLists.txt: the repo's own Release libnbv6 plus
perfbench/harness) into .bench_build/; later runs reuse the build.

Workloads (sizes, threads and why each was chosen: BENCHMARK.json):
  fleet       the client side in one call on nproc lanes: a 64-home year
              through Pipeline::run, a 512-home week through
              engine::stream_fleet, 7 what-if variants through
              ForestScheduler::run from a cold cache
  web_survey  10k-site universe: survey, domain records, provider rows

--trace 0 measures the end-to-end metrics untraced: it repeats a short
timed call for --seconds, each on a fresh set-up, and reports the 90th
percentile of the call times and the median of the set-up times (why:
the kCallQuantile note in perfbench/harness/bench.h). --trace 1 makes the
separate traced run: one traced call plus the untraced references it is
compared against (not bounded by --seconds). It yields the per-layer
metrics and writes its spans as Chrome trace-event JSON to
.bench_build/traces/. A per-layer metric of a layer the workload never
calls reads 0.

Every run checks its outputs: the seed-independent invariants always, and
for the seeds listed in perfbench/reference.json the output digest too.
Every run prints its digest; a reference for another seed is added to
reference.json by hand, from a run that passed its other checks.
A run whose check fails reports no timings and exits 1. --workload all
runs every workload and prefixes each metric with its workload's name.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it are for people:
the host context and every metric the harness measured, with its unit.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "nbv6_perfbench")
WORKLOADS = ["fleet", "web_survey"]
HARNESS_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure (once) and build the harness; serialised by a lock file."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} is not an nbv6 checkout (no CMakeLists.txt and src/)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        configured = os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")) and any(
            os.path.isfile(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile"))
        if not configured:
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release", *gen])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")


def host_context(workload, seed):
    # A benchmark checkout need not be a git repository; then the digest of
    # src/ identifies the code instead of a commit.
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"workload": workload, "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def reference_digest(path, size, workload, seed):
    if not path or not os.path.isfile(path):
        return ""
    with open(path) as f:
        ref = json.load(f)
    return ref.get(size, {}).get(workload, {}).get(str(seed), "")


def run_harness(args, workload, seconds):
    size = "tiny" if args.tiny else "full"
    expect = reference_digest(args.reference, size, workload, args.seed)
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--root", ROOT,
           "--trace-out", os.path.join(trace_dir, f"{workload}-seed{args.seed}.json")]
    if expect:
        cmd += ["--expect-digest", expect]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"harness timed out after {HARNESS_TIMEOUT_S} s", expect
    if proc.returncode != 0:
        return None, (proc.stderr.strip() or f"harness exited {proc.returncode}"), expect
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), "", expect
    except (IndexError, ValueError):
        return None, "harness printed no result", expect


def one_workload(args, spec, workload, seconds):
    """Runs one workload; returns (correct, attempted, failed, metrics)."""
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    ctx = host_context(workload, args.seed)
    out, error, expect = run_harness(args, workload, seconds)
    print(f"== {workload} (seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, "
          f"{'tiny' if args.tiny else 'full'} size)")
    if out is None:
        print(f"   error: {error}")
        return False, 1, 1, {}
    ctx.update(out["context"])
    ctx["threads_peak"] = out["threads_peak"]
    print("   context: " + json.dumps(ctx, sort_keys=True))
    print(f"   digest: {out['digest']} "
          f"({'checked against reference' if expect else 'no reference for this seed'})")
    measured = out["metrics"]
    attempted, failed = out["attempted"], out["failed"]
    for msg in out["failures"]:
        print(f"   CHECK FAILED: {msg}")
    for m in declared:
        got = measured.get(m["name"])
        if got is not None and got["unit"] != m["unit"]:
            print(f"   harness reports {m['name']} in {got['unit']}, "
                  f"BENCHMARK.json declares {m['unit']}")
            failed, attempted = failed + 1, attempted + 1
        elif got is None and not args.trace:
            print(f"   harness did not report {m['name']}")
            failed, attempted = failed + 1, attempted + 1
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        # A layer this workload never calls reports 0 on the traced run.
        value = got["value"] if got is not None else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = "" if got is not None else "   (layer not exercised)"
        print(f"   {m['name']:<28} {value:>18.6g} {m['unit']}{note}")
    declared_names = {m["name"] for m in declared}
    for name, got in measured.items():
        if name not in declared_names:
            print(f"   {name:<28} {got['value']:>18.6g} {got['unit']}   (extra)")
    print(f"   check_failures = {failed} of {attempted} checks")
    correct = failed == 0
    if not correct:
        metrics = {}  # a failed run reports no timings
    return correct, attempted, failed, metrics


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's self-test")
    p.add_argument("--reference",
                   default=os.path.join(HERE, "reference.json"),
                   help="reference digests by size, workload and seed")
    args = p.parse_args()

    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        c, a, f, m = one_workload(args, spec, w, args.seconds)
        correct, attempted, failed = correct and c, attempted + a, failed + f
        if len(workloads) == 1:
            metrics = m
        else:
            metrics.update({f"{w}/{k}": v for k, v in m.items()})
    if not correct:
        metrics = {}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-tests of the nbv6 benchmark. Run from the checkout root:

    python3 perfbench/selftest.py

1. smoke: every workload at tiny size, untraced and traced, prints every
   metric BENCHMARK.json declares for that mode, with its unit; every
   end-to-end value is above 0, each traced run measures exactly the
   per-layer metrics of the layers it calls (LAYERS below), every
   per-layer metric is measured by at least one workload, and each traced
   run leaves a readable span file.
2. reference: a corrupted reference digest makes the run a failure (exit
   1, correct false, no timings), and the true digest makes it a pass.
3. threads: no workload has more than nproc threads alive at once, and
   the pooled workloads reach nproc, which shows the counter is live.
4. bare: in a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when every test passes.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ["fleet", "web_survey"]
# Workloads that run a pool of nproc - 1 workers beside the caller.
POOLED = {"fleet"}

# The per-layer metrics each workload's traced run measures: those of the
# layers it calls. The traced run prints every other declared metric as 0.
_TRACE = {"trace.overhead_s", "trace.uncovered_frac"}
_STAGES = {f"{s}.busy_frac" for s in
           ("sample", "timeline", "simulate", "metrics", "report",
            "window_panel")}
LAYERS = {
    "fleet": _TRACE | _STAGES | {
        "stream.fill_frac", "stream.merge_sink_frac", "stream.sink_calls",
        "stream.lane_speedup", "stream.flows_per_s_1lane",
        "simulate.lane_speedup", "simulate.flows", "simulate.rss_mb",
        "sample.rss_mb", "pipeline.executed", "pipeline.cached",
        "pipeline.deduped", "pipeline.released", "pipeline.peak_resident",
        "pipeline.reuse_frac", "forest.efficiency"},
    "web_survey": _TRACE | {
        "universe.busy_frac", "zone.busy_frac", "crawl.busy_frac",
        "crawl.sites", "crawl.resources", "crawl.ok_frac",
        "classify.busy_frac", "records.busy_frac", "records.count",
        "attribution.busy_frac"},
}


failures = []


def check(ok, what):
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stdout


def context(stdout):
    m = re.search(r"context: (\{.*\})", stdout)
    return json.loads(m.group(1)) if m else {}


def smoke(spec, nproc):
    print("smoke + threads")
    measured_somewhere = set()
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res, out = run(["--workload", w, "--tiny", "--seconds", "0.5",
                                "--trace", str(trace), "--seed", "3"])
            tag = f"{w} trace={trace}"
            check(rc == 0 and res is not None and res["correct"],
                  f"{tag}: runs and passes its checks")
            if res is None:
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{tag}: result has exactly the four keys")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared, f"{tag}: every declared metric, with its unit")
            if trace == 0:
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      f"{tag}: every end-to-end value is above 0")
            else:
                measured = {name for name in declared
                            if re.search(rf"^\s+{re.escape(name)}\s", out, re.M)
                            and not re.search(rf"^\s+{re.escape(name)}\s.*"
                                              "not exercised", out, re.M)}
                check(measured == LAYERS[w],
                      f"{tag}: measures exactly its layers' metrics "
                      f"(missing: {sorted(LAYERS[w] - measured)}, "
                      f"unexpected: {sorted(measured - LAYERS[w])})")
                measured_somewhere |= measured
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    f"{w}-seed3.json")
                try:
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    names = {e["name"] for e in events}
                    ok = "traced_run" in names and all(
                        e["ph"] in ("X", "M") for e in events)
                except (OSError, ValueError, KeyError):
                    ok = False
                check(ok, f"{tag}: span file is valid trace-event JSON")
            peak = context(out).get("threads_peak", 10**9)
            check(peak <= nproc, f"{tag}: peak threads {peak} <= nproc {nproc}")
            if w in POOLED and nproc > 1:
                check(peak == nproc,
                      f"{tag}: the thread counter sees the pool "
                      f"(peak {peak} == nproc {nproc})")
    missing = sorted(set(m["name"] for m in spec["per_layer"]) - measured_somewhere)
    check(not missing, f"every per-layer metric measured by some workload "
                       f"(missing: {missing})")


def reference():
    print("reference")
    os.makedirs(SCRATCH, exist_ok=True)
    rc, res, out = run(["--workload", "fleet", "--tiny", "--seconds", "0.2",
                        "--seed", "5", "--reference", "none"])
    m = re.search(r"digest: ([0-9a-f]{16})", out)
    check(rc == 0 and m is not None, "tiny fleet run prints its digest")
    if m is None:
        return
    digest = m.group(1)
    bad = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    for value, want_ok in ((digest, True), (bad, False)):
        path = os.path.join(SCRATCH, "reference.json")
        with open(path, "w") as f:
            json.dump({"tiny": {"fleet": {"5": value}}}, f)
        rc, res, out = run(["--workload", "fleet", "--tiny", "--seconds", "0.2",
                            "--seed", "5", "--reference", path])
        if want_ok:
            check(rc == 0 and res and res["correct"] and res["failed"] == 0,
                  "true reference digest passes")
        else:
            check(rc == 1 and res is not None and not res["correct"]
                  and res["failed"] > 0 and res["metrics"] == {},
                  "corrupted reference digest fails, with no timings")


def bare():
    print("bare")
    d = os.path.join(SCRATCH, "bare")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
    shutil.copytree(HERE, os.path.join(d, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, res, _ = run(["--workload", "fleet", "--seed", "1"], cwd=d,
                     script=os.path.join(d, "perfbench", "run.py"))
    check(rc != 0 and res is None,
          "exits non-zero without a result when the sources are absent")
    shutil.rmtree(d, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    nproc = len(os.sched_getaffinity(0))
    smoke(spec, nproc)
    reference()
    bare()
    print(f"{'PASS' if not failures else 'FAIL'}: {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

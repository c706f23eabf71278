#!/usr/bin/env python3
"""Self-test of the benchmark at minimal sizes.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that each metric named in
BENCHMARK.json is printed with its unit and a finite value and that the run
is correct.  It then corrupts one number of a reference and checks that the
run reports the mismatch as a failure.  It also checks that
perfbench/layer_map.json maps every per-layer metric.  Exits 0 when all
checks pass.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SCRATCH = ".perfbench-selftest"
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, refs, *extra):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
        "--seconds", "1", "--trace", str(trace), "--tiny", "--refs", refs,
    ] + list(extra)
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        check(False, "%s trace %d exits 0 with a result (stderr: %s)" % (workload, trace, p.stderr[-400:]))
        return None
    return json.loads(lines[-1])


def check_metrics(result, specs, label):
    metrics = result["metrics"]
    for spec in specs:
        got = metrics.get(spec["name"])
        check(
            got is not None
            and got.get("unit") == spec["unit"]
            and isinstance(got.get("value"), (int, float))
            and math.isfinite(got["value"]),
            "%s prints %s in %s" % (label, spec["name"], spec["unit"]),
        )
    check(set(metrics) == {s["name"] for s in specs}, "%s prints no other metric" % label)


def corrupt(path):
    """Change the first iteration count of the first scenario."""
    with open(path) as f:
        doc = json.load(f)
    first = next(iter(doc["outputs"].values()))
    first["iterations"][0] += 1
    with open(path, "w") as f:
        json.dump(doc, f)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open("perfbench/layer_map.json") as f:
        rules = json.load(f)["rules"]
    workloads = {w["name"] for w in bench["workloads"]}
    for spec in bench["per_layer"]:
        rule = [r for r in rules if spec["name"].startswith(r["prefix"])]
        check(
            bool(rule) and set(max(rule, key=lambda r: len(r["prefix"]))["on"]) <= workloads,
            "layer_map.json maps %s" % spec["name"],
        )
    shutil.rmtree(SCRATCH, ignore_errors=True)
    refs = os.path.join(SCRATCH, "refs")
    try:
        for w in sorted(workloads):
            result = run(w, 0, refs, "--write-refs")
            if result:
                check_metrics(result, bench["end_to_end"], w + " untraced")
                check(result["correct"] and result["failed"] == 0, w + " untraced is correct")
            result = run(w, 1, refs)
            if result:
                check_metrics(result, bench["per_layer"], w + " traced")
                check(result["correct"], w + " traced is correct and matches the reference")
            corrupt(os.path.join(refs, w + ".json"))
            result = run(w, 0, refs)
            if result:
                check(
                    not result["correct"] and result["failed"] >= 1,
                    w + " reports a corrupted reference as a failure",
                )
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

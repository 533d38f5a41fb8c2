#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that an untraced run
prints every end-to-end metric and a traced run every per-layer metric,
each with its declared unit, that a traced run writes its per-layer table
and spans, and that a deliberately wrong known answer is counted as a
failure (and in fail_rate) rather than passed.  Exits 1 on the first
failed check.
"""

import json
import os
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
OUT_DIR = ".bench_out"
# The workload-specific end-to-end figures printed beside the JSON result.
HEADLINES = {
    "kv-ycsb": ["kv_read_ops_per_s", "kv_write_ops_per_s"],
    "explore": ["dpor_verdict_s", "race_verdict_s"],
}


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny"] + list(extra)
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        fail("%s exited %d: %s" % (" ".join(cmd), r.returncode, r.stderr[-2000:]))
    lines = r.stdout.rstrip("\n").splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted %r" % (workload, result["attempted"]))
    return result, lines[:-1]


def printed(lines, name):
    """The value of a 'name value unit' line of the human-readable report."""
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == name:
            return float(parts[1]), parts[2]
    fail("no %s line in the report" % name)


def check_metrics(workload, result, declared):
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        fail("%s: metrics %s, declared %s" % (workload, sorted(metrics), sorted(names)))
    for m in declared:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            fail("%s: %s has unit %r, declared %r"
                 % (workload, m["name"], got.get("unit"), m["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            fail("%s: %s has value %r" % (workload, m["name"], got.get("value")))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        result, lines = run(w, 0)
        if not result["correct"] or result["failed"] != 0:
            fail("%s: known answers failed on the tiny sizes" % w)
        check_metrics(w, result, bench["end_to_end"])
        for name in HEADLINES.get(w, []) + ["fail_rate"]:
            printed(lines, name)

        result, lines = run(w, 1)
        check_metrics(w, result, bench["per_layer"])
        with open(os.path.join(OUT_DIR, w + "-layers.json")) as f:
            rows = json.load(f)["rows"]
        if "Game.prim_share" not in rows:
            fail("%s: layer table has no Game.prim_share" % w)
        with open(os.path.join(OUT_DIR, w + "-spans.json")) as f:
            spans = json.load(f)["traceEvents"]
        levels = {e["cat"] for e in spans}
        if levels != {"workload", "operation", "call"}:
            fail("%s: span levels %s" % (w, sorted(levels)))
        ops = {e["args"]["op"] for e in spans if e["cat"] == "operation"}
        if not any(e["args"]["op"] in ops for e in spans if e["cat"] == "call"):
            fail("%s: no layer call shares an operation id" % w)

        result, lines = run(w, 0, "--corrupt-answer")
        if result["correct"] or result["failed"] == 0:
            fail("%s: a wrong known answer was not counted" % w)
        rate, _ = printed(lines, "fail_rate")
        if abs(rate - result["failed"] / result["attempted"]) > 1e-3:
            fail("%s: fail_rate %s, expected failed/attempted" % (w, rate))
        print("selftest: %s ok" % w)
    print("selftest: all ok")


if __name__ == "__main__":
    main()

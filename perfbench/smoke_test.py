#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny scale.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that an untraced run
emits exactly the end-to-end metrics, a traced run exactly the
per-layer metrics, each with its listed unit; that every result row is
tagged with its host; that the served workload also prints the
request_p50_s, requests_per_s, teardown_s and error_frac lines; and
that a deliberately wrong reference (another campaign seed) makes the
correctness check fail with a non-zero exit.  Finally it checks that
the benchmark refuses to run, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = ["python3", "perfbench/run.py"]
HOST_KEYS = ("cpu_model", "nproc", "simd_backend", "build_type", "git_sha",
             "source_digest", "workload", "seed")


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg, file=sys.stderr)
        sys.exit(1)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke"] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines


def result(lines, what):
    check(lines, what + ": no output")
    doc = json.loads(lines[-1])
    check(set(doc) == {"correct", "attempted", "failed", "metrics"},
          what + ": result keys " + str(sorted(doc)))
    return doc


def check_metrics(doc, listed, what, nonzero):
    got = doc["metrics"]
    names = [m["name"] for m in listed]
    check(sorted(got) == sorted(names),
          what + ": metrics differ from BENCHMARK.json: " +
          str(sorted(set(got) ^ set(names))))
    for m in listed:
        v = got[m["name"]]
        check(v["unit"] == m["unit"],
              "%s: %s unit %s, listed %s" % (what, m["name"], v["unit"],
                                             m["unit"]))
        check(isinstance(v["value"], (int, float)) and
              math.isfinite(v["value"]), what + ": " + m["name"])
        if nonzero:
            check(v["value"] != 0, what + ": " + m["name"] + " is 0")


def last_row():
    path = os.path.join(ROOT, ".bench_build", "runs", "results.jsonl")
    with open(path) as f:
        return json.loads(f.read().strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (x["name"] for x in bench["workloads"]):
        rc, lines = run(w, 0)
        doc = result(lines, w)
        check(rc == 0 and doc["correct"] and doc["failed"] == 0 and
              doc["attempted"] >= 1, w + ": untraced run failed")
        check_metrics(doc, bench["end_to_end"], w, nonzero=True)
        row = last_row()
        for k in HOST_KEYS:
            check(row.get(k) not in (None, ""), w + ": row lacks " + k)
        check(row["workload"] == w and row["seed"] == 3, w + ": row tag")
        check(any(k.startswith("threads.") for k in row),
              w + ": row lacks thread counts")
        if w == "served-int8":
            text = "\n".join(lines)
            for name in ("request_p50_s", "requests_per_s", "teardown_s",
                         "error_frac"):
                check(name in text, w + ": no " + name + " line")

        rc, lines = run(w, 1)
        doc = result(lines, w + " traced")
        check(rc == 0 and doc["correct"], w + ": traced run failed")
        check_metrics(doc, bench["per_layer"], w + " traced", nonzero=False)
        spans = os.path.join(ROOT, ".bench_build", "runs",
                             w + "-seed3.spans.json")
        with open(spans) as f:
            check(len(json.load(f)) > 0, w + ": no spans written")

        rc, lines = run(w, 0, "--reference-seed-offset", "1")
        doc = result(lines, w + " wrong reference")
        check(rc != 0 and not doc["correct"] and doc["failed"] > 0,
              w + ": a wrong reference was not detected")
        print("ok  " + w)

    # Without the repository's sources the benchmark cannot build the
    # program: it must fail without printing a result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = run(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0, "bare directory: exit code 0")
    check(not lines or not lines[-1].startswith("{"),
          "bare directory: printed a result")
    print("ok  bare directory refused")


if __name__ == "__main__":
    main()

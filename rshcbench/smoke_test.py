#!/usr/bin/env python3
"""Smoke test of the rshc benchmark itself. Run from the checkout root:

    python3 rshcbench/smoke_test.py

Runs every workload in quick mode on two seeds (untraced) and once traced,
and checks that each run is correct with zero failed operations and reports
every declared metric; that kh_srhd and kh_srhd_device reach equal
final-state digests; that a planted failure (a serve_mix job naming an
unknown problem, which admission must refuse) is counted; and that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files. Exits non-zero on
the first broken expectation.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kh_srhd", "kh_srhd_device", "blast_srmhd_dist4", "serve_mix")
SEEDS = (1, 7)


def run(workload, seed, trace=0, extra=(), cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--quick", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc, what):
    if proc.returncode != 0:
        fail(f"{what}: exit code {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(workload, seed, trace):
    path = os.path.join(ROOT, ".bench_build", "results",
                        f"{workload}-seed{seed}-trace{trace}-quick.json")
    with open(path) as f:
        return json.load(f)


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}

    for seed in SEEDS:
        for w in WORKLOADS:
            res = result_of(run(w, seed), f"{w} seed {seed}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                fail(f"{w} seed {seed}: {res}")
            if set(res["metrics"]) != declared[0]:
                fail(f"{w} seed {seed}: metrics {sorted(res['metrics'])}")
            if any(m["value"] <= 0 for m in res["metrics"].values()):
                fail(f"{w} seed {seed}: an end-to-end metric is not positive")
            print(f"ok  {w} seed {seed}: {res['attempted']} operations")
        digests = {w: record_of(w, seed, 0)["info"]["final_state_digest"]
                   for w in ("kh_srhd", "kh_srhd_device")}
        if len(set(digests.values())) != 1:
            fail(f"seed {seed}: KH final-state digests differ: {digests}")
        print(f"ok  seed {seed}: KH digests equal ({digests['kh_srhd']})")

    for w in WORKLOADS:
        res = result_of(run(w, SEEDS[0], trace=1), f"{w} traced")
        if not res["correct"] or set(res["metrics"]) != declared[1]:
            fail(f"{w} traced: {res}")
        print(f"ok  {w} traced: {len(res['metrics'])} per-layer metrics")
    kh = result_of(run("kh_srhd", SEEDS[0], trace=1), "kh_srhd traced")
    if kh["metrics"]["solver.update_c2p_ms"]["value"] < 0:
        fail("solver.update_c2p_ms is negative on kh_srhd")

    planted = result_of(run("serve_mix", SEEDS[0], extra=["--plant-failure"]),
                        "serve_mix planted failure")
    if planted["correct"] or planted["failed"] < 1:
        fail(f"planted failure not counted: {planted}")
    print(f"ok  planted failure counted ({planted['failed']} failed)")

    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("kh_srhd", 1, cwd=bare,
               script=os.path.join(bare, os.path.basename(HERE), "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  bare directory refused (exit {proc.returncode})")
    print("smoke test passed")


if __name__ == "__main__":
    main()

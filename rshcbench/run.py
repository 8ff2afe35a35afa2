#!/usr/bin/env python3
"""Build the rshc benchmark from the enclosing checkout and run one workload.

    python3 rshcbench/run.py --workload kh_srhd --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark program (the rshc library modules it links, plus rshcbench/src) under
.bench_build/; later runs rebuild incrementally. The output is a table of
every metric with its unit, the correctness verdict, the host record, and
as the last line one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics (a layer the workload does not exercise
reads 0). The full record, host included, is written to
.bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

WORKLOADS = ("kh_srhd", "kh_srhd_device", "blast_srmhd_dist4", "serve_mix")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "rshcbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
BINARY = os.path.join(BUILD_DIR, "rshc_bench")
RUN_TIMEOUT_S = 170


def die(msg, code):
    print(f"rshcbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    for need in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"no rshc source tree here ({need} missing under {ROOT})", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rshc_bench",
                  "-j", str(nproc())])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                die(f"build failed ({' '.join(cmd)}):\n{tail}", 3)


def cmake_cache():
    cache = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^([A-Za-z0-9_]+):[A-Z]+=(.*)$", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    return cache


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def source_digest():
    """sha256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "include"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def host_record(args, cache):
    cpu = None
    cpuinfo = read_text("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            level = read_text(os.path.join(base, idx, "level"))
            kind = read_text(os.path.join(base, idx, "type"))
            size = read_text(os.path.join(base, idx, "size"))
            if level in ("2", "3") and kind in ("Unified", "Data"):
                caches[f"L{level}"] = size
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "obs_compiled": cache.get("RSHC_OBS", "ON"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "quick": args.quick,
    }


def declared_metrics(trace):
    """(name -> unit) for the metrics BENCHMARK.json asks of this run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smoke mode: short episodes, few jobs")
    ap.add_argument("--plant-failure", action="store_true",
                    help="add an operation the program must refuse")
    args = ap.parse_args()

    build()
    work = os.path.join(BUILD_ROOT, "work", f"{args.workload}-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.quick:
        cmd.append("--quick")
    if args.plant_failure:
        cmd.append("--plant-failure")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{args.workload} exited with code {proc.returncode}", 5)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    declared = declared_metrics(args.trace)
    for name, unit in declared.items():
        if name not in metrics:
            if not args.trace:
                die(f"{args.workload} did not report {name}", 6)
            metrics[name] = {"value": 0.0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            die(f"{name}: unit {metrics[name]['unit']} != declared {unit}", 6)
    extra = sorted(set(metrics) - set(declared))
    if extra:
        die(f"{args.workload} reported undeclared metrics {extra}", 6)
    metrics = {name: metrics[name] for name in declared}
    for name, m in metrics.items():
        if m["value"] is None:
            die(f"{name} is not a finite number", 6)

    cache = cmake_cache()
    host = host_record(args, cache)
    record = dict(result, metrics=metrics, host=host)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record_path = os.path.join(
        RESULTS_DIR,
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        f"{'-quick' if args.quick else ''}.json")
    trace = result.get("info", {}).get("trace_file")
    if trace:
        kept = os.path.join(RESULTS_DIR, os.path.basename(trace))
        os.replace(trace, kept)
        record["info"]["trace_file"] = os.path.relpath(kept, ROOT)
    try:
        os.rmdir(work)
    except OSError:
        pass
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)

    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"verdict: {verdict}, {result['attempted']} operations, "
          f"{result['failed']} failed")
    for failure in result.get("failures", []):
        print(f"  failure: {failure}")
    print("host: " + json.dumps(host))
    print("record: " + os.path.relpath(record_path, ROOT))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

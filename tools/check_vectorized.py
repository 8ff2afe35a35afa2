#!/usr/bin/env python3
"""Guard that the lane-wise con2prim passes stay vectorized (GCC only).

The batched con2prim kernels (src/srhd/kernels_simd.cpp with its
kernels_impl.inc, src/srmhd/kernels_simd.cpp) solve a tile of zones in
lockstep; their speed comes entirely from GCC vectorizing the per-tile
passes. A one-line change (a by-reference std::max on a lane array, a bool
lane array, a reduction folded into a pass) silently turns a pass back
into a scalar loop while every bitwise test stays green. This check
recompiles the two TUs with the build's own command line plus
-fopt-info-vec-optimized and fails unless every loop marked

    // rshc: must-vectorize
    for (...)

in the TU or in a header it includes by a relative #include "..." is
reported as "loop vectorized".

Usage
-----
    check_vectorized.py validate [--build-dir DIR]   # default mode
    check_vectorized.py selftest [--build-dir DIR]

Exit codes: 0 clean (or skipped: not GCC), 1 a marked loop did not
vectorize, 2 usage or structural error (no compile database, TU missing,
no marker found, compile failed).

`selftest` recompiles a temporary copy of the SRHD kernel TU twice: as is
(must pass) and with a seeded by-reference std::max regression in the
Newton pass (must be caught, naming that loop).
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TUS = ("src/srhd/kernels_simd.cpp", "src/srmhd/kernels_simd.cpp")
MARKER = "// rshc: must-vectorize"
EXIT_OK, EXIT_MISSED, EXIT_USAGE = 0, 1, 2

# Seeded regression for the selftest: the SRHD Newton pass's bracket update
# rewritten with std::max by reference on the lane arrays (same values, but
# GCC 12 no longer if-converts the pass).
SEED_FILE = "kernels_impl.inc"
SEED_FROM = "const double lo_n = above ? max_of(lo, p) : lo;"
SEED_TO = ("const double& lo_n = above ? std::max(t.lo[l], t.p[l]) "
           ": t.lo[l];")


class Structural(Exception):
    pass


def load_db(build_dir: Path) -> list[dict]:
    path = build_dir / "compile_commands.json"
    if not path.is_file():
        raise Structural(f"{path} not found (configure the build first)")
    return json.loads(path.read_text())


def entry_for(db: list[dict], tu: Path) -> dict:
    for e in db:
        if Path(e["directory"], e["file"]).resolve() == tu.resolve():
            return e
    raise Structural(f"{tu} has no entry in compile_commands.json")


def argv_of(entry: dict) -> list[str]:
    if "arguments" in entry:
        return list(entry["arguments"])
    return shlex.split(entry["command"])


def is_gcc(compiler: str) -> bool:
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, check=False).stdout
    except OSError:
        return False
    return "clang" not in out.lower() and (
        "Free Software Foundation" in out or "GCC" in out)


def marked_loops(tu: Path) -> list[tuple[Path, int]]:
    """(file, line) of the loop following each marker, in the TU and in
    the files it includes by a relative #include "..."."""
    files = [tu]
    for line in tu.read_text().splitlines():
        m = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
        if m and (tu.parent / m.group(1)).is_file():
            files.append(tu.parent / m.group(1))
    loops = []
    for f in files:
        lines = f.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.strip() != MARKER:
                continue
            j = i + 1
            while j < len(lines) and lines[j].strip().startswith("//"):
                j += 1
            if j >= len(lines) or not lines[j].lstrip().startswith("for"):
                raise Structural(f"{f}:{i + 1}: marker not followed by a "
                                 "for loop")
            loops.append((f.resolve(), j + 1))
    return loops


def vectorized_lines(entry: dict, tu: Path) -> set[tuple[Path, int]]:
    argv = argv_of(entry)
    out_argv = []
    skip = False
    for a in argv:
        if skip:
            skip = False
            continue
        if a == "-o":
            skip = True
            continue
        if Path(entry["directory"], a).resolve() == Path(
                entry["directory"], entry["file"]).resolve():
            a = str(tu)
        out_argv.append(a)
    out_argv += ["-o", "/dev/null", "-fopt-info-vec-optimized"]
    p = subprocess.run(out_argv, cwd=entry["directory"], capture_output=True,
                       text=True, check=False)
    if p.returncode != 0:
        raise Structural(f"compiling {tu} failed:\n{p.stderr[-2000:]}")
    found = set()
    for line in p.stderr.splitlines():
        m = re.match(r"(.+?):(\d+):\d+: optimized: loop vectorized", line)
        if m:
            found.add((Path(entry["directory"], m.group(1)).resolve(),
                       int(m.group(2))))
    return found


def check_tu(entry: dict, tu: Path) -> list[str]:
    loops = marked_loops(tu)
    if not loops:
        raise Structural(f"{tu}: no '{MARKER}' loop (marker renamed?)")
    done = vectorized_lines(entry, tu)
    missed = []
    for f, line in loops:
        status = "vectorized" if (f, line) in done else "NOT vectorized"
        print(f"  {f.name}:{line}: {status}")
        if (f, line) not in done:
            missed.append(f"{f}:{line}")
    return missed


def validate(build_dir: Path) -> int:
    db = load_db(build_dir)
    missed = []
    for rel in TUS:
        tu = REPO / rel
        entry = entry_for(db, tu)
        if not is_gcc(argv_of(entry)[0]):
            print(f"check_vectorized: {argv_of(entry)[0]} is not GCC; "
                  "skipped (the must-vectorize contract is GCC's report)")
            return EXIT_OK
        print(f"{rel}:")
        missed += check_tu(entry, tu)
    for m in missed:
        print(f"{m}: [must-vectorize] loop was not vectorized", file=sys.stderr)
    return EXIT_MISSED if missed else EXIT_OK


def selftest(build_dir: Path) -> int:
    db = load_db(build_dir)
    tu = REPO / TUS[0]
    entry = entry_for(db, tu)
    if not is_gcc(argv_of(entry)[0]):
        print("check_vectorized selftest: not GCC; skipped")
        return EXIT_OK
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / tu.name
        shutil.copy(tu, copy)
        shutil.copy(tu.parent / SEED_FILE, Path(tmp) / SEED_FILE)
        print("clean copy:")
        if check_tu(entry, copy):
            print("selftest FAILED: the unmodified kernel does not pass",
                  file=sys.stderr)
            return EXIT_MISSED
        seeded = Path(tmp) / SEED_FILE
        text = seeded.read_text()
        if SEED_FROM not in text:
            raise Structural(f"seed anchor not found in {SEED_FILE}: "
                             f"{SEED_FROM!r}")
        seeded.write_text(text.replace(SEED_FROM, SEED_TO))
        print("seeded std::max-by-reference regression:")
        missed = check_tu(entry, copy)
        anchor = next(i + 1 for i, line in
                      enumerate(seeded.read_text().splitlines())
                      if SEED_TO in line)
        # The regression sits inside the Newton pass: the nearest marked
        # loop above the seeded line must be the one reported.
        loops = [line for f, line in marked_loops(copy)
                 if f == seeded.resolve() and line < anchor]
        want = f"{seeded.resolve()}:{max(loops)}" if loops else None
        if want is None or want not in missed:
            print("selftest FAILED: the seeded regression was not caught",
                  file=sys.stderr)
            return EXIT_MISSED
    print("selftest passed: clean kernel accepted, seeded regression caught")
    return EXIT_OK


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", nargs="?", default="validate",
                    choices=("validate", "selftest"))
    ap.add_argument("--build-dir", type=Path, default=REPO / "build")
    args = ap.parse_args(argv)
    try:
        if args.mode == "selftest":
            return selftest(args.build_dir)
        return validate(args.build_dir)
    except Structural as e:
        print(f"check_vectorized: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

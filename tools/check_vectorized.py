#!/usr/bin/env python3
"""Guard that the lane-wise kernels stay vectorized (GCC only).

The batched con2prim kernels (src/srhd/kernels_simd.cpp with its
kernels_impl.inc, src/srmhd/kernels_simd.cpp) solve a tile of zones in
lockstep, the face kernels (src/riemann/faces_simd.cpp) solve a row of
interfaces and the reconstruction kernels (src/recon/reconstruct.cpp)
reconstruct a row of cells as one branch-free lane loop; their speed comes
entirely from GCC vectorizing those loops. A one-line change (a by-reference std::max on
a lane array, a bool lane array, a reduction folded into a pass, a physics
call left out of line) silently turns a loop back into a scalar one while
every bitwise test stays green. This check recompiles the TUs with the
build's own command line plus -fopt-info-vec-optimized-missed and fails
unless every loop marked

    // rshc: must-vectorize
    for (...)

in the TU or in a header it includes by a relative #include "..." is
reported as "loop vectorized", in every copy GCC made of it: a loop in a
template is one source line with one copy per instantiation, and a single
copy reported "couldn't vectorize loop" fails the check.

Usage
-----
    check_vectorized.py validate [--build-dir DIR]   # default mode
    check_vectorized.py selftest [--build-dir DIR]

Exit codes: 0 clean (or skipped: not GCC), 1 a marked loop did not
vectorize, 2 usage or structural error (no compile database, TU missing,
no marker found, compile failed).

`selftest` recompiles a temporary copy of each seeded TU twice: as is
(must pass) and with a seeded regression (must be caught, naming the
loop the seed breaks). The seeds: a by-reference std::max in the SRHD
Newton pass, the SRMHD face row kernel without [[gnu::flatten]], which
leaves the SRMHD physics maps out of line in the loop body, and a `&&` in
the PPM row's overshoot test.
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
TUS = ("src/srhd/kernels_simd.cpp", "src/srmhd/kernels_simd.cpp",
       "src/riemann/faces_simd.cpp", "src/recon/reconstruct.cpp")
MARKER = "// rshc: must-vectorize"
EXIT_OK, EXIT_MISSED, EXIT_USAGE = 0, 1, 2

# Seeded regressions for the selftest: (TU, file to seed next to it, text,
# replacement, where the loop it breaks sits relative to the seeded line).
SEEDS = (
    # The SRHD Newton pass's bracket update rewritten with std::max by
    # reference on the lane arrays (same values, but GCC 12 no longer
    # if-converts the pass).
    ("src/srhd/kernels_simd.cpp", "kernels_impl.inc",
     "const double lo_n = above ? max_of(lo, p) : lo;",
     "const double& lo_n = above ? std::max(t.lo[l], t.p[l]) : t.lo[l];",
     "above"),
    # The SRMHD face row kernel without flatten: the SRMHD physics maps are
    # too large for the inliner's heuristics, so they stay calls in the
    # loop body.
    ("src/riemann/faces_simd.cpp", "faces_simd.cpp",
     "[[gnu::flatten, gnu::noinline]] void srmhd_row(",
     "[[gnu::noinline]] void srmhd_row(",
     "below"),
    # The PPM row's qp correction short-circuited on the qm one, as the
    # scheme's `else if` reads (same values: the tests exclude each other).
    # GCC 12 does not if-convert that `&&`, so the PPM row turns scalar.
    # (An early-return minmod in the PLM row is no such seed: GCC
    # if-converts it and the row stays vectorized.)
    ("src/recon/reconstruct.cpp", "reconstruct.cpp",
     "const bool over_p = -dq * dq > dq * q6;",
     "const bool over_p = !over_m && -dq * dq > dq * q6;",
     "above"),
)


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


def local_files(tu: Path) -> list[Path]:
    """The TU and the files it includes by a relative #include "..."."""
    files = [tu]
    for line in tu.read_text().splitlines():
        m = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
        if m and (tu.parent / m.group(1)).is_file():
            files.append(tu.parent / m.group(1))
    return files


def marked_loops(tu: Path) -> list[tuple[Path, int]]:
    """(file, line) of the loop following each marker, in the TU and in
    the files it includes by a relative #include "..."."""
    loops = []
    for f in local_files(tu):
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


def vectorizer_report(entry: dict, tu: Path
                      ) -> tuple[set[tuple[Path, int]], set[tuple[Path, int]]]:
    """(file, line) of the loops GCC vectorized, and of the loops it
    reported it could not vectorize (any copy of them)."""
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
    out_argv += ["-o", "/dev/null", "-fopt-info-vec-optimized-missed"]
    p = subprocess.run(out_argv, cwd=entry["directory"], capture_output=True,
                       text=True, check=False)
    if p.returncode != 0:
        raise Structural(f"compiling {tu} failed:\n{p.stderr[-2000:]}")
    done, missed = set(), set()
    for line in p.stderr.splitlines():
        m = re.match(r"(.+?):(\d+):\d+: (optimized: loop vectorized|"
                     r"missed: couldn't vectorize loop)", line)
        if m:
            where = (Path(entry["directory"], m.group(1)).resolve(),
                     int(m.group(2)))
            (done if m.group(3).startswith("optimized") else missed).add(
                where)
    return done, missed


def check_tu(entry: dict, tu: Path) -> list[str]:
    loops = marked_loops(tu)
    if not loops:
        raise Structural(f"{tu}: no '{MARKER}' loop (marker renamed?)")
    done, scalar = vectorizer_report(entry, tu)
    missed = []
    for f, line in loops:
        ok = (f, line) in done and (f, line) not in scalar
        if ok:
            status = "vectorized"
        elif (f, line) in done:
            status = "NOT vectorized (in some copies)"
        else:
            status = "NOT vectorized"
        print(f"  {f.name}:{line}: {status}")
        if not ok:
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


def selftest_seed(db: list[dict], rel: str, seed_file: str, text: str,
                  seeded_text: str, where: str) -> bool:
    tu = REPO / rel
    entry = entry_for(db, tu)
    with tempfile.TemporaryDirectory() as tmp:
        for f in local_files(tu):
            shutil.copy(f, Path(tmp) / f.name)
        copy = Path(tmp) / tu.name
        print(f"{rel}: clean copy:")
        if check_tu(entry, copy):
            print("selftest FAILED: the unmodified kernel does not pass",
                  file=sys.stderr)
            return False
        seeded = Path(tmp) / seed_file
        body = seeded.read_text()
        if text not in body:
            raise Structural(f"seed anchor not found in {seed_file}: "
                             f"{text!r}")
        seeded.write_text(body.replace(text, seeded_text))
        print(f"{rel}: seeded {seeded_text!r}:")
        missed = check_tu(entry, copy)
        anchor = next(i + 1 for i, line in
                      enumerate(seeded.read_text().splitlines())
                      if seeded_text in line)
        # The loop the seed breaks: the nearest marked loop above (the seed
        # sits inside it) or below (the seed is on its kernel) the seed.
        loops = [line for f, line in marked_loops(copy)
                 if f == seeded.resolve()]
        near = ([max(x for x in loops if x < anchor)]
                if where == "above" and any(x < anchor for x in loops) else
                [min(x for x in loops if x > anchor)]
                if where == "below" and any(x > anchor for x in loops) else
                [])
        want = f"{seeded.resolve()}:{near[0]}" if near else None
        if want is None or want not in missed:
            print("selftest FAILED: the seeded regression was not caught",
                  file=sys.stderr)
            return False
    return True


def selftest(build_dir: Path) -> int:
    db = load_db(build_dir)
    if not is_gcc(argv_of(entry_for(db, REPO / TUS[0]))[0]):
        print("check_vectorized selftest: not GCC; skipped")
        return EXIT_OK
    for seed in SEEDS:
        if not selftest_seed(db, *seed):
            return EXIT_MISSED
    print("selftest passed: clean kernels accepted, seeded regressions "
          "caught")
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

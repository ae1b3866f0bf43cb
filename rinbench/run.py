#!/usr/bin/env python3
"""Build and run the rinkit benchmark from the root of a source checkout.

    python3 rinbench/run.py --workload {drag|fleet|pipeline} --seed N --seconds S --trace {0|1}
    python3 rinbench/run.py --selftest

The benchmark is a CMake package of its own (rinbench/CMakeLists.txt) that
compiles the rinkit library from ./src. It is built into
$CARGO_TARGET_DIR/rinbench (default .bench_build/rinbench) on first use.
The last line a run prints is its JSON result; see rinbench/METRICS.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(msg, code=2):
    print(f"rinbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "rinbench"


def build(targets):
    out = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no rinkit sources under {ROOT / 'src'}; run from a full checkout")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result only.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return out


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def selftest():
    out = build(["rinbench", "rinbench_selftest"])
    status = subprocess.run([str(out / "rinbench_selftest")]).returncode
    # BENCHMARK.json must name exactly the metrics the binary reports.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = subprocess.run([str(out / "rinbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout.splitlines()
    problems = []
    for kind in ("end_to_end", "per_layer"):
        binary = [line.split()[1:] for line in listed if line.startswith(kind + " ")]
        if [[m["name"], m["unit"]] for m in spec[kind]] != binary:
            problems.append(f"{kind} names or units differ from the binary's")
    for p in problems:
        print(f"FAIL BENCHMARK.json: {p}")
    if not problems:
        print("ok   BENCHMARK.json matches the metrics the binary reports")
    return 1 if status or problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["drag", "fleet", "pipeline"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests instead of a workload")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    out = build(["rinbench"])
    sys.stdout.flush()
    cmd = [str(out / "rinbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out / "traces"), "--commit", source_id()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the repository benchmark from this checkout's sources and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <serve_hot|serve_scoped|campaign> \
        --seed <n> --seconds <s> --trace <0|1> [--corrupt]

The first run configures and compiles perfbench/ (which pulls in ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
re-check the build. Build output goes to stderr. The run's own stdout is passed
through: an "info" line, a "regime" line for serve workloads, and last the
result object {"correct", "attempted", "failed", "metrics"}. The metric names
and units are checked against BENCHMARK.json. Exit status: the benchmark's
(0 = every output check passed), or nonzero when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_LIMIT_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/ next to perfbench/; run from a full checkout")
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = os.path.join(build_dir, "drongo_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no drongo_perfbench")
    return binary


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt resolver answers so the checks must fail")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    binary = build(os.path.join(target, "perfbench"))
    trace_dir = os.path.join(target, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--trace-dir", trace_dir, "--commit", commit_id(),
               "--source-digest", source_digest()]
    if args.corrupt:
        command.append("--corrupt")
    started = time.monotonic()
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_LIMIT_S:.0f} s")
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    if not lines:
        fail(f"{args.workload} printed nothing (exit {result.returncode})")
    try:
        final = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not a JSON result")
    if set(final) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    end_to_end, per_layer = declared_metrics()
    expected = per_layer if args.trace == "1" else end_to_end
    printed = {name: m["unit"] for name, m in final["metrics"].items()}
    if printed != expected:
        fail(f"metrics differ from BENCHMARK.json: printed {sorted(printed.items())}")
    print("\n".join(lines), flush=True)
    print(f"perfbench: {args.workload} ran {time.monotonic() - started:.1f} s, "
          f"exit {result.returncode}", file=sys.stderr)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

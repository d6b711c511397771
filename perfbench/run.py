#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 30 --trace 0

Configures perfbench/ as a Release CMake build in .bench_build/perfbench,
builds it (the simulator library is compiled from src/), and runs the
perfbench program with the given arguments. Build output goes to stderr; its
last stdout line is the JSON result. Exits non-zero, printing no result,
when the sources or the build are missing.
"""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"


def source_id():
    """The git commit of the checkout, or "unknown" outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build():
    if not (ROOT / "src" / "campaign" / "runner.hpp").is_file():
        sys.exit("perfbench: no simulator sources under %s/src" % ROOT)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [str(BUILD / "perfbench"), *sys.argv[1:], "--commit", source_id()]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()

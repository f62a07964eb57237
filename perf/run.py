#!/usr/bin/env python3
"""Benchmark entry point: builds fgpu-perf from source, then runs one workload.

    python3 perf/run.py --workload exact-compute --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to build-perf/ (configured once,
then rebuilt incrementally); its output goes to stderr so that the last line
of stdout is fgpu-perf's JSON result. --trace 1 writes the Chrome trace to
build-perf/trace-<workload>-<seed>.json. --out PATH also keeps the result with
its samples, the input of perf/compare.py.
"""
import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-perf"
BINARY = BUILD / "fgpu-perf"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: fgpu sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perf"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j4", "--target", "fgpu-perf"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result with samples to this file")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append(f"--trace={BUILD / f'trace-{args.workload}-{args.seed}.json'}")
    if args.out:
        cmd.append(f"--out={args.out}")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one workload.

Run from the repository root:

    python3 campaign_bench/run.py --workload iov-mix --seed 1 --seconds 30 --trace 0

The first call configures and compiles the gpufi libraries and
campaign_bench into .bench_build/ (about a minute on four cores); later
calls only rebuild what changed. Build output goes to stderr, so the last
line of stdout is campaign_bench's JSON result. The exit code is
campaign_bench's: 0 when every output check held, 1 on a mismatch or a
build failure, 2 on bad arguments.

campaign_bench runs with address-space randomization turned off, so every
run lays out its code, heap and stack the same way: runs of one seed in
randomized layouts spread 0.07 in rate, in the fixed layout 0.03.
"""

import ctypes
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
ADDR_NO_RANDOMIZE = 0x0040000


def build():
    """Configures on first use, then brings campaign_bench up to date."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target",
                   "campaign_bench", "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def fixed_layout():
    """Runs in the child before exec: turns off address randomization.

    Where the kernel refuses, the run goes ahead in a randomized layout.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)  # queries without changing
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def main():
    if not build():
        print("campaign_bench: build failed", file=sys.stderr)
        return 1
    # campaign_bench validates the flags itself (exit 2 with usage).
    command = [BINARY] + sys.argv[1:] + ["--pins",
                                         os.path.join(HERE, "pins.txt")]
    return subprocess.run(command, cwd=ROOT,
                          preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main())

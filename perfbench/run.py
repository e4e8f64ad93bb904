#!/usr/bin/env python3
"""Build `matchd` and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Build output goes to standard error;
the benchmark's last line on standard output is its JSON result. The
build directory is $CARGO_TARGET_DIR (default `.bench_build`).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found; run from a full checkout of the repository")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        os.environ["CARGO_TARGET_DIR"] = target
    build(os.path.join(ROOT, "Cargo.toml"), "-p", "com-serve", "--bin", "matchd")
    build(os.path.join(HERE, "Cargo.toml"))
    binary = os.path.join(target, "release", "perfbench")
    matchd = os.path.join(target, "release", "matchd")
    cmd = [binary, *sys.argv[1:], "--matchd", matchd]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the release `pdce` binary and the benchmark, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload opt-pfe-wide --seed 1 --seconds 25 --trace 0

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`), run files
to `.perfbench/<workload>/`. The last line of standard output is the JSON
result; see perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        print("perfbench: run from a full checkout of the repository", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--quiet", "--bin", "pdce"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else "none"
    harness = os.path.join(target, "release", "perfbench")
    pdce = os.path.join(target, "release", "pdce")
    work = os.path.join(".perfbench", os.path.basename(workload))
    return subprocess.run([harness, *args, "--pdce", pdce, "--work", work], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

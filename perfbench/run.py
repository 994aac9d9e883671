#!/usr/bin/env python3
"""Build the release `jahob` binary and the benchmark harness, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload cold_prove --seed 1 --seconds 30 --trace 0

Builds go to $CARGO_TARGET_DIR, or `.bench_build` when it is unset. Build
output goes to stderr, so the harness's result line stays the last line of
stdout. Every `JAHOB_*` variable is removed before anything runs.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("Cargo.toml", "case_studies", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"run.py: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("JAHOB_")}
    target = os.path.join(root, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "jahob"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    )
    for build in builds:
        done = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: `{' '.join(build)}` failed", file=sys.stderr)
            return 1
    harness = os.path.join(target, "release", "perfbench")
    jahob = os.path.join(target, "release", "jahob")
    return subprocess.run([harness, "--jahob", jahob] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

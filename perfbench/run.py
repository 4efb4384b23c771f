#!/usr/bin/env python3
"""Build the repository and the perfbench harness from source, then run one
benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`): the `rumor`
binary of the main workspace (the `rumor serve` / `rumor worker` child
processes) and the harness package in this directory. The harness prints the
metrics; its last line of output is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        print("perfbench: run from the repository root (no Cargo.toml / crates here)", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "rumor-cli", "--bin", "rumor"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        # Cargo's own output goes to stderr; stdout stays the harness's.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    harness = os.path.join(release, "perfbench")
    args = [harness, "--rumor", os.path.join(release, "rumor")] + sys.argv[1:]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

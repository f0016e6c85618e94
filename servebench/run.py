#!/usr/bin/env python3
"""Build the serving benchmark from source and run one measurement.

Usage, from the repository root:

    python3 servebench/run.py --workload steady-serve --seed 1 --seconds 20 --trace 0

The benchmark is a cargo package of its own (servebench/Cargo.toml) that
builds the repository's crates through path dependencies. The build goes to
$CARGO_TARGET_DIR when set, else servebench/target. Scratch state (daemon
snapshots, Chrome traces) goes to servebench/out. The last line of stdout
is the JSON result; the exit code is non-zero when the build fails or any
served output is wrong.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must finish within 180 s; leave headroom for start-up.
RUN_TIMEOUT_S = 175


def main():
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "servebench")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        return subprocess.run(
            [exe, *sys.argv[1:], "--dir", out_dir], timeout=RUN_TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tape-queue --seed 1 --seconds 10 --trace 0

The benchmark is the Go module in this directory. The script builds it
from source with the local Go toolchain into the build directory
($CARGO_TARGET_DIR, default .bench_build), keeps the Go build cache
there too, and runs the binary with the given arguments from the root.
It exits non-zero, printing no result, when the directory above it is
not a checkout of the repository.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "go.mod")) and os.path.isdir(os.path.join(root, "internal"))):
        print("perfbench: %s is not a checkout of the repository (no go.mod and internal/)" % root, file=sys.stderr)
        return 2
    out = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    env = dict(
        os.environ,
        CARGO_TARGET_DIR=out,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    binary = os.path.join(out, "perfbench", "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, timeout=BUILD_TIMEOUT_S)
        if build.returncode != 0:
            return build.returncode
        return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

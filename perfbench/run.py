#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload kv-read-mostly --seed 1 --seconds 20 --trace 0

Every build product (Go build cache, binary, traces, temporary data
directories) lands under .bench_build/perfbench in the current directory.
A failed build exits non-zero without printing a result line.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_build", "perfbench")


def main():
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    # Keep every cache and config file the go command writes (build cache,
    # module cache, telemetry counters) inside the checkout, and never
    # reach for the network.
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOMODCACHE=os.path.join(OUT, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        TMPDIR=os.path.join(OUT, "tmp"),
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([binary, "-out", OUT] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

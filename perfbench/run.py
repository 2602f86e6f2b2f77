#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload supremacy --seed 1 --seconds 20 --trace 0

It builds the Go program in perfbench/ (a module of its own that uses the
repository's packages through a replace directive) into the build
directory ($CARGO_TARGET_DIR, default .bench_build), keeping the Go build
cache there too, then runs it with the given arguments. Its
last output line is the JSON result.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    for need in ("go.mod", "internal", os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the repository root", file=sys.stderr)
            return 2
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOTELEMETRY": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:] + ["--workdir", os.path.join(build, "work")]
    try:
        ran = subprocess.run([binary] + args, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim_adversarial --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from source into the build
directory (CARGO_TARGET_DIR if set, else .bench_build), with every Go
cache and temporary directory kept inside it, and then run with the
same arguments. Its standard output passes through unchanged, so the
last line is the result JSON. A failed build or run exits non-zero
without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(build):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off",
               GOFLAGS="-mod=mod", GOWORK="off", GOTELEMETRY="off")
    return env


def run(cmd, env, timeout, cwd):
    """Run cmd, killing it (and waiting for it) if it outlives timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if shutil.which("go") is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    build = build_dir()
    env = go_env(build)
    binary = os.path.join(build, "perfbench")
    rc = run(["go", "build", "-o", binary, "."], env, BUILD_TIMEOUT_S, HERE)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run([binary, "-workload", args.workload, "-seed", str(args.seed),
                "-seconds", str(args.seconds), "-trace", str(args.trace),
                "-trace-dir", os.path.join(build, "traces")],
               env, RUN_TIMEOUT_S, ROOT)


if __name__ == "__main__":
    sys.exit(main())

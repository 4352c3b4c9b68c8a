#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload xl100k-serial --seed 1 --seconds 20 --trace 0

The script builds the Go program in this directory (a module of its own
that uses the repository's packages through a `replace` directive) into
the build directory, then runs one workload in one process. Every build
and run artefact, the Go build cache included, stays under the build
directory: $CARGO_TARGET_DIR if set, else .bench_build, relative to the
checkout root. The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("xl100k-serial", "xl100k-shard2", "sweep-default")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_digest():
    """A content hash of the Go sources and module files, standing in for
    the commit id (the checkout need not be a git repository)."""
    h = hashlib.sha256()
    build = os.path.abspath(build_dir())
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and os.path.join(dirpath, d) != build)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum", "reference.json"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def go_env(build):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "go-path"),
        "GOMODCACHE": os.path.join(build, "go-path", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "xdg-config"),
        "XDG_CACHE_HOME": os.path.join(build, "xdg-cache"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the checkout root; the repository sources are missing",
              file=sys.stderr)
        return 2
    build = build_dir()
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    env = go_env(build)
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [binary,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_digest(),
           "--trace-dir", os.path.join(build, "traces")]
    # A SIGTERM unwinds through the finally below, so the child never
    # outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is compiled from the sources in this checkout into
.bench_build/ (build cache included), then run; every argument is passed
through to it. The last line of standard output is the result JSON.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench-bin")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
    })
    return env


def source_digest():
    """Digest of the Go sources and module files under test."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [BINARY, "-commit", commit(), "-source", source_digest()] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(BINARY, args)


if __name__ == "__main__":
    sys.exit(main())

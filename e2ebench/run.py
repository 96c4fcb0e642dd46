#!/usr/bin/env python3
"""Build and run the end-to-end supervision benchmark.

Usage, from the root of a checkout of this repository:

    python3 e2ebench/run.py --workload steady --seed 1 --seconds 24 --trace 0

The benchmark is a Go module of its own (e2ebench/go.mod) that builds
against the repository's packages from source. Everything the build and
the run write stays under .bench_build/ in the checkout: the Go build
cache, the binary, the churn workload's WAL segments and the span files
of traced runs. The last line of standard output is the JSON result.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def revision():
    """The checkout's git commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not (ROOT / "go.mod").is_file() or not (ROOT / "internal" / "ingest").is_dir():
        print("e2ebench: not inside a checkout of the swwd repository "
              "(go.mod and internal/ingest missing next to e2ebench/)", file=sys.stderr)
        return 2
    build = ROOT / ".bench_build"
    env = dict(os.environ)
    env.update(
        GOCACHE=str(build / "gocache"),
        GOMODCACHE=str(build / "gomodcache"),
        GOPATH=str(build / "gopath"),
        GOTMPDIR=str(build / "tmp"),
        HOME=str(build / "home"),
        XDG_CONFIG_HOME=str(build / "home" / ".config"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    for d in ("gocache", "tmp", "home", "bin"):
        (build / d).mkdir(parents=True, exist_ok=True)
    binary = build / "bin" / "e2ebench"
    built = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 3
    args = [str(binary)] + sys.argv[1:] + ["--out", str(build), "--commit", revision()]
    sys.stdout.flush()
    os.execve(str(binary), args, env)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the DHL benchmark in release mode and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every argument is passed on to the `perfbench` binary; see perfbench/README.md.
The build goes to $CARGO_TARGET_DIR (default: .bench_build in the current
directory). With --trace 1 the traced run's spans are written as NDJSON under
<target dir>/perfbench-traces/. The exit code is the build's when the build
fails, otherwise the benchmark's.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Cargo takes lock files under CARGO_HOME even when every dependency is
    # a path; keeping CARGO_HOME in the build directory means a run writes
    # nothing outside it. The package has no registry dependencies.
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_HOME=os.path.join(target, "cargo-home"))

    # Cargo's progress goes to stderr; stdout carries only the result.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    args = sys.argv[1:]

    def flag(name: str, default: str) -> str:
        return args[args.index(name) + 1] if name in args[:-1] else default

    if flag("--trace", "0") == "1":
        trace = f"{flag('--workload', 'none')}-seed{flag('--seed', 'default')}.ndjson"
        args += ["--trace-out", os.path.join(target, "perfbench-traces", trace)]

    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

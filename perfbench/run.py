#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload of it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The package is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). The benchmark's standard output is passed through: a detail
line (provenance, checks, workload-specific metrics), then the result line.
Result files and span traces also go to `perfbench/out/`.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# What the measured program is built from; hashed into the provenance.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_hash():
    digest = hashlib.sha256()
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs.sort()
            files.extend(os.path.join(base, name) for name in sorted(names))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--out-dir", default=os.path.join(HERE, "out"))
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("perfbench: the repository sources are missing next to perfbench/", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--commit", commit(), "--source", source_hash(), "--out-dir", args.out_dir]
    sys.stdout.flush()
    try:
        ran = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 4
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())

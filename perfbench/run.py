#!/usr/bin/env python3
"""Builds and runs the end-to-end pipeline benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload durable_lossy --seed 1 --seconds 40 --trace 0

Builds the `pipeline` bench target of `perfbench/Cargo.toml` in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs it with
the same arguments. The binary prints a machine fingerprint line, then
as its last stdout line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is the binary's: 0
only when every correctness check passed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(env):
    """Builds the bench binary and returns its path."""
    cmd = [
        "cargo", "bench", "--offline", "--manifest-path", MANIFEST,
        "--bench", "pipeline", "--no-run", "--message-format=json",
    ]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        fail(f"build failed (exit {proc.returncode})")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("target", {}).get("name") == "pipeline":
            exe = msg.get("executable") or exe
    if not exe:
        fail("build produced no pipeline executable")
    return exe


def rustc_version(env):
    try:
        out = subprocess.run(["rustc", "--version"], env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    root = os.getcwd()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, env["CARGO_TARGET_DIR"])
    nproc = os.cpu_count() or 1
    # Worker threads are capped at the machine's core count.
    env["WISCAPE_THREADS"] = str(nproc)
    env["PERFBENCH_RUSTC"] = rustc_version(env)
    if not os.path.isfile(MANIFEST):
        fail(f"missing {MANIFEST}")
    exe = build(env)
    workdir = os.path.join(target, "perfbench")
    cmd = [exe, *sys.argv[1:], "--workdir", workdir,
           "--manifest", os.path.join(root, "results", "QUICK_MANIFEST.sha256")]
    proc = subprocess.run(cmd, env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

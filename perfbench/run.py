#!/usr/bin/env python3
"""Build and run the hypersafe wall-clock benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload svc-churn --seed 1 --seconds 10 --trace 0

The benchmark is the Rust package in this directory. It is built in
release mode into $CARGO_TARGET_DIR (default .bench_build), then run
with the given flags and RAYON_NUM_THREADS=2 unless the caller set it.
Provenance goes to standard output first; the benchmark's last line is
its JSON result. A traced run writes its raw spans next to the build.
Exits nonzero, printing no result, if the build, a correctness check
or the run fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def flag(args, name):
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def source_digest():
    """sha256 over the library sources the benchmark builds against."""
    h = hashlib.sha256()
    for top in ("crates", "vendor"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".rs") or name == "Cargo.toml":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def clocksource():
    try:
        with open("/sys/devices/system/clocksource/clocksource0/current_clocksource") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the repository's crates are missing; run from a full checkout", 2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build failed with code {build.returncode}")

    env.setdefault("RAYON_NUM_THREADS", "2")
    cmd = [os.path.join(target, "release", "perfbench")] + args
    if flag(args, "--trace") == "1":
        spans = os.path.join(target, "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        name = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.tsv"
        cmd += ["--spans", os.path.join(spans, name)]

    print(
        "provenance rustc=\"{}\" git_rev={} source_sha256={} clocksource={} nproc={} "
        "RAYON_NUM_THREADS={}".format(
            command_output(["rustc", "--version"]),
            command_output(["git", "rev-parse", "--short=12", "HEAD"]),
            source_digest(),
            clocksource(),
            os.cpu_count(),
            env["RAYON_NUM_THREADS"],
        ),
        flush=True,
    )
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"benchmark exited with code {code}", code if 0 < code < 256 else 1)


if __name__ == "__main__":
    main()

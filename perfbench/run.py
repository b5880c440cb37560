#!/usr/bin/env python3
"""Build the FedClust reproduction and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload silo-fedavg --seed 1 --seconds 20 --trace 0

It builds, in release mode, the benchmark package in perfbench/ together
with the `fedclustd` and `fedclust-worker` binaries, into
$CARGO_TARGET_DIR (default: .bench_build), then runs the benchmark
binary, whose last line of output is the result object. Workloads:
silo-fedavg, silo-fedclust-resnet, device-fedclust, net-fedavg.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 165
# What the program is built from; hashed into the environment record, so a
# result names the code it measured even where there is no git metadata.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be in 1..600")
    return args


def tree_digest(root):
    h = hashlib.sha256()
    files = []
    for name in SOURCE_ROOTS:
        path = root / name
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(f for f in path.rglob("*") if f.is_file() and "target" not in f.parts)
    for f in sorted(files):
        h.update(str(f.relative_to(root)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def command_output(cmd, cwd):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"], root),
        "commit": command_output(["git", "rev-parse", "HEAD"], root),
        "tree_sha256": tree_digest(root),
    }


def run_group(cmd, cwd, env, timeout, capture):
    """Run `cmd` in its own process group; on timeout kill the whole group
    (the benchmark's server and workers included) and wait for it."""
    proc = subprocess.Popen(
        cmd,
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s", 3)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def main():
    args = parse_args()
    root = Path.cwd()
    for needed in ["Cargo.toml", "crates/cli/Cargo.toml", "perfbench/Cargo.toml"]:
        if not (root / needed).is_file():
            fail(f"run from the root of a FedClust checkout: {needed} is missing")

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", "perfbench/Cargo.toml",
        "-p", "fedclust-perfbench", "-p", "fedclust-cli",
    ]
    code, _ = run_group(build, root, env, BUILD_TIMEOUT_S, capture=False)
    if code != 0:
        fail(f"build failed with exit code {code}", 1)

    bin_dir = target / "release"
    bench = [
        str(bin_dir / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--bin-dir", str(bin_dir),
        "--work-dir", str(target / "perfbench-work"),
        "--env-json", json.dumps(environment(root), sort_keys=True),
    ]
    code, out = run_group(bench, root, env, RUN_TIMEOUT_S, capture=True)
    sys.stdout.write(out or "")
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Layered benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds ddsc-served and the ddsc-perfbench measuring program from the
enclosing source tree (Release, into .bench_build/perfbench), runs one
measurement, and passes its output through.  The last stdout line is
the result object {"correct", "attempted", "failed", "metrics"}; the
line before it stamps the run (commit, compiler, flags, NDEBUG, nproc,
jobs, connections, trace limits, seed).  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sweep_paper", "serve_cached", "serve_explore", "fleet_cached")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Identity of the measured sources, for the count-drift check (the
    checkout the benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "perfbench/src", "perfbench/data"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no ddsc sources under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "ddsc-perfbench", "-j", "4"])
    with open(BUILD / "build.log", "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode:
                die(f"build failed: {' '.join(cmd)} "
                    f"(see {BUILD / 'build.log'})")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    served = BUILD / "ddsc" / "tools" / "ddsc-served"
    exe = BUILD / "ddsc-perfbench"
    work = BUILD / "run" / f"{args.workload}-{os.getpid()}"
    state = BUILD / "state"
    state.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("DDSC_")}
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--served", str(served), "--data-dir", str(HERE / "data"),
           "--work-dir", str(work), "--state-dir", str(state),
           "--commit", git_commit(), "--source-digest", source_digest()]
    # Own process group: a timeout takes the servers it started with it.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        proc.kill()
        out, _ = proc.communicate()
    finally:
        # A clean run has stopped its servers; after a crash or a
        # timeout none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    if timed_out:
        die(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{args.workload} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("malformed result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()

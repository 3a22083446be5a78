#!/usr/bin/env python3
"""Build and run the WRE wall-clock benchmark from the repository root.

    python3 perfbench/run.py --workload read-mix --seed 1 --seconds 20 --trace 0

Builds wre_server and wre_bench.exe with dune (inside the
checkout, no shared cache), runs wre_bench.exe, and relays its output.
The last line printed is the JSON result; every other line starts
with '#'. Exits non-zero without a result when the build or the run
fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("read-mix", "mixed-rw", "bulk-load")
RUN_TIMEOUT_S = 170
WORK_DIR = ".perfbench_work"
BENCH_EXE = os.path.join("_build", "default", "perfbench", "wre_bench.exe")
SERVER_EXE = os.path.join("_build", "default", "bin", "wre_server.exe")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """Content hash of the sources the benchmark builds (the checkout
    need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("dune-project", "dune", "lib", "bin", "perfbench"):
        paths = []
        if os.path.isfile(top):
            paths = [top]
        else:
            for d, dirs, files in os.walk(top):
                dirs.sort()
                paths += [os.path.join(d, f) for f in sorted(files)
                          if f.endswith((".ml", ".mli", "dune", "dune-project", ".py"))]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build(env):
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", BENCH_EXE, SERVER_EXE]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die(f"build failed ({r.returncode})")


def stop_group(pgid):
    """Kill whatever wre_bench left in its process group and wait for
    it to be gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            die(f"run from the repository root: {need} is missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)

    cmd = [BENCH_EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--server-exe", SERVER_EXE, "--work-dir", WORK_DIR, "--rev", source_rev()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        die(f"run exceeded {RUN_TIMEOUT_S}s")
    finally:
        stop_group(proc.pid)

    lines = out.rstrip("\n").split("\n") if out else []
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        die(f"wre_bench failed ({proc.returncode})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("malformed result line")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

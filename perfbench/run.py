#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 15 --trace 0

Workloads: oneshot, serve_mixed, stream, sic_scan (see perfbench/README.md);
`--workload all` runs each of them in turn, each in a fresh process.  The
last line of a workload's standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
run completed and every checked answer was right.
"""

import json
import os
import signal
import subprocess
import sys

# Variables that change the program's defaults.  The benchmark measures
# the shipped defaults, so they are removed before anything runs.
TUNABLES = ("SI_TRANSFER", "SI_VECTOR", "SI_WORKERS", "SI_LAYOUT",
            "SI_CACHE_MB", "SI_ROWS", "SI_TRACE", "SI_OBS", "OCAMLRUNPARAM")

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
TARGETS = ["./perfbench/main.exe", "./bin/iceberg_cli.exe"]
RUN_TIMEOUT_S = 170


def main():
    for need in ("dune-project", "lib", "bin", "BENCHMARK.json"):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the root of a "
                  "source checkout", file=sys.stderr)
            return 2
    env = {k: v for k, v in os.environ.items() if k not in TUNABLES}
    build = subprocess.run(["dune", "build", "--root", ".", *TARGETS],
                           env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    args = sys.argv[1:]
    if "all" in args and args[args.index("all") - 1] == "--workload":
        with open("BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        at = args.index("all")
        rcs = [run(args[:at] + [name] + args[at + 1:], env) for name in names]
        return next((rc for rc in rcs if rc != 0), 0)
    return run(args, env)


def run(args, env):
    # Own process group, so a timeout also takes down the server child.
    proc = subprocess.Popen([EXE, *args], env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        return 4


if __name__ == "__main__":
    sys.exit(main())

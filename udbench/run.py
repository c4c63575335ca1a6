#!/usr/bin/env python3
"""Builds the udring benchmark binary and runs one workload.

    python3 udbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The first call
configures and builds `udbench` (Release, the repository's own LTO setting)
into `.bench_build/` at the root of the checkout; later calls only bring the
build up to date.

With --trace 0 the result line carries the end-to-end metrics, with --trace 1
the per-layer metrics of the traced run. At the default seed the workload's
digests must equal those pinned in udbench/pins.json.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when every
correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "udbench")
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ("campaign-sweep", "campaign-checkpointed", "fuzz-checked", "mc-verify")
DEFAULT_SEED = 1
RUN_LIMIT_S = 160


def fail(message):
    print(f"udbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(command, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(command) + "\n")
        out.flush()
        return subprocess.run(command, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no udring sources next to {HERE}; run from a checkout of the repository")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as text:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in text.read():
                shutil.rmtree(BUILD)  # configured for another tree
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_logged(configure, log) != 0:
            fail(f"configuring failed; see {log}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", BUILD, "--target", "udbench", "-j", jobs], log) != 0:
        fail(f"building failed; see {log}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's self-test work set")
    args = parser.parse_args()

    build()
    started = time.monotonic()
    scratch = os.path.join(BUILD, "run")
    os.makedirs(scratch, exist_ok=True)

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--scratch", scratch]
    if args.trace:
        command += ["--spans", os.path.join(BUILD, f"spans-{args.workload}.jsonl")]
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:
        fail("the run did not finish in time")
    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"udbench printed no result (exit code {run.returncode})")
    for line in lines[:-1]:
        if not line.startswith("fail_ratio "):
            print(line)
    result = json.loads(lines[-1])

    failed = result["failed"]
    attempted = result["attempted"]
    if args.seed == DEFAULT_SEED:
        with open(PINS) as text:
            pins = json.load(text)[args.size][args.workload]
        for key, expected in sorted(pins.items()):
            attempted += 1
            got = result["pinned"].get(key)
            if got != expected:
                failed += 1
                print(f"gate FAILED: {key} is {got}, pinned {expected}")
    correct = failed == 0 and run.returncode == 0
    print(f"fail_ratio {failed / attempted!r} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

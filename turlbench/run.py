#!/usr/bin/env python3
"""Runs one TURL benchmark workload and prints its one-line JSON result.

    python3 turlbench/run.py --workload <workload> --seed <n> \
        --seconds <s> --trace <0|1>

where <workload> is pretrain, serve or eval_row_population.

Run from the root of a source checkout. The first run configures and builds
the library and the benchmark (Release) under .bench_build/; later runs
reuse the build. Every run first runs the benchmark's self-tests. The last
line of standard output is the JSON result, with the metrics BENCHMARK.json
lists; the lines before it are the human-readable report. See
turlbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "turlbench")
BUILD_TIMEOUT_S = 850
WORKLOADS = ("pretrain", "serve", "eval_row_population")


def run_timeout_s(seconds):
    """The longest run, a traced serve run, measures for about 2.5 times
    --seconds; the rest is set-up, warm-up and the kernel probe."""
    return 30 + 4 * seconds


def fail(message):
    print(f"turlbench: {message}", file=sys.stderr)
    sys.exit(2)


def tool_env():
    """Environment for the build and the binaries: temporary files stay
    inside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def configured_here():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == \
                    os.path.realpath(HERE)
    return False


def run_tool(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=tool_env(), timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not configured_here():
        if os.path.isdir(BUILD):
            subprocess.run(["rm", "-rf", BUILD], check=False)
        os.makedirs(BUILD, exist_ok=True)
        run_tool(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_tool(["cmake", "--build", BUILD, "-j", jobs, "--target",
              "turlbench", "turlbench_selftest"], BUILD_TIMEOUT_S)


def select_metrics(filed, trace):
    """The metrics BENCHMARK.json lists for this kind of run, taken from
    those the binary measured. A per-layer metric it did not measure belongs
    to a layer the workload makes no calls into, and reads 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        wanted = json.load(f)["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(filed) - names)
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    metrics = {}
    for m in wanted:
        got = filed.get(m["name"])
        if got is None:
            if not trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, BENCHMARK.json says "
                 f"{m['unit']}")
        metrics[m["name"]] = got
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src: run from the root of a "
             "source checkout")

    build()
    env = tool_env()
    try:
        selftest = subprocess.run(
            [os.path.join(BUILD, "turlbench_selftest")], stdout=sys.stderr,
            stderr=sys.stderr, env=env, timeout=60, check=False)
    except subprocess.TimeoutExpired:
        fail("self-tests timed out")
    if selftest.returncode != 0:
        fail("self-tests failed")

    cmd = [os.path.join(BUILD, "turlbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=timeout, check=False,
                              cwd=ROOT, text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout:.0f} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    result["metrics"] = select_metrics(result["metrics"], bool(args.trace))

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result line.

    python3 perfbench/run.py --workload coexpr-brain --seed 1 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout.  The first run builds the gsb CLI
and the benchmark program (perfbench/CMakeLists.txt) into .bench_build/;
later runs reuse that build.  Scratch artifacts go to .bench_out/ and are
removed after the run; a traced run (--trace 1) also leaves its Chrome
trace-event JSON there (load it in Perfetto or chrome://tracing).

--seconds defaults to BENCHMARK.json's run_seconds.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json untraced, its per-layer metrics
traced.  Any failed check makes "correct" false; a
missing metric, a crash or a timeout exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
GSB = os.path.join(BUILD_DIR, "gsb", "gsb")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the two targets (a no-op when fresh)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "gsb_cli", "perfbench"],
                   check=True, stdout=sys.stderr)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def expected_metrics(trace):
    config = load_benchmark()
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in config[key]}, \
        [w["name"] for w in config["workloads"]]


def run_program(argv):
    """Runs the benchmark program in its own process group; kills the group on
    timeout so no server it started outlives the run."""
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError("benchmark program timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return process.returncode, stdout


def validate(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    want, _ = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError("metric mismatch: missing %s, unexpected %s"
                         % (missing, extra))
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            raise ValueError("%s has unit %s, want %s"
                             % (name, got[name]["unit"], unit))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the input-generator self-tests")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        log("perfbench: build failed: %s" % error)
        return 2

    if args.selftest:
        return subprocess.run([PROGRAM, "--selftest"]).returncode

    _, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        log("perfbench: --workload must be one of %s" % ", ".join(workloads))
        return 2
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d" % (args.workload, args.seed)
    work_dir = os.path.join(OUT_DIR, "work-%s-%d" % (tag, os.getpid()))
    argv = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--gsb", GSB, "--work-dir", work_dir]
    if args.trace:
        argv += ["--trace-out", os.path.join(OUT_DIR, "trace-%s.json" % tag)]
    try:
        code, stdout = run_program(argv)
    except RuntimeError as error:
        log("perfbench: %s" % error)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if code != 0:
        log("perfbench: benchmark program exited with %d" % code)
        return 1
    try:
        result = validate(lines[-1], args.trace)
    except (ValueError, KeyError, json.JSONDecodeError) as error:
        log("perfbench: bad result line: %s" % error)
        return 1
    print("failed_ratio: %d/%d = %.6g" % (
        result["failed"], result["attempted"],
        result["failed"] / result["attempted"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

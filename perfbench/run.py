#!/usr/bin/env python3
"""Wall-time benchmark of the doppler engine: entry point.

Run from the repository root:

    python3 perfbench/run.py --workload estate_batch --seed 7 --seconds 15 --trace 0

It builds the doppler CLI and the benchmark harness from source (an
optimized CMake build under .bench_build/), writes the workload's seeded
inputs under .bench_work/, runs the workload, checks its outputs and
prints the host stamp, human-readable lines and, last, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Exit code 0 means the run completed and every output check passed.

    python3 perfbench/run.py --self-test

runs every workload at a tiny scale and checks the benchmark itself:
every metric BENCHMARK.json names is printed with its unit, an injected
unparseable trace shows up as a failure rather than a crash, and the same
seed yields byte-identical inputs.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
HARNESS = os.path.join(BUILD, "perfbench")
DOPPLER = os.path.join(BUILD, "doppler")
WORKLOADS = ["oneshot_cold", "estate_batch", "serve_open", "monitor_drift"]
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness and the CLI; returns success."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    with open(build_log, "w") as out:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                log(f"build step {step[:2]} failed: {error}")
                return False
            if done.returncode != 0:
                with open(build_log) as text:
                    log(text.read()[-4000:])
                log("build failed")
                return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """Hash of every source the benchmark builds, so results from a tree
    without git still say which code produced them."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as data:
                        digest.update(data.read())
    return digest.hexdigest()[:16]


def generate(workload, seed, out, tiny=False, inject_bad=0):
    command = [HARNESS, "gen", "--workload", workload, "--seed", str(seed),
               "--out", out, "--inject-bad", str(inject_bad)]
    if tiny:
        command.append("--tiny")
    return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode == 0


def run(args):
    """One benchmark run; returns the exit code."""
    if not build():
        return 1
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = os.path.join(work, "inputs")
        if not generate(args.workload, args.seed, inputs,
                        tiny=args.scale == "tiny", inject_bad=args.inject_bad):
            log("input generation failed")
            return 1
        os.makedirs(os.path.join(work, "out"))
        command = [HARNESS, "run", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--inputs", inputs,
                   "--work", os.path.join(work, "out"), "--doppler", DOPPLER,
                   "--git-sha", git_sha(), "--source-digest", source_digest()]
        if args.scale == "tiny":
            command.append("--tiny")
        # Own session, so a timeout also stops the doppler processes the
        # harness spawned.
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as harness:
            try:
                stdout, stderr = harness.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(harness.pid, signal.SIGKILL)
                harness.communicate()
                raise
        lines = stdout.strip().splitlines()
        if harness.returncode != 0 or not lines:
            log(stderr[-4000:])
            log(f"harness exited {harness.returncode}")
            return 1
        result = json.loads(lines[-1])
        print("\n".join(lines), flush=True)
        return 0 if result["correct"] else 1
    except (OSError, ValueError, subprocess.TimeoutExpired) as error:
        log(f"benchmark run failed: {error}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Self-test


def invoke(workload, seed, trace, inject_bad=0):
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--scale", "tiny", "--inject-bad", str(inject_bad)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done


def tree_digest(folder):
    digest = hashlib.sha256()
    for current, dirs, files in sorted(os.walk(folder)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(current, name)
            digest.update(os.path.relpath(path, folder).encode())
            with open(path, "rb") as data:
                digest.update(data.read())
    return digest.hexdigest()


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if not build():
        return 1
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, done = invoke(workload, 3, trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}: {done.stderr[-600:]}")
                continue
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{label}: metrics {sorted(printed)} differ "
                                f"from BENCHMARK.json")
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} failed")
        code, result, done = invoke(workload, 3, 0, inject_bad=1)
        if code != 0 or result is None or result["failed"] < 1:
            problems.append(f"{workload}: an injected unparseable trace did not "
                            f"show up as a failure (exit {code})")
        digests = []
        for seed in (5, 5, 6):
            out = os.path.join(WORK, f"selftest-{workload}-{len(digests)}")
            shutil.rmtree(out, ignore_errors=True)
            generate(workload, seed, out, tiny=True)
            digests.append(tree_digest(out))
            shutil.rmtree(out, ignore_errors=True)
        if digests[0] != digests[1]:
            problems.append(f"{workload}: the same seed gave different inputs")
        if digests[0] == digests[2]:
            problems.append(f"{workload}: different seeds gave the same inputs")
        log(f"self-test {workload}: done")
    for problem in problems:
        log("SELF-TEST FAILED: " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject-bad", type=int, default=0,
                        help="unparseable trace files added to the inputs")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    started = time.monotonic()
    code = run(args)
    log(f"benchmark finished in {time.monotonic() - started:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())

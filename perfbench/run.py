#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload fig7-campaign --seed 1 --seconds 50 --trace 0

It builds the `perfbench` binary and the `sweep` binary (release, into
`$CARGO_TARGET_DIR`, default `perfbench/target`), runs `perfbench` on
the workload (see `perfbench/src/main.rs` for what each one measures)
pinned to one CPU per worker thread,
and checks that its last output line is a result whose metrics are
exactly the ones `BENCHMARK.json` lists for the mode, with those units.
The result is printed as the last line of standard output. Any build
failure, timeout or malformed result exits non-zero without a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run (after the build) must end within 180 s; leave room to exit.
RUN_TIMEOUT_S = 170
# Worker threads of each workload (`Workload::by_name` in
# perfbench/src/workload.rs). A run is pinned to that many CPUs, so that
# its campaigns and the reference kernel that scales their times run on
# the same CPUs: on a shared host each CPU's speed drifts on its own.
WORKLOAD_THREADS = {"fig7-campaign": 2, "dram-stream": 1}


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    base = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    for extra in (["--bin", "perfbench"], ["-p", "unison-bench", "--bin", "sweep"]):
        if subprocess.run(base + extra, cwd=ROOT, env=env).returncode != 0:
            fail(f"build failed: {' '.join(base + extra)}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    section = doc["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line!r}")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has the wrong keys: {line!r}")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("attempted is below 1")
    if result["correct"]:
        got = {name: m.get("unit") for name, m in result["metrics"].items()}
        if got != expected_metrics(trace):
            fail("metrics differ from the ones BENCHMARK.json lists")
        for name, m in result["metrics"].items():
            if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
                fail(f"metric {name} is malformed: {m!r}")


def pin(workload):
    """Restricts this process, and so the benchmark it starts, to the
    first CPUs it may run on, one per worker thread of `workload`."""
    cpus = sorted(os.sched_getaffinity(0))
    threads = WORKLOAD_THREADS.get(workload, len(cpus))
    if threads < len(cpus):
        os.sched_setaffinity(0, cpus[:threads])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env["CARGO_TARGET_DIR"] = target
    build(env)

    pin(args.workload)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--sweep", os.path.join(release, "sweep"),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    # Own process group, so a timeout also stops the sweep child.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the byzrename benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload op_split_n64 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the library sources
from src/ plus the benchmark binary in perfbench/src/) into .bench_build/perfbench;
later calls only re-check the build. The last line of standard output is
the result object {"correct", "attempted", "failed", "metrics"}; the line
before it is the full result record (machine context, workload report),
which is also kept under .bench_build/perfbench/results/ for compare.py.
Traced runs (--trace 1) also write their spans there.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Every workload the benchmark binary knows; BENCHMARK.json lists the ones
# the gate runs (op_silent_n128 is run on demand, see LAYERS.md).
WORKLOADS = ("op_split_n64", "op_silent_n128", "svc_mixed", "campaign_faulted")
# The layer table: per_layer time rows that sum to traced_wall_s.
TABLE_ROWS = ("unattributed_s", "core.setup_s", "core.selection_s", "core.echo_s",
              "core.ready_s", "core.voting_s", "core.decision_s", "core.check_s",
              "adversary.send_s", "adversary.receive_s", "adversary.forge_s",
              "sim.round_self_s", "obs.telemetry_s", "exp.wall_s", "svc.http_s")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(target) or ".." in target.split(os.sep):
        target = ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def source_id():
    """git HEAD when the checkout is a repository, else a digest of the
    sources the benchmark compiles."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, check=False)
        if result.returncode == 0 and result.stdout.strip():
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build(out):
    """Configures once, then builds; serialized by a lock file so
    concurrent first runs do not race."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; nothing to build")
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            fail(f"{tool} is required")
    os.makedirs(out, exist_ok=True)
    build_dir = os.path.join(out, "build")
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
                         *generator]
            if subprocess.run(configure, stdout=sys.stderr, check=False).returncode != 0:
                fail("cmake configure failed", 1)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        if subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr,
                          check=False).returncode != 0:
            fail("build failed", 1)
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, args, quiet=False, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (exit code, stdout lines, stderr text or
    None). Waits for the child even when it has to be killed."""
    with subprocess.Popen([binary, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if quiet else None, text=True,
                          cwd=ROOT) as child:
        try:
            stdout, stderr = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            fail(f"{' '.join(args)} timed out after {timeout} s", 1)
    return child.returncode, stdout.splitlines(), stderr


def measure(args):
    out = build_root()
    binary = build(out)
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}"
    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--source-id", source_id()]
    if args.trace == 1:
        binary_args += ["--spans-out", os.path.join(results, stem + ".spans.jsonl")]
    code, lines, _ = run_binary(binary, binary_args)
    if code != 0:
        sys.exit(code)
    if len(lines) < 2:
        fail("the benchmark binary printed no result", 1)
    record = json.loads(lines[-2])
    result = json.loads(lines[-1])
    record["result"] = result
    with open(os.path.join(results, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1)
    print(lines[-2])
    print(json.dumps(result), flush=True)


# --- self-test ----------------------------------------------------------------

def selftest():
    """Runs each workload at minimal size, untraced and traced, and
    checks the result contract, the layer-table sum, and that the
    oracles and the equivalence guard actually trip."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    binary = build(build_root())
    problems = []

    def check(condition, message):
        print(("ok   " if condition else "FAIL ") + message, flush=True)
        if not condition:
            problems.append(message)

    def small_run(workload, trace, *extra):
        return run_binary(binary, ["--workload", workload, "--seed", "7", "--seconds", "0.5",
                                   "--trace", str(trace), "--small", *extra], quiet=True)

    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, stderr = small_run(workload, trace)
            label = f"{workload} trace={trace}"
            check(code == 0 and lines, f"{label}: exits 0 with output")
            if code != 0:
                print(stderr, file=sys.stderr)
            if code != 0 or not lines:
                continue
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: correct, nothing failed")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: value["unit"] for name, value in result["metrics"].items()}
            check(got == want, f"{label}: every {section} metric present with its unit")
            if trace == 1:
                values = {name: value["value"] for name, value in result["metrics"].items()}
                total = sum(values[name] for name in TABLE_ROWS)
                wall = values["traced_wall_s"]
                check(abs(total - wall) <= 1e-9 * max(1.0, wall),
                      f"{label}: layer rows plus unattributed_s sum to traced_wall_s")
                overhead = values["traced_wall_s"] - values["untraced_wall_s"]
                check(abs(values["tracing_overhead_s"] - overhead) <= 1e-9,
                      f"{label}: tracing overhead reported")

    code, lines, _ = small_run("svc_mixed", 0, "--corrupt-verdict")
    result = json.loads(lines[-1]) if code == 0 and lines else {}
    check(result.get("failed", 0) >= 1 and result.get("correct") is False,
          "svc_mixed: a corrupted verdict raises failed_share")

    for workload in ("op_split_n64", "campaign_faulted"):
        code, _, stderr = small_run(workload, 1, "--misassemble")
        check(code == 1 and "equivalence guard" in stderr,
              f"{workload}: a mis-assembled traced run trips the equivalence guard")

    print("selftest: " + ("passed" if not problems else f"{len(problems)} check(s) failed"))
    sys.exit(0 if not problems else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if not args.workload:
        parser.error("--workload is required")
    measure(args)


if __name__ == "__main__":
    main()

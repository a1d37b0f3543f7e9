#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload search_eval|serve_tcp \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
perfbench (the library sources under src/ plus the benchmark program in this
directory) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the run's JSON result.

--trace 0 runs one untraced pass of perfbench and reports the end-to-end
metrics. --trace 1 runs an untraced and then a traced pass of half the time
each, in separate processes so that neither starts with the other's warm
caches, and reports the per-layer metrics.

BENCHMARK.json is the one list of metrics: this script takes them from
perfbench's record in the order declared there and attaches their units. A
per-layer metric of a layer the workload does not exercise reads 0. The run
exits non-zero without a result when the library sources are missing, a
pass prints no record, an end-to-end metric is missing, or perfbench
reports a metric BENCHMARK.json does not declare. All passes of a run
together are killed after 170 seconds.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Per-layer metrics read from the untraced pass of a traced run: end-to-end
# figures the tracer would distort.
FROM_UNTRACED_PASS = ("search_windows_per_s", "eval_windows_per_s", "qps",
                      "eval_best_mae", "latency_p99_ms",
                      "latency_p99_ms.count")


class BenchError(Exception):
    pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources at src/; run from a full "
                         "checkout")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            raise BenchError("build step failed: " + " ".join(step))


def parse_record(line):
    """perfbench's last line: {"correct", "attempted", "failed",
    "metrics": {name: number}}."""
    try:
        record = json.loads(line)
    except ValueError:
        raise BenchError("perfbench printed no record")
    if (not isinstance(record, dict) or
            set(record) != {"correct", "attempted", "failed", "metrics"} or
            not isinstance(record["correct"], bool) or
            not isinstance(record["attempted"], int) or
            not isinstance(record["failed"], int) or
            not isinstance(record["metrics"], dict) or
            not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in record["metrics"].values())):
        raise BenchError("malformed perfbench record: " + line)
    return record


def assemble(spec, trace, passes):
    """The run's result from perfbench records of its passes: one record
    for --trace 0; the untraced then the traced record for --trace 1."""
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for record in passes:
        undeclared = sorted(set(record["metrics"]) - declared)
        if undeclared:
            raise BenchError("perfbench reports metrics BENCHMARK.json does "
                             "not declare: %s" % undeclared)
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    if trace:
        untraced, traced = passes
        values = dict(traced["metrics"])
        for name in FROM_UNTRACED_PASS:
            if name in untraced["metrics"]:
                values[name] = untraced["metrics"][name]
        values["error_rate"] = failed / attempted
        # Tracing cost: the traced pass's time per unit of work over the
        # untraced pass's, minus 1.
        plain = untraced["metrics"].get("throughput_per_s", 0.0)
        with_trace = traced["metrics"].get("throughput_per_s", 0.0)
        values["trace.overhead_share"] = (
            plain / with_trace - 1.0 if plain > 0 and with_trace > 0 else 0.0)
        wanted = spec["per_layer"]
    else:
        values = passes[0]["metrics"]
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError("end-to-end metrics not measured: %s" % missing)
    return {
        "correct": failed == 0 and all(r["correct"] for r in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }


def run_pass(out, args, seconds, traced, deadline):
    """Runs one perfbench pass; returns its exit code and its record."""
    work = tempfile.mkdtemp(prefix="work-", dir=out)
    try:
        run = subprocess.run(
            [os.path.join(out, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(seconds), "--trace", "1" if traced else "0",
             "--candidates", os.path.join(HERE, "candidates.txt"),
             "--work-dir", work],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("the run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return run.returncode, parse_record(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["search_eval", "serve_tcp"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        out = build_dir()
        build(out)
        modes = [False, True] if args.trace else [False]
        codes, passes = [], []
        for traced in modes:
            code, record = run_pass(out, args, args.seconds / len(modes),
                                    traced, deadline)
            codes.append(code)
            passes.append(record)
        result = assemble(spec, args.trace, passes)
    except BenchError as error:
        print("run.py: %s" % error, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] and not any(codes) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (perfbench).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>   # every workload
    python3 perfbench/run.py --selfcheck                              # statistics self-checks

Run from the repository root. The library and the benchmark binary are built from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
A single-workload run prints the binary's output; its last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. Traced runs
write a Chrome trace to <build dir>/traces/<workload>.trace.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["bert_mnli_open", "opt_alpaca_offline", "pit_dynamic_sparse"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src", "pit"))):
        fail(f"no library sources under {root}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "pitbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "pitbench")


def expected_metrics(root, trace):
    """(name, unit) pairs BENCHMARK.json promises for this kind of run."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, root, build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines without the result, result dict)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIT_")}
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload} printed no result (exit code {proc.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result keys {sorted(result)}")
    want = expected_metrics(root, trace)
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if want is not None and sorted(got) != sorted(want):
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload or --selfcheck is required")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(root, build_dir)

    if args.selfcheck:
        sys.exit(subprocess.run([binary, "--selfcheck"]).returncode)

    if args.workload != "all":
        lines, result = run_one(binary, root, build_dir, args.workload, args.seed, args.seconds,
                                args.trace == 1)
        print("\n".join(lines))
        print(json.dumps(result))
        return

    # Every workload, each in its own process, then one table by name and unit.
    results = {}
    for workload in WORKLOADS:
        print(f"== {workload}")
        lines, results[workload] = run_one(binary, root, build_dir, workload, args.seed,
                                           args.seconds, args.trace == 1)
        print("\n".join(lines))
    names = list(results[WORKLOADS[0]]["metrics"])
    print("\n%-36s" % "metric" + "".join("%22s" % w for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print("%-36s" % f"{name} ({unit})" +
              "".join("%22.6g" % results[w]["metrics"][name]["value"] for w in WORKLOADS))
    print("%-36s" % "correct" + "".join("%22s" % results[w]["correct"] for w in WORKLOADS))
    print("%-36s" % "failed/attempted" +
          "".join("%22s" % f"{results[w]['failed']}/{results[w]['attempted']}"
                  for w in WORKLOADS))
    sys.exit(0 if all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()

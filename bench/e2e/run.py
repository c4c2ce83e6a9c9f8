#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 bench/e2e/run.py --workload porto --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository. The first call
configures and builds `bench_e2e` (the library from src/ plus this
directory) into `.bench_build/` at the repository root; later calls only
rebuild what changed. The benchmark's own lines (`workload metric value
unit`) are echoed, and the last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer
metrics with `--trace 1` (which also writes the ledger table to
`.bench_build/ledger_<workload>.txt`).

    python3 bench/e2e/run.py --check-manifest <path to bench_e2e>

checks that `bench_e2e --list-metrics` names exactly the metrics and units
of BENCHMARK.json (the bench_e2e_manifest ctest).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
THREADS = 4
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def manifest():
    """(end_to_end, per_layer) of BENCHMARK.json as {name: unit} maps."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return tuple({m["name"]: m["unit"] for m in bench[key]}
                 for key in ("end_to_end", "per_layer"))


def check_manifest(binary):
    listed = {"end_to_end": {}, "per_layer": {}}
    out = subprocess.run([binary, "--list-metrics"], check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        kind, name, unit = line.split()
        listed[kind][name] = unit
    ok = True
    for kind, declared in zip(("end_to_end", "per_layer"), manifest()):
        for name in sorted(set(declared) | set(listed[kind])):
            if declared.get(name) != listed[kind].get(name):
                print(f"{kind} {name}: BENCHMARK.json has "
                      f"{declared.get(name)}, bench_e2e has "
                      f"{listed[kind].get(name)}", file=sys.stderr)
                ok = False
    return 0 if ok else 1


def build(build_dir):
    """Configures (once) and builds bench_e2e; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src")
    os.makedirs(build_dir, exist_ok=True)
    steps = [["cmake", "--build", build_dir, "--target", "bench_e2e",
              "-j", str(THREADS)]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        result = subprocess.run(step, capture_output=True, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "bench_e2e")


def run(args):
    binary = build(args.build_dir)
    e2e, layers = manifest()
    expected = layers if args.trace else e2e
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--threads={THREADS}", f"--seconds={args.seconds}"]
    if args.trace:
        ledger = os.path.join(args.build_dir, f"ledger_{args.workload}.txt")
        cmd.append(f"--trace={ledger}")
    try:
        result = subprocess.run(cmd, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(result.stderr)
    if result.returncode not in (0, 1):
        fail(f"bench_e2e exited with {result.returncode}")

    metrics, counts = {}, {}
    for line in result.stdout.splitlines():
        print(line)
        fields = line.split()
        if len(fields) != 4 or fields[0] != args.workload:
            continue
        _, name, value, unit = fields
        if name in ("attempted", "failed"):
            counts[name] = int(value)
        else:
            metrics[name] = {"value": float(value), "unit": unit}
    if set(counts) != {"attempted", "failed"}:
        fail("bench_e2e printed no op counts")
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        fail("bench_e2e metrics differ from BENCHMARK.json")
    correct = result.returncode == 0 and counts["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, ".bench_build"))
    parser.add_argument("--check-manifest", metavar="BENCH_E2E")
    args = parser.parse_args()
    if args.check_manifest:
        return check_manifest(args.check_manifest)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

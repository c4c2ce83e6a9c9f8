#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark (bench/e2e) on two commits.

    python3 tools/ab_e2e.py --parent HEAD~1 [--change REV] [--pairs 10]
        [--workloads porto,fleet_100k] [--seed 1] [--work-dir DIR]
        [--json-out FILE] [--trace]
    python3 tools/ab_e2e.py --self-test

Each side's sources are exported into their own directory under --work-dir
(`git archive` of a commit; the change side defaults to this checkout's
working tree, uncommitted edits included), and each side's bench_e2e is
built into its own build directory there, outside both source trees. For
every workload (default: all of BENCHMARK.json) the tool then runs --pairs
pairs, the parent first in even pairs and the change first in odd ones,
each run through that side's own bench/e2e/run.py for BENCHMARK.json's
run_seconds. Nothing under bench/e2e is changed.

For each workload and end-to-end metric it prints both medians, the
parent's interquartile range (IQR) and the pairs the change won (ties count
for neither). The verdict is `gain` when the change won at least 9/10 of
the pairs and the medians differ by more than the parent's IQR,
`unresolved` when the parent's IQR exceeds the metric's bound and not every
change run beats every parent run, and `WORSE` when the change median is
worse than the parent's by more than the bound. Exit status: 1 if any
metric is WORSE, if completion_ratio or cost_km differ bitwise between any
two runs, or if any run failed an op or reported incorrect output; 2 on a
usage or build error; 0 otherwise.

With --trace the pairs are traced runs (run.py --trace 1), and the table
covers BENCHMARK.json's per-layer metrics instead: both medians, the
parent's IQR and the pairs the change won, by each metric's `better`
direction (column p/c: the parent's median over the change's). Per-layer
metrics have no bound, so there is no verdict; the exit status is 1 only
if a run failed an op or reported incorrect output.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BITWISE = ("completion_ratio", "cost_km")
BUILD_JOBS = 4


def median(xs):
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def quantile(xs, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(xs)
    pos = (len(s) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def iqr(xs):
    return quantile(xs, 0.75) - quantile(xs, 0.25)


def better(a, b, direction):
    """True when value a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def pairs_won(pairs, direction):
    """Pairs (parent, change) in which the change is strictly better."""
    return sum(1 for parent, change in pairs
               if better(change, parent, direction))


def worse_than_bound(parent_median, change_median, direction, bound):
    if direction == "higher":
        return change_median < parent_median * (1.0 - bound)
    return change_median > parent_median * (1.0 + bound)


def verdict(parent_runs, change_runs, direction, bound):
    p_med, c_med = median(parent_runs), median(change_runs)
    if worse_than_bound(p_med, c_med, direction, bound):
        return "WORSE"
    spread = iqr(parent_runs)
    won = pairs_won(zip(parent_runs, change_runs), direction)
    if (better(c_med, p_med, direction) and 10 * won >= 9 * len(parent_runs)
            and abs(c_med - p_med) > spread):
        return "gain"
    all_better = all(better(c, p, direction)
                     for c in change_runs for p in parent_runs)
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "ok"


def summarize(runs, end_to_end):
    """Rows and problems for one workload's [(parent, change)] results."""
    problems = []
    for i, pair in enumerate(runs):
        for side, result in zip(("parent", "change"), pair):
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"pair {i} {side}: correct="
                                f"{result['correct']} failed="
                                f"{result['failed']}")
    for name in BITWISE:
        values = {r["metrics"][name]["value"] for pair in runs for r in pair}
        if len(values) != 1:
            problems.append(f"{name} differs between runs: "
                            f"{sorted(values)}")
    rows = []
    for m in end_to_end:
        parent = [p["metrics"][m["name"]]["value"] for p, _ in runs]
        change = [c["metrics"][m["name"]]["value"] for _, c in runs]
        v = verdict(parent, change, m["better"], m["bound"])
        if v == "WORSE":
            problems.append(f"{m['name']} median {median(change):.6g} is "
                            f"worse than the parent's {median(parent):.6g} "
                            f"by more than {m['bound']:.0%}")
        rows.append({"metric": m["name"], "unit": m["unit"],
                     "parent_median": median(parent),
                     "change_median": median(change),
                     "parent_iqr": iqr(parent),
                     "won": pairs_won(zip(parent, change), m["better"]),
                     "pairs": len(runs), "bound": m["bound"],
                     "verdict": v})
    return rows, problems


def summarize_layers(runs, per_layer):
    """Rows and problems for one workload's traced [(parent, change)]."""
    problems = [f"pair {i} {side}: correct={result['correct']} "
                f"failed={result['failed']}"
                for i, pair in enumerate(runs)
                for side, result in zip(("parent", "change"), pair)
                if not result["correct"] or result["failed"] != 0]
    rows = []
    for m in per_layer:
        parent = [p["metrics"][m["name"]]["value"] for p, _ in runs]
        change = [c["metrics"][m["name"]]["value"] for _, c in runs]
        rows.append({"metric": m["name"], "unit": m["unit"],
                     "parent_median": median(parent),
                     "change_median": median(change),
                     "parent_iqr": iqr(parent),
                     "won": pairs_won(zip(parent, change), m["better"]),
                     "pairs": len(runs)})
    return rows, problems


def print_layer_rows(workload, rows):
    print(f"\n{workload} (traced)")
    print(f"{'metric':<36}{'unit':<9}{'parent':>12}{'change':>12}"
          f"{'p/c':>8}{'parent IQR':>12}{'won':>7}")
    for r in rows:
        p, c = r["parent_median"], r["change_median"]
        ratio = f"{p / c:.3f}" if c else "n/a"
        print(f"{r['metric']:<36}{r['unit']:<9}{p:>12.6g}{c:>12.6g}"
              f"{ratio:>8}{r['parent_iqr']:>12.4g}"
              f"{str(r['won']) + '/' + str(r['pairs']):>7}")


def print_rows(workload, rows):
    print(f"\n{workload}")
    print(f"{'metric':<18}{'unit':<9}{'parent':>12}{'change':>12}"
          f"{'delta':>9}{'parent IQR':>12}{'won':>7}{'bound':>7}  verdict")
    for r in rows:
        p, c = r["parent_median"], r["change_median"]
        delta = f"{(c - p) / p:+.1%}" if p else "n/a"
        print(f"{r['metric']:<18}{r['unit']:<9}{p:>12.6g}{c:>12.6g}"
              f"{delta:>9}{r['parent_iqr']:>12.4g}"
              f"{str(r['won']) + '/' + str(r['pairs']):>7}"
              f"{r['bound']:>7.0%}  {r['verdict']}")


def fail(message):
    print("ab_e2e.py: " + message, file=sys.stderr)
    sys.exit(2)


def git(*args):
    result = subprocess.run(["git", "-C", ROOT, *args], capture_output=True)
    if result.returncode != 0:
        fail(f"git {' '.join(args)}: {result.stderr.decode().strip()}")
    return result.stdout


def export_tree(rev, dest):
    """Writes the sources of `rev` (None: the working tree) into dest."""
    os.makedirs(dest)
    if rev is not None:
        archive = git("archive", "--format=tar", rev)
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
        return
    listed = git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard")
    for path in listed.decode().split("\0"):
        if path and os.path.isfile(os.path.join(ROOT, path)):
            os.makedirs(os.path.join(dest, os.path.dirname(path)),
                        exist_ok=True)
            shutil.copy2(os.path.join(ROOT, path), os.path.join(dest, path))


def build(source, build_dir):
    """Configures and builds bench_e2e the way bench/e2e/run.py does."""
    for step in (["cmake", "-S", os.path.join(source, "bench", "e2e"), "-B",
                  build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", str(BUILD_JOBS)]):
        result = subprocess.run(step, capture_output=True, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
            fail("build step failed: " + " ".join(step))


def run_once(source, build_dir, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(source, "bench", "e2e", "run.py"),
           f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--build-dir={build_dir}"]
    result = subprocess.run(cmd, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(result.stderr[-4000:])
        fail(f"no result from {' '.join(cmd)}")
    return json.loads(lines[-1])


def self_test():
    checks = [
        (median([3.0, 1.0, 2.0]), 2.0),
        (median([4.0, 1.0, 3.0, 2.0]), 2.5),
        (quantile([float(x) for x in range(1, 11)], 0.25), 3.25),
        (iqr([float(x) for x in range(1, 11)]), 4.5),
        (iqr([5.0]), 0.0),
        (pairs_won([(1, 2), (2, 2), (3, 1)], "higher"), 1),
        (pairs_won([(1, 2), (2, 2), (3, 1)], "lower"), 1),
        (worse_than_bound(100.0, 75.0, "higher", 0.24), True),
        (worse_than_bound(100.0, 77.0, "higher", 0.24), False),
        (worse_than_bound(1.0, 1.26, "lower", 0.25), True),
        (worse_than_bound(1.0, 1.24, "lower", 0.25), False),
        (verdict([10.0] * 10, [12.0] * 10, "higher", 0.1), "gain"),
        (verdict([10.0] * 10, [12.0] * 8 + [9.0] * 2, "higher", 0.1), "ok"),
        (verdict([1.0, 2.0, 3.0, 4.0], [2.5] * 4, "lower", 0.25),
         "unresolved"),
        (verdict([10.0] * 4, [7.0] * 4, "higher", 0.25), "WORSE"),
    ]
    errors = [f"check {i}: got {got!r}, want {want!r}"
              for i, (got, want) in enumerate(checks) if got != want]

    def result(tasks_per_s, completion, failed=0):
        metrics = {"tasks_per_s": tasks_per_s, "completion_ratio": completion,
                   "cost_km": 2.0}
        return {"correct": failed == 0, "attempted": 10, "failed": failed,
                "metrics": {k: {"value": v} for k, v in metrics.items()}}

    layers = [{"name": "meta.taml_s", "unit": "s/setup", "better": "lower"},
              {"name": "nn.forecast_cells", "unit": "count",
               "better": "lower"},
              {"name": "assign.prune_ratio", "unit": "ratio",
               "better": "higher"}]

    def traced(taml, cells, prune, failed=0):
        metrics = {"meta.taml_s": taml, "nn.forecast_cells": cells,
                   "assign.prune_ratio": prune}
        return {"correct": failed == 0, "attempted": 10, "failed": failed,
                "metrics": {k: {"value": v} for k, v in metrics.items()}}

    rows, problems = summarize_layers(
        [(traced(2.0, 100.0, 0.5), traced(1.0, 100.0, 0.6)),
         (traced(2.4, 100.0, 0.5), traced(1.2, 100.0, 0.4)),
         (traced(2.2, 100.0, 0.5), traced(2.3, 100.0, 0.7))], layers)
    got = {r["metric"]: (r["parent_median"], r["change_median"], r["won"],
                         r["pairs"]) for r in rows}
    want = {"meta.taml_s": (2.2, 1.2, 2, 3),
            "nn.forecast_cells": (100.0, 100.0, 0, 3),
            "assign.prune_ratio": (0.5, 0.6, 2, 3)}
    if problems or got != want or abs(rows[0]["parent_iqr"] - 0.2) > 1e-12:
        errors.append(f"layer summary: {rows} {problems}")
    if any("verdict" in r for r in rows):
        errors.append(f"layer summary gives a verdict: {rows}")
    _, problems = summarize_layers(
        [(traced(2.0, 100.0, 0.5), traced(1.0, 100.0, 0.6, failed=2))],
        layers)
    if len(problems) != 1:
        errors.append(f"failed traced run not caught: {problems}")

    e2e = [{"name": "tasks_per_s", "unit": "tasks/s", "better": "higher",
            "bound": 0.24}]
    rows, problems = summarize(
        [(result(100.0, 0.5), result(110.0, 0.5)),
         (result(102.0, 0.5), result(108.0, 0.5))], e2e)
    if problems or rows[0]["won"] != 2 or rows[0]["change_median"] != 109.0:
        errors.append(f"clean summary: {rows} {problems}")
    _, problems = summarize(
        [(result(100.0, 0.1 + 0.2), result(100.0, 0.3, failed=1))], e2e)
    if len(problems) != 2:
        errors.append(f"bitwise + failed run not both caught: {problems}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"] for m in bench["end_to_end"]}
    if not set(BITWISE) <= declared:
        errors.append(f"BENCHMARK.json lacks {set(BITWISE) - declared}")
    if any(m.get("better") not in ("higher", "lower")
           for m in bench["per_layer"]):
        errors.append("a BENCHMARK.json per-layer metric has no `better`")
    for e in errors:
        print("self-test: " + e, file=sys.stderr)
    print(f"ab_e2e self-test: {len(checks) + 7 - len(errors)} passed, "
          f"{len(errors)} failed")
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="parent commit (e.g. HEAD~1)")
    parser.add_argument("--change", help="change commit (default: the "
                        "working tree of this checkout)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--work-dir", help="where the exported sources and "
                        "builds go (default: a fresh temporary directory)")
    parser.add_argument("--json-out", help="also write every run's result")
    parser.add_argument("--trace", action="store_true",
                        help="traced runs; summarize the per-layer metrics")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or args.pairs < 1:
        parser.error("--parent is required and --pairs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        unknown = set(args.workloads.split(",")) - set(workloads)
        if unknown:
            parser.error(f"unknown workloads {sorted(unknown)}")
        workloads = args.workloads.split(",")

    work = os.path.abspath(args.work_dir
                           or tempfile.mkdtemp(prefix="ab_e2e_"))
    if os.path.commonpath([work, ROOT]) == ROOT:
        parser.error("--work-dir must lie outside the checkout, whose "
                     "working tree is exported into it")
    sides = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        source = os.path.join(work, side, "src")
        build_dir = os.path.join(work, side, "build")
        if os.path.exists(source):
            shutil.rmtree(source)
        export_tree(rev, source)
        build(source, build_dir)
        sides[side] = (source, build_dir)
    print(f"parent {args.parent}, change {args.change or 'working tree'}; "
          f"sources and builds in {work}")

    seconds = bench["run_seconds"]
    record, status = {}, 0
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                            "parent")
            got = {side: run_once(*sides[side], workload, args.seed, seconds,
                                  args.trace)
                   for side in order}
            runs.append((got["parent"], got["change"]))
        if args.trace:
            rows, problems = summarize_layers(runs, bench["per_layer"])
            print_layer_rows(workload, rows)
        else:
            rows, problems = summarize(runs, bench["end_to_end"])
            print_rows(workload, rows)
        for p in problems:
            print(f"  FAIL {workload}: {p}")
        status = status or (1 if problems else 0)
        record[workload] = {"rows": rows, "problems": problems,
                            "runs": [{"parent": p, "change": c}
                                     for p, c in runs]}
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(record, f, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())

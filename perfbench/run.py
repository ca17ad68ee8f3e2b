#!/usr/bin/env python3
"""Build and run the ftsched end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One measured run. Builds perfbench/ (release, offline) into
      $CARGO_TARGET_DIR (default .bench_build), runs it, and prints its
      result; the last line of standard output is the result JSON.

  python3 perfbench/run.py all --seed N [--seconds S]
      Every workload once, untraced, then a table of every end-to-end
      metric with its unit.

  python3 perfbench/run.py spread --workload W --seeds 1-10 [--seconds S]
                                  [--trace 0|1] [--out FILE]
      One run per seed; prints each metric's median and the distance
      between its quartiles as a share of the median, and optionally
      saves the values as a result set for `compare`.

  python3 perfbench/run.py compare PARENT.json CHANGE.json
      One row per (workload, end-to-end metric) of two result sets:
      each side's median and quartiles and a verdict of improved,
      unchanged, regressed or unresolved.

A run that is not correct exits with status 1; `all` and `spread` stop
at it, so no result set holds its figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, env=env, timeout=BUILD_TIMEOUT_S,
                          stdout=sys.stderr)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(target_dir(), "release", "perfbench")


def work_dir():
    # Unix socket paths are short: keep the directory relative.
    path = os.path.join(target_dir(), "perfbench-work")
    try:
        return os.path.relpath(path)
    except ValueError:
        return path


def run_once(binary, workload, seed, seconds, trace, quiet=False):
    """Runs the benchmark binary once; returns its output lines, the
    parsed result line, and whether the run was correct (exit status 0,
    `correct` true, no failed operation)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir()]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL if quiet else None,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"perfbench: {workload} seed {seed} printed no "
                         f"result ({done.returncode})")
    expected = [m["name"] for m in
                load_benchmark()["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ set(expected))}")
    correct = (done.returncode == 0 and result["correct"]
               and result["failed"] == 0)
    return lines, result, correct


def correct_run(binary, workload, seed, seconds, trace, quiet=False):
    """run_once for the modes that aggregate runs: a run that is not
    correct stops them, so its figures are never saved or compared."""
    _, result, correct = run_once(binary, workload, seed, seconds, trace,
                                  quiet)
    if not correct:
        raise SystemExit(f"perfbench: {workload} seed {seed} is not correct: "
                         f"{result['failed']} of {result['attempted']} "
                         "operations failed")
    return result


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / |median|) as the contract defines it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args):
    binary = build()
    lines, _, correct = run_once(binary, args.workload, args.seed,
                                 args.seconds, args.trace)
    print("\n".join(lines))
    if not correct:
        sys.exit(1)


def cmd_all(args):
    binary = build()
    bench = load_benchmark()
    rows = []
    for w in bench["workloads"]:
        result = correct_run(binary, w["name"], args.seed, args.seconds, 0)
        rows.append((w["name"], result))
    print(f"{'workload':<18} {'metric':<18} {'value':>14}  unit")
    for name, result in rows:
        for m in bench["end_to_end"]:
            v = result["metrics"][m["name"]]
            print(f"{name:<18} {m['name']:<18} {v['value']:>14.4f}  {v['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"{name:<18} {'error_rate':<18} {rate:>14.4f}  ratio "
              f"({result['failed']} of {result['attempted']} operations)")


def cmd_spread(args):
    binary = build()
    bench = load_benchmark()
    catalogue = bench["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)
    values = {m["name"]: [] for m in catalogue}
    attempted = 0
    for seed in seeds:
        start = time.time()
        result = correct_run(binary, args.workload, seed, args.seconds,
                             args.trace, quiet=True)
        attempted += result["attempted"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {time.time() - start:.1f} s, "
              f"{result['failed']} of {result['attempted']} failed",
              file=sys.stderr)
    print(f"{args.workload}: {len(seeds)} seeds, {attempted} operations, "
          "none failed")
    for m in catalogue:
        vals = values[m["name"]]
        if len(vals) < 2:
            print(f"  {m['name']:<36} {vals}")
            continue
        med, q1, q3, spread = quartile_spread(vals)
        bound = m.get("bound")
        mark = ""
        if bound is not None:
            mark = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
        print(f"  {m['name']:<36} median {med:>14.4f} q1 {q1:>14.4f} "
              f"q3 {q3:>14.4f} spread {spread:7.2%} {mark}")
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        # Runs of one workload at the same --seconds accumulate, so the
        # two sides of a comparison can be measured seed by seed in turn.
        # Only correct runs are saved; `failed` is kept so that `compare`
        # can weigh failures in result sets made otherwise.
        old = doc.get(args.workload)
        failed = 0
        if old and old["seconds"] == args.seconds:
            seeds = old["seeds"] + seeds
            values = {m: old["metrics"][m] + v for m, v in values.items()}
            attempted += old.get("attempted", 0)
            failed = old.get("failed", 0)
        doc[args.workload] = {"seeds": seeds, "seconds": args.seconds,
                              "attempted": attempted, "failed": failed,
                              "metrics": values}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


def failure_rate(side):
    return side.get("failed", 0) / max(side.get("attempted", 0), 1)


def verdict(parent, change, better, bound, more_failures=False):
    """The verdict for one (workload, metric) pair of result sets.

    regressed: more of the change's operations failed than the parent's,
    or the change's median is worse than the parent's by more than the
    bound. improved: the change wins at least 9 of 10 pairs and the
    medians differ by more than the parent's interquartile range.
    unresolved: the parent's own spread is wider than the bound and not
    every change run beats every parent run. Otherwise unchanged.
    """
    if more_failures:
        return "regressed"
    sign = 1 if better == "higher" else -1
    mp, q1p, q3p, spread = quartile_spread(parent)
    mc = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    worse = sign * (mp - mc) / abs(mp) if mp else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(pairs) and abs(mc - mp) > q3p - q1p:
        return "improved"
    if worse > bound and (losses >= 0.9 * len(pairs) or spread <= bound):
        return "regressed"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def cmd_compare(args):
    bench = load_benchmark()
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    print(f"{'workload':<16} {'metric':<16} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34}  verdict")
    worst = 0
    for w in bench["workloads"]:
        name = w["name"]
        if name not in parent or name not in change:
            print(f"{name:<16} (missing from a result set)")
            worst = max(worst, 1)
            continue
        more_failures = failure_rate(change[name]) > failure_rate(parent[name])
        if more_failures:
            print(f"{name:<16} more failed operations than the parent: "
                  f"{change[name]['failed']} of {change[name]['attempted']}")
        for m in bench["end_to_end"]:
            p = parent[name]["metrics"][m["name"]]
            c = change[name]["metrics"][m["name"]]
            v = verdict(p, c, m["better"], m["bound"], more_failures)
            cells = []
            for vals in (p, c):
                q1, med, q3 = statistics.quantiles(vals, n=4)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{name:<16} {m['name']:<16} {cells[0]:>34} {cells[1]:>34}  {v}")
            if v == "regressed":
                worst = 2
    return worst


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("all", "spread", "compare"):
        sub = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        if argv[0] == "compare":
            sub.add_argument("parent")
            sub.add_argument("change")
            sys.exit(cmd_compare(sub.parse_args(argv[1:])))
        seconds = load_benchmark()["run_seconds"]
        sub.add_argument("--seconds", type=float, default=seconds)
        if argv[0] == "all":
            sub.add_argument("--seed", type=int, required=True)
            cmd_all(sub.parse_args(argv[1:]))
        else:
            sub.add_argument("--workload", required=True)
            sub.add_argument("--seeds", required=True)
            sub.add_argument("--trace", type=int, choices=(0, 1), default=0)
            sub.add_argument("--out")
            cmd_spread(sub.parse_args(argv[1:]))
        return
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    cmd_run(parser.parse_args(argv))


if __name__ == "__main__":
    main()

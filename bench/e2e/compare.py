#!/usr/bin/env python3
"""Compare permbench result sets.

A result file is the captured standard output of one untraced run
(`run.py ... --trace 0 > file`); a set is a directory of them. Files are
matched by their stamp line (workload, seed).

    compare.py PARENT_DIR CHANGE_DIR [--claim WORKLOAD:METRIC]
        Every (workload, end-to-end metric) pair is checked against its
        BENCHMARK.json bound: "regressed" when the change's median is worse
        than the parent's by more than the bound, "unresolved" when the
        parent's own spread (IQR / median) is wider than the bound, unless
        every change run beats every parent run. The named claim must meet
        the choosing-metrics rule: at least 10 runs per side paired by seed,
        the change better in 9 of 10 pairs (ties count for neither), and
        the median gap larger than the parent's IQR.

    compare.py --agree SET_A SET_B
        Two sets of runs of the same code: every pair's medians must be
        within the metric's bound of each other.

Exits 1 on a regression, an unmet claim, a disagreement, a failed request
or a wrong output; 2 on bad input.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_set(directory):
    """{(workload, seed): result} for the untraced runs in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        stamp, result = None, None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line.startswith("stamp "):
                    stamp = json.loads(line[len("stamp "):])
                elif line.startswith("{"):
                    result = json.loads(line)
        if stamp is None or result is None or stamp.get("trace") != 0:
            continue
        runs[(stamp["workload"], stamp["seed"])] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def by_workload(runs):
    grouped = {}
    for (workload, seed), result in runs.items():
        grouped.setdefault(workload, {})[seed] = result
    return grouped


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def health(name, runs):
    """Failed requests and wrong outputs make a set unusable."""
    ok = True
    for (workload, seed), result in sorted(runs.items()):
        if not result["correct"] or result["failed"] != 0:
            print(f"{name}: {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']} of {result['attempted']}")
            ok = False
    return ok


def row(workload, metric, a, b, delta, bound, status):
    qa, qb = quartiles(a), quartiles(b)
    print(f"{workload:<10} {metric:<18} {statistics.median(a):>11.5g} "
          f"[{qa[0]:.4g}, {qa[1]:.4g}]  {statistics.median(b):>11.5g} "
          f"[{qb[0]:.4g}, {qb[1]:.4g}]  {delta:+7.1%}  {bound:>5.0%}  {status}")


def header(left, right, delta):
    print(f"{'workload':<10} {'metric':<18} {left + ' median [q1, q3]':>28}  "
          f"{right + ' median [q1, q3]':>28}  {delta:>7}  {'bound':>5}  status")


def compare(parent, change, metrics, claim):
    header("parent", "change", "worse")
    bad = False
    claim_seen = claim is None
    p_groups, c_groups = by_workload(parent), by_workload(change)
    for workload in sorted(set(p_groups) | set(c_groups)):
        p_runs, c_runs = p_groups.get(workload, {}), c_groups.get(workload, {})
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            p = values(p_runs.values(), name)
            c = values(c_runs.values(), name)
            if not p or not c:
                print(f"{workload:<10} {name:<18} missing on one side")
                bad = True
                continue
            sign = 1 if lower else -1
            p_med, c_med = statistics.median(p), statistics.median(c)
            worse = sign * (c_med - p_med) / p_med
            q1, q3 = quartiles(p)
            spread = (q3 - q1) / p_med
            all_better = all(sign * (cv - pv) < 0 for cv in c for pv in p)
            if claim == (workload, name):
                seeds = sorted(set(p_runs) & set(c_runs))
                pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                         for s in seeds]
                wins = sum(1 for pv, cv in pairs if sign * (cv - pv) < 0)
                met = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                       and sign * (p_med - c_med) > q3 - q1)
                if met:
                    status = f"improved (claim; {wins}/{len(pairs)} pairs)"
                elif worse > bound and spread <= bound:
                    status = "regressed (claim)"
                else:
                    status = f"unresolved (claim not met; {wins}/{len(pairs)} pairs)"
                claim_seen = True
                bad |= not met
            elif spread > bound:
                status = "improved" if all_better else f"unresolved (spread {spread:.1%})"
            elif worse > bound:
                status = "regressed"
                bad = True
            else:
                status = "unchanged"
            row(workload, name, p, c, worse, bound, status)
    if not claim_seen:
        print(f"claim {claim[0]}:{claim[1]}: no runs of that workload on both sides")
    return bad or not claim_seen


def agree(a_runs, b_runs, metrics):
    header("set A", "set B", "gap")
    bad = False
    a_groups, b_groups = by_workload(a_runs), by_workload(b_runs)
    for workload in sorted(set(a_groups) | set(b_groups)):
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = values(a_groups.get(workload, {}).values(), name)
            b = values(b_groups.get(workload, {}).values(), name)
            if not a or not b:
                print(f"{workload:<10} {name:<18} missing on one side")
                bad = True
                continue
            gap = abs(statistics.median(b) - statistics.median(a)) / statistics.median(a)
            ok = gap <= bound
            bad |= not ok
            row(workload, name, a, b, gap, bound, "agree" if ok else "DISAGREE")
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("left", help="parent set (or set A with --agree)")
    parser.add_argument("right", help="change set (or set B with --agree)")
    parser.add_argument("--agree", action="store_true", help="both sets ran the same code")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK, help="path to BENCHMARK.json")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    left, right = load_set(args.left), load_set(args.right)
    if not left or not right:
        print("compare.py: a set holds no untraced result files", file=sys.stderr)
        return 2
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        claim = (workload, metric)
        if metric not in {m["name"] for m in metrics}:
            print(f"compare.py: {metric} is not an end-to-end metric", file=sys.stderr)
            return 2

    bad = (not health("left", left)) | (not health("right", right))
    bad |= agree(left, right, metrics) if args.agree else compare(left, right, metrics, claim)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change (stdlib only).

Collect alternating pairs from two checkouts, then report:

    python3 perfbench/compare.py collect --parent ../parent --change . \\
        --pairs 10 --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

`collect` runs `python3 perfbench/run.py` untraced in each checkout, pair
by pair, for BENCHMARK.json's run_seconds, with the pair index as the seed
of both sides, alternating which side runs first.  Each record is one
JSON line.

`report` applies, per (metric, workload) pair:

* the gain rule: at least 10 pairs, the change wins at least 9/10 of them
  (ties count for neither side), and the medians differ by more than the
  parent's interquartile range;
* the bound from BENCHMARK.json: the change's median may be worse than
  the parent's by at most `bound` (a share of the parent's median).  When
  either side's spread (IQR / median) exceeds the bound, the pair is
  "unresolved" unless every change run beats every parent run;
* failed_ratio (failed / attempted) and the correctness flag: the change
  may not fail more often than the parent, and every run must be correct.

Exit status 1 means a regression, a correctness failure or more failures
than the parent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(path):
    with open(path) as handle:
        return json.load(handle)


def run_once(checkout, workload, seed, seconds):
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError("%s: run.py exited %d for %s seed %d"
                           % (checkout, done.returncode, workload, seed))
    return json.loads(done.stdout.strip().splitlines()[-1])


def collect(args):
    config = load_benchmark(os.path.join(args.change, "BENCHMARK.json"))
    workloads = args.workloads or [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = pair
            order = ["parent", "change"] if pair % 2 == 0 else \
                ["change", "parent"]
            for workload in workloads:
                for position, side in enumerate(order):
                    result = run_once(sides[side], workload, seed, seconds)
                    record = {"side": side, "workload": workload,
                              "pair": pair, "seed": seed,
                              "ran_first": position == 0, "result": result}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print("pair %d %s %s seed %d: correct=%s"
                          % (pair, workload, side, seed, result["correct"]),
                          file=sys.stderr)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def judge(parent, change, direction, bound):
    """Verdict for one (metric, workload) pair of paired runs."""
    pairs = sorted(set(parent) & set(change))
    p = [parent[i] for i in pairs]
    c = [change[i] for i in pairs]
    p1, pmed, p3 = quartiles(p)
    c1, cmed, c3 = quartiles(c)
    wins = sum(1 for a, b in zip(c, p) if better(a, b, direction))
    losses = sum(1 for a, b in zip(c, p) if better(b, a, direction))
    parent_iqr = p3 - p1
    gain = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and better(cmed, pmed, direction)
            and abs(cmed - pmed) > parent_iqr)
    row = {"pairs": len(pairs), "parent_median": pmed, "change_median": cmed,
           "parent_q": (p1, p3), "change_q": (c1, c3), "wins": wins,
           "losses": losses}
    scale = abs(pmed) if pmed else 1.0
    worse_by = (cmed - pmed) / scale if direction == "lower" \
        else (pmed - cmed) / scale
    spread = max((p3 - p1) / scale, (c3 - c1) / (abs(cmed) or 1.0))
    row["worse_by"] = worse_by
    row["spread"] = spread
    all_better = all(better(a, b, direction) for a in c for b in p)
    if gain:
        row["verdict"] = "gain"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse_by > bound:
        row["verdict"] = "REGRESSION"
    else:
        row["verdict"] = "ok"
    return row


def report(args):
    config = load_benchmark(args.benchmark)
    metrics = {m["name"]: m for m in config["end_to_end"]}
    records = []
    with open(args.results) as handle:
        for line in handle:
            if line.strip():
                records.append(json.loads(line))
    status = 0
    series = {}
    failures = {}
    for record in records:
        key = (record["workload"], record["side"])
        result = record["result"]
        attempted, failed = failures.get(key, (0, 0))
        failures[key] = (attempted + result["attempted"],
                         failed + result["failed"])
        if not result["correct"]:
            print("INCORRECT run: %s %s pair %d"
                  % (record["workload"], record["side"], record["pair"]))
            status = 1
        for name, metric in result["metrics"].items():
            series.setdefault((record["workload"], name, record["side"]),
                              {})[record["pair"]] = metric["value"]

    workloads = sorted({r["workload"] for r in records})
    header = "%-16s %-34s %5s %14s %14s %8s %8s %6s  %s" % (
        "workload", "metric", "pairs", "parent med", "change med",
        "worse", "spread", "wins", "verdict")
    print(header)
    print("-" * len(header))
    for workload in workloads:
        for name, metric in metrics.items():
            parent = series.get((workload, name, "parent"))
            change = series.get((workload, name, "change"))
            if not parent or not change:
                continue
            row = judge(parent, change, metric["better"], metric["bound"])
            if row["verdict"] == "REGRESSION":
                status = 1
            print("%-16s %-34s %5d %14.6g %14.6g %8s %8s %6s  %s" % (
                workload, name, row["pairs"], row["parent_median"],
                row["change_median"], "%+.1f%%" % (100 * row["worse_by"]),
                "%.1f%%" % (100 * row["spread"]),
                "%d/%d" % (row["wins"], row["pairs"]), row["verdict"]))
        pa, pf = failures.get((workload, "parent"), (0, 0))
        ca, cf = failures.get((workload, "change"), (0, 0))
        p_ratio = pf / pa if pa else 0.0
        c_ratio = cf / ca if ca else 0.0
        verdict = "ok" if c_ratio <= p_ratio else "MORE FAILURES"
        if verdict != "ok":
            status = 1
        print("%-16s %-34s %5s %14.6g %14.6g %8s %8s %6s  %s" % (
            workload, "failed_ratio", "", p_ratio, c_ratio, "", "", "",
            verdict))
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run alternating parent/change pairs")
    c.add_argument("--parent", required=True, help="parent checkout")
    c.add_argument("--change", required=True, help="change checkout")
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--workloads", nargs="*")
    c.add_argument("--out", required=True, help="JSON-lines file to append")
    r = sub.add_parser("report", help="judge collected pairs")
    r.add_argument("results")
    r.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    return collect(args) if args.command == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())

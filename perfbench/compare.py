"""Verdict per (end-to-end metric, workload) between two result sets.

    python3 perfbench/compare.py PAIR.json
    python3 perfbench/compare.py BASE.json CHANGE.json

PAIR is a file written by `sweep.py --base`, whose two sides ran interleaved
per seed.  BASE and CHANGE are single sets written by sweep.py without
--base; they ran at different times, so a drift of the machine's speed
between them is not cancelled and a warning says so.  Sets of different
run_seconds are refused.  BASE is the parent commit, or the first of two
sets from one commit.  Runs are paired by seed.  With `bound` from
BENCHMARK.json and spreads taken as quartile distance over median, each
pair gets one verdict:

  improved    CHANGE wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than BASE's quartile distance
  worse       CHANGE's median is worse than BASE's by more than the bound
  no worse    neither of the above
  unresolved  either side spreads wider than the bound, unless every CHANGE
              run beats every BASE run
  refused     would be "improved", but a CHANGE run of the workload is not
              correct or CHANGE fails a larger share of its operations than
              BASE (summed failed / summed attempted)

For each workload and side it prints the correct runs and the summed
failed / attempted, and whether the determinism fingerprints of seeds
present in both sets are identical.  Exit code 1 when any verdict is
"worse" or "refused".
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, change, bound, lower_is_better):
    """base/change: {seed: value}; returns (verdict, detail dict)."""
    seeds = sorted(set(base) & set(change))
    b = [base[s] for s in sorted(base)]
    c = [change[s] for s in sorted(change)]
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    sign = 1.0 if lower_is_better else -1.0
    better = (lambda x, y: x < y) if lower_is_better else (lambda x, y: x > y)
    wins = sum(1 for s in seeds if better(change[s], base[s]))
    losses = sum(1 for s in seeds if better(base[s], change[s]))
    decided = wins + losses
    b_spread = (bq3 - bq1) / bmed if bmed else float("inf")
    c_spread = (cq3 - cq1) / cmed if cmed else float("inf")
    worse_by = sign * (cmed - bmed) / bmed if bmed else float("inf")
    all_better = all(better(x, y) for x in c for y in b)
    gain = (seeds and wins >= 0.9 * len(seeds) and abs(cmed - bmed) > (bq3 - bq1)
            and sign * (cmed - bmed) < 0)
    if b_spread > bound or c_spread > bound:
        result = "improved" if all_better and gain else (
            "no worse" if all_better else "unresolved")
    elif gain:
        result = "improved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "no worse"
    return result, {"base_median": bmed, "change_median": cmed, "worse_by": worse_by,
                    "base_spread": b_spread, "change_spread": c_spread,
                    "wins": wins, "decided": decided, "pairs": len(seeds)}


def read(path):
    with open(path) as fh:
        return json.load(fh)


def load_sides(paths):
    """(base, change) as {workload: runs}, from one interleaved pair or two sets."""
    if len(paths) == 1:
        data = read(paths[0])
        if not data.get("interleaved"):
            raise SystemExit(f"{paths[0]} is a single set; give two sets or one "
                             "file from `sweep.py --base`")
        return data["base"]["workloads"], data["change"]["workloads"]
    base, change = read(paths[0]), read(paths[1])
    if base.get("interleaved") or change.get("interleaved"):
        raise SystemExit("give an interleaved pair on its own")
    if base["run_seconds"] != change["run_seconds"]:
        raise SystemExit(f"run_seconds differ: {base['run_seconds']} in {paths[0]}, "
                         f"{change['run_seconds']} in {paths[1]}")
    print("warning: the two sets did not run interleaved; a drift of the machine's "
          "speed between them is not cancelled (use `sweep.py --base`)")
    return base["workloads"], change["workloads"]


def outcomes(runs):
    """(correct runs, runs, summed failed, summed attempted)."""
    return (sum(bool(r["result"]["correct"]) for r in runs), len(runs),
            sum(r["result"]["failed"] for r in runs),
            sum(r["result"]["attempted"] for r in runs))


def values(runs, name):
    return {r["seed"]: r["result"]["metrics"][name]["value"]
            for r in runs if name in r["result"]["metrics"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="+", metavar="SET", help="PAIR.json, or BASE.json CHANGE.json")
    args = ap.parse_args(argv)
    if len(args.sets) > 2:
        ap.error("give one interleaved pair or two sets")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    base, change = load_sides(args.sets)

    bad = False
    print(f"{'workload':8s} {'metric':14s} {'base':>11s} {'change':>11s} {'worse_by':>9s} "
          f"{'spreads':>15s} {'wins':>7s}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in base or workload not in change:
            print(f"{workload:8s} missing from one of the result sets")
            continue
        b_ok, b_n, b_failed, b_tried = outcomes(base[workload])
        c_ok, c_n, c_failed, c_tried = outcomes(change[workload])
        valid = c_ok == c_n and c_failed * b_tried <= b_failed * c_tried
        print(f"{workload:8s} correct runs {b_ok}/{b_n} / {c_ok}/{c_n}; failed "
              f"{b_failed}/{b_tried} / {c_failed}/{c_tried}"
              + ("" if valid else "  -> no gain counts on this workload"))
        for m in bench["end_to_end"]:
            name = m["name"]
            bv, cv = values(base[workload], name), values(change[workload], name)
            if not bv or not cv:
                print(f"{workload:8s} {name:14s} no values on one side  unresolved")
                continue
            v, d = verdict(bv, cv, m["bound"], m["better"] == "lower")
            if v == "improved" and not valid:
                v = "refused"
            bad |= v in ("worse", "refused")
            print(f"{workload:8s} {name:14s} {d['base_median']:11.5g} {d['change_median']:11.5g} "
                  f"{d['worse_by']:+9.2%} {d['base_spread']:7.2%}/{d['change_spread']:<7.2%} "
                  f"{d['wins']:3d}/{d['pairs']:<3d}  {v}")
        bf = {r["seed"]: r["fingerprint"] for r in base[workload]}
        cf = {r["seed"]: r["fingerprint"] for r in change[workload]}
        common = sorted(set(bf) & set(cf))
        same = sum(1 for s in common if bf[s] == cf[s])
        ident = "yes" if common and same == len(common) else "no"
        print(f"{workload:8s} byte-identical: {ident} ({same}/{len(common)} seeds)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

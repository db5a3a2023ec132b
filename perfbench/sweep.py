#!/usr/bin/env python3
"""Run the benchmark over several seeds and save the runs as a result file.

    python3 perfbench/sweep.py --out perfbench/out/head.json --seeds 1-10
    python3 perfbench/sweep.py --base ../parent --out perfbench/out/pair.json
    python3 perfbench/sweep.py --base . --out perfbench/out/same.json --workloads fleet --seeds 1-5

Each run is `<command> --workload W --seed S --seconds <run_seconds> --trace 0`,
with command and run_seconds from this checkout's BENCHMARK.json, started one
at a time from the root of the checkout it measures.

Without --base the file holds one result set, of this checkout.  With
--base DIR it holds two, `base` (the checkout DIR, which must hold the
benchmark too) and `change` (this checkout), interleaved: for each seed the
two sides run back to back, base first on odd seeds and change first on even
ones, so a drift of the machine's speed falls on both sides alike.
`--base .` gives two interleaved sets of the same code.  `compare.py` reads
the file.  For each side and end-to-end metric the sweep prints the median,
the quartile spread as a share of the median, and the metric's bound.
--record-fingerprints stores this checkout's fingerprints into
fingerprints.json so that later runs can report whether their logs are
byte-identical.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """Quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def run_one(bench, root, workload, seed):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{root}: {workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(ln[len("info: "):]) for ln in lines if ln.startswith("info: ")), {})
    result = json.loads(lines[-1])
    vals = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
    print(f"{root} {workload} seed {seed}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          f"identical={info.get('byte_identical')} {vals}", flush=True)
    return {"seed": seed, "result": result, "fingerprint": info.get("fingerprint"),
            "byte_identical": info.get("byte_identical")}


def print_spreads(label, workloads, bounds):
    print(f"\n{label}\n{'workload':8s} {'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, runs in workloads.items():
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) >= 2 else float("nan")
            flag = "" if s < bound / 3 else ("  > bound/3" if s <= bound else "  > BOUND")
            print(f"{workload:8s} {name:14s} {statistics.median(values):12.5g} "
                  f"{s:8.4f} {bound:6.3f}{flag}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="result JSON to write")
    ap.add_argument("--base", help="checkout to run interleaved with this one, as `base`")
    ap.add_argument("--workloads", help="comma-separated; default all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--record-fingerprints", action="store_true")
    args = ap.parse_args(argv)

    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sides = {"change": ROOT}
    if args.base:
        base = os.path.abspath(args.base)
        if not os.path.isfile(os.path.join(base, "BENCHMARK.json")):
            raise SystemExit(f"{base} holds no benchmark")
        sides = {"base": base, "change": ROOT}

    results = {side: {} for side in sides}
    for workload in workloads:
        for side in sides:
            results[side][workload] = []
        for seed in seeds:
            order = list(sides)
            if seed % 2 == 0:
                order.reverse()
            for side in order:
                results[side][workload].append(run_one(bench, sides[side], workload, seed))

    if args.base:
        out = {"run_seconds": bench["run_seconds"], "interleaved": True,
               **{side: {"root": sides[side], "workloads": results[side]} for side in sides}}
    else:
        out = {"run_seconds": bench["run_seconds"], "workloads": results["change"]}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)

    for side in sides:
        print_spreads(f"{side}: {sides[side]}", results[side], bounds)

    if args.record_fingerprints:
        try:
            with open(FINGERPRINTS) as fh:
                recorded = json.load(fh)
        except FileNotFoundError:
            recorded = {}
        for workload, runs in results["change"].items():
            for r in runs:
                recorded.setdefault(workload, {})[str(r["seed"])] = r["fingerprint"]
        with open(FINGERPRINTS, "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

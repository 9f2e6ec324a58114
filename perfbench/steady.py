#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one commit, alternated run by run.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]
    python3 perfbench/steady.py --overhead [--runs 3] [--workloads a,b]

Run from the repository root. For each workload it runs set A and set B
alternately (A1 B1 A2 B2 ...), each run with its own seed, through
perfbench/run.py. For every end-to-end metric of BENCHMARK.json it prints
each set's median and IQR share (quartile distance over the median, from
statistics.quantiles(n=4)), and whether the sets agree:

  * spread ok: each set's IQR share is within the metric's bound;
  * drift ok:  the two medians differ by at most the bound, as a share of
    the smaller one, in either direction;
  * the share of failed operations is identical in the two sets, and no
    run failed an output check.

Exits 1 if any check fails.

With --overhead it measures what tracing costs instead: for each workload
it runs an untraced and a traced run on the same seed, --runs times, and
prints each end-to-end metric's median over the untraced runs, over the
traced runs (from the traced report's detail.end_to_end), and their
difference as a share of the untraced median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    """Returns (final result line, full report) of one run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads("\n".join(lines[:-1]))


def iqr_share(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def steadiness(workloads, runs, seconds, metrics):
    ok = True
    print(f"{'workload':14} {'metric':22} {'median A':>12} {'median B':>12} "
          f"{'IQR A':>7} {'IQR B':>7} {'bound':>6}  verdict")
    for wi, workload in enumerate(workloads):
        sets = {"A": [], "B": []}
        for i in range(runs):
            for si, name in enumerate(sets):
                seed = 1000 * (wi + 1) + 2 * i + si
                sets[name].append(run_once(workload, seed, seconds)[0])
        shares = {n: {r["failed"] / r["attempted"] for r in rs}
                  for n, rs in sets.items()}
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            ok = False
            print(f"{workload:14} failed-operation shares differ: {shares}")
        incorrect = sum(not r["correct"] for rs in sets.values() for r in rs)
        if incorrect:
            ok = False
            print(f"{workload:14} {incorrect} runs with failed output checks")
        for name in sets["A"][0]["metrics"]:
            if name not in metrics:
                continue
            bound = metrics[name]["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            ia, ib = iqr_share(a), iqr_share(b)
            spread_ok = max(ia, ib) <= bound
            drift_ok = abs(mb - ma) <= bound * min(ma, mb)
            verdict = ("ok" if spread_ok and drift_ok else
                       ("SPREAD " if not spread_ok else "") +
                       ("DRIFT" if not drift_ok else ""))
            ok &= spread_ok and drift_ok
            print(f"{workload:14} {name:22} {ma:12.6g} {mb:12.6g} "
                  f"{ia:7.3f} {ib:7.3f} {bound:6.3f}  {verdict}")
    return ok


def overhead(workloads, runs, seconds, metrics):
    ok = True
    print(f"{'workload':14} {'metric':22} {'untraced':>12} {'traced':>12} "
          f"{'overhead':>9}")
    for wi, workload in enumerate(workloads):
        plain, traced = [], []
        for i in range(runs):
            seed = 5000 + 100 * wi + i
            plain.append(run_once(workload, seed, seconds, 0)[0])
            last, full = run_once(workload, seed, seconds, 1)
            ok &= plain[-1]["correct"] and last["correct"]
            traced.append(full["detail"]["end_to_end"])
        for name in plain[0]["metrics"]:
            if name not in metrics:
                continue
            u = statistics.median(r["metrics"][name]["value"] for r in plain)
            t = statistics.median(r[name] for r in traced)
            sign = 1 if metrics[name]["better"] == "lower" else -1
            print(f"{workload:14} {name:22} {u:12.6g} {t:12.6g} "
                  f"{100 * sign * (t - u) / u:8.1f}%")
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--overhead", action="store_true",
                    help="compare traced with untraced runs")
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    if args.overhead:
        ok = overhead(workloads, args.runs or 3, args.seconds, metrics)
    else:
        ok = steadiness(workloads, args.runs or 10, args.seconds, metrics)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

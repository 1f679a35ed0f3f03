#!/usr/bin/env python3
"""Run two sets of ten benchmark runs of every workload and report each
end-to-end metric's median, quartiles and spread against the bounds in
BENCHMARK.json.

Run from the repository root:

    python3 servebench/compare.py

Both sets use seeds 1-10, one run per seed, so the two sets differ only
by the host; within a set the spread covers both the seeds and the host.
The spread of a set is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). A metric passes when each set's spread
stays within its bound and the second set's median is not worse than the
first's by more than the bound. The share of failed operations must be
identical in both sets. Raw results go to .bench_build/compare/results.json.
"""

import json
import os
import statistics
import subprocess
import sys

SETS = 2
SEEDS = range(1, 11)


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect answers:\n" + "\n".join(lines[-20:]))
    return res


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = {}
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        sets = []
        for s in range(SETS):
            runs = []
            for seed in SEEDS:
                res = run_once(bench["command"], w, seed, bench["run_seconds"])
                runs.append(res)
                print(f"{w} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
            sets.append(runs)
        results[w] = sets
        print(f"\n{w}")
        print(f"  {'metric':24} {'set':>3} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, m in bounds.items():
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                sp = (q3 - q1) / med
                meds.append(med)
                verdict = "ok" if sp <= m["bound"] else "SPREAD TOO WIDE"
                if verdict == "ok" and sp > m["bound"] / 3:
                    verdict = "ok (above a third of the bound)"
                ok = ok and verdict.startswith("ok")
                print(f"  {name:24} {s + 1:>3} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.3f} {m['bound']:6.2f}  {verdict}")
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            verdict = "ok" if worse <= m["bound"] else "SECOND SET WORSE"
            ok = ok and verdict == "ok"
            print(f"  {name:24} {'2v1':>3} {worse:+12.3f} {'':12} {'':12} {'':8} {m['bound']:6.2f}  {verdict}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        same = len(set(shares)) == 1
        ok = ok and same
        print(f"  failed share per set: {shares} {'ok' if same else 'DIFFERENT'}")

    os.makedirs(".bench_build/compare", exist_ok=True)
    with open(".bench_build/compare/results.json", "w") as f:
        json.dump(results, f, indent=1)
    print("\nall within bounds" if ok else "\nSOME METRICS OUT OF BOUNDS")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

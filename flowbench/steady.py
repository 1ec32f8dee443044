#!/usr/bin/env python3
"""Steadiness check: two alternating sets of runs of one commit.

    python3 flowbench/steady.py

Each set makes RUNS runs of every workload, each with a seed of its
own; the sets take turns (A B, B A, ...) so slow drift of the machine
falls on both.  For every end-to-end metric on every workload it prints
each set's median and quartiles, the spread (q3 - q1) / median, and
whether the sets agree within the bounds in BENCHMARK.json: each set's
spread within the bound, the two medians apart by at most the bound
(either way), and equal shares of failed operations.  The pooled column
is the spread over both sets together.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5  # per set and workload
FIRST_SEED = 501


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    results = {(s, w): [] for s in "AB" for w in workloads}
    seed = FIRST_SEED
    for i in range(RUNS):
        for s in ("AB" if i % 2 == 0 else "BA"):
            for w in workloads:
                result = run_once(bench["command"], w, seed, bench["run_seconds"])
                results[s, w].append(result)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"set {s} run {i + 1} {w} seed {seed}: {values}", file=sys.stderr, flush=True)
                seed += 1

    agree_all = True
    print("| workload | metric | set A median [q1, q3] | A spread | set B median [q1, q3] | B spread "
          "| B vs A | pooled spread | bound | agree |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = {s: [r["metrics"][name]["value"] for r in results[s, w]] for s in "AB"}
            (ma, a1, a3, sa), (mb, b1, b3, sb) = summary(sets["A"]), summary(sets["B"])
            pooled = summary(sets["A"] + sets["B"])[3]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = abs(worse) <= bound and sa <= bound and sb <= bound
            agree_all &= ok
            print(f"| {w} | {name} ({m['unit']}) | {ma:.4g} [{a1:.4g}, {a3:.4g}] | {sa:.3f} "
                  f"| {mb:.4g} [{b1:.4g}, {b3:.4g}] | {sb:.3f} | {worse:+.3f} | {pooled:.3f} | {bound} "
                  f"| {'yes' if ok else 'NO'} |")
        shares = {s: {r["failed"] / r["attempted"] for r in results[s, w]} for s in "AB"}
        same = len(shares["A"] | shares["B"]) == 1
        correct = all(r["correct"] for s in "AB" for r in results[s, w])
        agree_all &= same and correct
        print(f"| {w} | failed share | {sorted(shares['A'])} | | {sorted(shares['B'])} | | | | exact "
              f"| {'yes' if same else 'NO'}{'' if correct else ' (a run was not correct)'} |")
    print(f"\nsets agree on every metric and workload: {'yes' if agree_all else 'NO'}")
    return 0 if agree_all else 1


if __name__ == "__main__":
    sys.exit(main())

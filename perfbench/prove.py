"""Steadiness check for the benchmark, and the recorder of perfbench/baseline.json.

    python3 perfbench/prove.py --workloads poincare-matrix --seeds 1-5
    python3 perfbench/prove.py --seeds 0-9 --trace --write-baseline

Runs run.py once per (workload, seed), one run at a time, and prints for
every end-to-end metric the spread between the first and third quartile
of the per-run values (Python's statistics.quantiles, n=4) as a share of
their median, next to the metric's bound from BENCHMARK.json.  A spread
above a third of its bound means the benchmark is not steady enough.
With --trace each workload also gets one traced run at its default seed.
--write-baseline stores the medians, quartiles, failure counts, per-layer
values and per-seed result digests in perfbench/baseline.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record: "))[len("record: "):])
    return record, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    path = os.path.join(HERE, "baseline.json")
    with open(path) as fh:
        baseline = json.load(fh)
    steady = True
    for w in args.workloads.split(","):
        runs = [(s, *_run(w, s, seconds, 0)) for s in _seeds(args.seeds)]
        summary = {}
        for m in bench["end_to_end"]:
            vals = [final["metrics"][m["name"]]["value"] for _, _, final in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            ok = spread <= m["bound"] / 3
            steady &= ok
            print(f"{w:16s} {m['name']:12s} median {med:10.4f} {m['unit']:4s} "
                  f"IQR/median {spread:6.3f}  bound {m['bound']:.2f}  {'ok' if ok else 'WIDE'}  "
                  f"values {', '.join(f'{v:.4g}' for v in vals)}")
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(vals), "unit": m["unit"]}
        for name, key in (("wall_s", "walls"), ("setup_s", "setups")):
            raw = [statistics.median(rec[key]) for _, rec, _ in runs]
            q1, _, q3 = statistics.quantiles(raw, n=4)
            print(f"{w:16s} {name:12s} measured (not speed-scaled) median {statistics.median(raw):.4f} s "
                  f"IQR/median {(q3 - q1) / statistics.median(raw):6.3f}")
        for s, rec, final in runs:
            print(f"{w:16s} seed {s}: failed {final['failed']}/{final['attempted']} "
                  f"correct={final['correct']} quality={rec['quality']}")
        if args.write_baseline:
            baseline.setdefault("untraced", {})[w] = {
                "seeds": [s for s, _, _ in runs], "metrics": summary,
                "failed": [final["failed"] for _, _, final in runs],
                "attempted": [final["attempted"] for _, _, final in runs],
                "quality": [rec["quality"] for _, rec, _ in runs]}
            digests = baseline.setdefault("digests", {}).setdefault(w, {})
            digests.update({str(s): rec["digest"] for s, rec, _ in runs})
        if args.trace:
            seed = WORKLOADS[w].default_seed
            rec, final = _run(w, seed, seconds, 1)
            print(f"{w:16s} traced seed {seed}: failed {final['failed']}/{final['attempted']} "
                  f"correct={final['correct']}")
            if args.write_baseline:
                baseline.setdefault("traced", {})[w] = {
                    "seed": seed, "failed": final["failed"], "attempted": final["attempted"],
                    "metrics": {k: v["value"] for k, v in final["metrics"].items()}}
                baseline["digests"].setdefault(w, {})[str(seed)] = rec["digest"]
    if args.write_baseline:
        with open(path, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "NOT steady: a spread exceeds a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""cocycle-lab benchmark: one workload per call, each in its own process.

    python3 perfbench/run.py --workload poincare-group --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all            # every workload, default seeds

Run from anywhere inside a checkout that has src/cocycle_lab; nothing is
built or installed, the package is imported from src/.  With --trace 0 the
end-to-end metrics of BENCHMARK.json are measured: setup_s over several
fresh processes (median), wall_s over the passes of one worker process
(median of max(2, ceil(--seconds / the workload's nominal pass length))
passes, a count that does not depend on the machine's speed) and that
worker's peak_rss_mb.  wall_s and setup_s are given at the reference
machine speed (perfbench/speed.py); the measured times are printed
beside them.  With --trace 1 a traced pass between two untraced ones
gives the per-layer metrics and the tracing overhead.  Every output is
checked; failed/attempted counts operations, and `correct` is false when
any check fails other than a known defect recorded in perfbench/spec.json
whose measured miss stays within the entry's max_deviation.
The last stdout line is the JSON result; lines before it are for people.
Exit status is non-zero, with no result line, when the benchmark itself
cannot run (no package to import, a worker crash or time-out).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 10         # set-up-only processes; the worker's own set-up is one more sample
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _load(name: str) -> dict:
    with open(name) as fh:
        return json.load(fh)


def _worker(workload: str, seed: int, mode: str, seconds: float = 0.0) -> dict:
    env = dict(os.environ, COCYCLE_LAB_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds), "--root", ROOT]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker exceeded {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(values: list) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _measure(workload: str, seed: int, seconds: float, trace: bool, bench: dict,
             spec: dict, baseline: dict) -> dict:
    if trace:
        out = _worker(workload, seed, "trace")
        metrics = {m["name"]: {"value": out["layers"][m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
        setups = [out["setup_s"]]
    else:
        # half the set-up probes before the worker and half after it, so that
        # they span the run and a slow drift in machine speed averages out
        probes = [_worker(workload, seed, "setup") for _ in range(SETUP_PROBES // 2)]
        out = _worker(workload, seed, "run", seconds)
        probes += [_worker(workload, seed, "setup") for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        setups = [p["setup_s"] for p in probes + [out]]
        setup_refs = [p["setup_ref_s"] for p in probes + [out]]
        walls = [p["wall_s"] for p in out["passes"]]
        refs = [p["ref_s"] for p in out["passes"]]
        values = {"wall_s": statistics.median(refs), "setup_s": statistics.median(setup_refs),
                  "peak_rss_mb": out["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    ops = [op for p in out["passes"] for op in p["ops"]] + out["extra_ops"]
    failures = [f for _, fs in ops for f in fs]
    limits = {d["check"]: d["max_deviation"] for d in spec["known_defects"] if d["workload"] == workload}
    known = [f for f in failures if f[0] in limits and f[1] is not None and f[1] <= limits[f[0]]]
    failed = sum(1 for _, fs in ops if fs)
    digest = out["passes"][0]["digest"]
    recorded = baseline.get("digests", {}).get(workload, {}).get(str(seed))

    print(f"== {workload}  seed={seed}  trace={int(trace)}")
    print("env: " + json.dumps(out["env"], sort_keys=True))
    if trace:
        for name, m in metrics.items():
            secs = out["layer_seconds"].get(name)
            print(f"  {name}: {m['value']:.6g} {m['unit']}" + ("" if secs is None else f" ({secs:.6g} s)"))
        print(f"  ({out['patched']} bindings traced over {out['scope_s']:.4g} s of set-up and pass; "
              f"spans in {out['trace_file']})")
    else:
        for name, ref, raw, n in (("wall_s", refs, walls, f"{len(walls)} passes"),
                                  ("setup_s", setup_refs, setups, f"{len(setups)} processes")):
            q1, med, q3 = _quartiles(ref)
            print(f"  {name}: median {med:.4f} s at reference speed, quartiles {q1:.4f} / {q3:.4f} s, "
                  f"n={n}; measured median {statistics.median(raw):.4f} s, quartiles "
                  f"{' / '.join(f'{q:.4f}' for q in _quartiles(raw)[::2])} s")
        print("  (too few samples for a tail percentile; medians are reported)")
        print(f"  peak_rss_mb: {out['peak_rss_mb']:.1f} MiB (worker process)")
        for name in out["passes"][0]["quality"]:
            value = statistics.median(p["quality"][name] for p in out["passes"])
            unit = "mean certified C_p" if name == "bound_quality" else "max relative SE"
            print(f"  {name}: {value:.6g} ({unit})")
    per_pass = len(out["passes"][0]["ops"])
    print(f"  error_rate: {failed}/{len(ops)} = {failed / len(ops):.4g} "
          f"({per_pass} operations per pass x {len(out['passes'])} passes + {len(out['extra_ops'])} "
          f"determinism/tracer checks)")
    for check in sorted({f[0] for f in failures}):
        devs = [dev for cid, dev in failures if cid == check]
        worst = max((d for d in devs if d is not None), default=None)
        tag = "known defect" if all(f in known for f in failures if f[0] == check) else "FAILED"
        print(f"  {tag}: {check} (x{len(devs)}"
              + ("" if worst is None else f", worst miss {worst:.3g}")
              + (f", known up to {limits[check]:g}" if check in limits else "") + ")")
    for check in sorted(set(limits) - {f[0] for f in failures}):
        print(f"  known defect no longer reproduces: {check}")
    same = all(p["digest"] == digest for p in out["passes"])
    print(f"  digest: {digest} ({len(out['passes'])} passes {'identical' if same else 'DIFFER'}); "
          f"seed-commit digest: {recorded or 'not recorded for this seed'}"
          + ("" if not recorded else " (match)" if recorded == digest else " (differs)"))
    print("record: " + json.dumps({"workload": workload, "seed": seed, "trace": int(trace),
                                   "digest": digest, "setups": setups,
                                   "walls": [p["wall_s"] for p in out["passes"]],
                                   "refs": [p["ref_s"] for p in out["passes"]],
                                   "quality": out["passes"][0]["quality"], "metrics": metrics}))
    return {"correct": len(known) == len(failures), "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, help="measure about this long, in passes of the "
                                                 "workload's nominal length (default: run_seconds "
                                                 "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "cocycle_lab", "__init__.py")):
            raise BenchError(f"no src/cocycle_lab package under {ROOT}")
        bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
        spec = _load(os.path.join(HERE, "spec.json"))
        baseline = _load(os.path.join(HERE, "baseline.json"))
        if {m["name"] for m in bench["per_layer"]} != set(spec["layers"]):
            raise BenchError("BENCHMARK.json per_layer and perfbench/spec.json layers disagree")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for w in names:
            seed = WORKLOADS[w].default_seed if args.seed is None else args.seed
            seconds = bench["run_seconds"] if args.seconds is None else args.seconds
            results[w] = _measure(w, seed, seconds, bool(args.trace), bench, spec, baseline)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

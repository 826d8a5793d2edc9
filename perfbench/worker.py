"""One workload in its own process: set-up, timed passes, checks, tracing.

Started by run.py, never by hand.  Prints one JSON object as its last
stdout line.  Modes:

  setup  import the package and build the workload's inputs, nothing else
  run    set up, then max(2, ceil(--seconds / pass_s)) untraced passes
         (at least two, so the determinism digest can be compared); the
         count is fixed by the workload's nominal pass length, not by the
         clock, so every run of a workload attempts the same operations
  trace  set up, one untraced pass, then the tracer is installed and a
         second set-up and pass run traced; the tracer is removed again
         and a last untraced pass runs

--spawned-at is the parent's CLOCK_MONOTONIC reading just before it
started this process, so setup_s covers interpreter start and import.
The set-up and the untraced passes of run mode are also given at the
reference machine speed (speed.py); the passes of trace mode are timed
raw only, so that no probe lands inside a traced call.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types

import speed
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
LAYER_MODULES = ("algebra", "cli", "cocycles", "criterion", "dilation", "families",
                 "groups", "linalg", "matrixalg", "poincare", "rng")


def _import_lab(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cocycle_lab
    where = os.path.realpath(cocycle_lab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: imported cocycle_lab from {where}, not from {src}")
    mods = {m: importlib.import_module(f"cocycle_lab.{m}") for m in LAYER_MODULES}
    return cocycle_lab, types.SimpleNamespace(**mods)


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "COCYCLE_LAB_THREADS": os.environ.get("COCYCLE_LAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _assess(workload, state, result, wall: float, ref=None) -> dict:
    """Check, digest and rate one pass's outputs (untimed), then drop its files."""
    try:
        ops = [[op.name, op.failures] for op in workload.check(state, result)]
    except Exception as exc:
        ops = [["checks", [[f"checks raised {type(exc).__name__}: {exc}", None]]]]
    out = {"wall_s": wall, "ref_s": ref, "ops": ops, "digest": _digest(workload.canonical(state, result)),
           "quality": workload.quality(state, result)}
    cleanup = getattr(workload, "cleanup", None)
    if cleanup:
        cleanup(state, result)
    return out


def _timed_pass(workload, state, sampled: bool = True) -> dict:
    """One pass; timed raw, and also at the reference speed unless `sampled` is false."""
    if not sampled:
        t0 = time.perf_counter()
        result = workload.run(state)
        return _assess(workload, state, result, time.perf_counter() - t0)
    with speed.Sampler() as sampler:
        result = workload.run(state)
    return _assess(workload, state, result, sampler.raw_s, sampler.scaled_s)


def _determinism_ops(passes: list) -> list:
    first = passes[0]["digest"]
    return [[f"determinism: pass {i + 1} digest equals pass 1",
             [] if p["digest"] == first else [[f"pass {i + 1} digest {p['digest'][:16]} != {first[:16]}", None]]]
            for i, p in enumerate(passes[1:], start=1)]


def _observers() -> dict:
    def samples(name):
        def obs(args, kwargs, result, c):
            lo = args[1] if len(args) > 1 else kwargs["lo"]
            hi = args[2] if len(args) > 2 else kwargs["hi"]
            c[name] = c.get(name, 0) + (hi - lo)
        return obs

    def gap(get):
        def obs(args, kwargs, result, c):
            c["poincare.optimizer_gap.max"] = max(c.get("poincare.optimizer_gap.max", 0.0), float(get(result)))
        return obs

    def matrices(args, kwargs, result, c):
        import numpy as np
        shape = np.shape(args[0] if args else kwargs["mats"])
        c["linalg.schatten_pow_batch.matrices"] = c.get("linalg.schatten_pow_batch.matrices", 0) + \
            int(np.prod(shape[:-2]))

    def replays(args, kwargs, result, c):
        argv = args[0] if args else kwargs.get("argv")
        if argv and argv[0] == "replay":
            c["cli.replay.calls"] = c.get("cli.replay.calls", 0) + 1

    return {
        "linalg.schatten_pow_batch": matrices,
        "dilation.BrownianScenario.increments": samples("dilation.increments.samples"),
        "dilation.BrownianScenario.increments_copy": samples("dilation.increments_copy.samples"),
        "poincare.worst_constant": gap(lambda r: r.optimizer_gap),
        "matrixalg.matrix_worst_constant": gap(lambda r: r[2]),
        "cli.main": replays,
    }


def _layer_metrics(layers: dict, tracer: Tracer, scope_s: float, derived: dict,
                   quality: dict) -> tuple[dict, dict]:
    """Per-layer values, and the self seconds behind each self-time share.

    Self time is reported as a share of the traced scope (set-up plus
    pass): an idle layer then reads 0 as a ratio rather than as a time.
    """
    out, seconds = {}, {}
    for metric, spec in layers.items():
        field = spec["field"]
        if field == "calls":
            out[metric] = sum(tracer.calls(s) for s in spec["from"])
        elif field == "self_s":
            seconds[metric] = sum(tracer.self_s(s) for s in spec["from"])
            out[metric] = seconds[metric] / scope_s
        elif field == "counter":
            out[metric] = tracer.counters.get(metric, 0)
        elif field == "derived":
            out[metric] = derived[metric]
        else:
            out[metric] = quality.get(metric, 0.0)
    return out, seconds


def _trace(workload, state, lab_pkg, lab, args, layers: dict, work_dir: str) -> dict:
    """An untraced pass, the traced set-up and pass, and a second untraced pass.

    trace.overhead_s is the traced pass minus the median (here: the mean)
    of the two untraced passes around it, so a drift in machine speed over
    the run cancels to first order.  Where the overhead is smaller than the
    pass-to-pass noise (dilation-report) the figure is noise and may read
    below zero.
    """
    before = _timed_pass(workload, state, sampled=False)
    aliases = {id(fn): f"cli.runner.{cmd}" for cmd, fn in lab.cli._RUNNERS.items()}
    tracer = Tracer(lab_pkg, aliases=aliases, observers=_observers())
    tracer.install()
    patched = tracer.patched
    try:
        t_scope = time.perf_counter()
        traced_state = workload.setup(lab, args.seed, os.path.join(work_dir, "traced"))
        t0 = time.perf_counter()
        result = workload.run(traced_state)
        traced_wall = time.perf_counter() - t0
        scope_s = time.perf_counter() - t_scope
    finally:
        unrestored = tracer.uninstall()
    if hasattr(workload, "report_bytes"):
        tracer.counters["cli.report_bytes"] = workload.report_bytes(result)
    traced = _assess(workload, traced_state, result, traced_wall)
    after = _timed_pass(workload, state, sampled=False)
    plain_wall = statistics.median([before["wall_s"], after["wall_s"]])

    evals = tracer.calls("poincare.poincare_ratio") + tracer.calls("matrixalg.matrix_poincare_ratio")
    consts = tracer.calls("poincare.worst_constant") + tracer.calls("matrixalg.matrix_worst_constant")
    regen = tracer.counters.get("dilation.increments.samples", 0) + \
        tracer.counters.get("dilation.increments_copy.samples", 0)
    min_regen = 2 * getattr(workload, "samples", 0)
    derived = {
        "poincare.evals_per_constant": evals / consts if consts else 0.0,
        "dilation.regen_ratio": regen / min_regen if min_regen else 0.0,
        "trace.overhead_s": traced_wall - plain_wall,
    }
    metrics, seconds = _layer_metrics(layers, tracer, scope_s, derived, traced["quality"])

    selftest = [[f"tracer: {m} recorded calls on its main workload",
                 [] if sum(tracer.calls(s) for s in spec["from"]) > 0 else [[f"{m}: no calls recorded", None]]]
                for m, spec in layers.items() if workload.name in spec["main"] and spec["from"]]
    selftest.append(["tracer: every patched name is the original again",
                     [[f"not restored: {n}", None] for n in unrestored] if patched
                     else [["tracer patched nothing", None]]])

    out_dir = os.path.join(args.root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    trace_file = os.path.join(out_dir, f"trace-{workload.name}-seed{args.seed}.json")
    with open(trace_file, "w") as fh:
        json.dump(tracer.dump(), fh)
    passes = [before, traced, after]
    return {"passes": passes, "extra_ops": _determinism_ops(passes) + selftest,
            "layers": metrics, "layer_seconds": seconds, "scope_s": scope_s, "patched": patched,
            "trace_file": os.path.relpath(trace_file, args.root)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args()

    # numpy, scipy and cocycle_lab load under the speed probe; the time from
    # spawn to here (interpreter start, stdlib imports) counts at its first reading.
    setup = speed.Sampler(speed.loop_probe, speed.LOOP_PROBE_REF_S, period=0.05)
    setup.start(since=args.spawned_at)
    from workloads import WORKLOADS
    lab_pkg, lab = _import_lab(args.root)
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(args.root, ".perfbench-work", f"{workload.name}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        state = workload.setup(lab, args.seed, work_dir)
        setup.stop()
        out = {"setup_s": setup.raw_s, "setup_ref_s": setup.scaled_s}
        if args.mode == "run":
            count = max(2, math.ceil(args.seconds / workload.pass_s))
            passes = [_timed_pass(workload, state) for _ in range(count)]
            out.update(passes=passes, extra_ops=_determinism_ops(passes))
        elif args.mode == "trace":
            with open(os.path.join(HERE, "spec.json")) as fh:
                layers = json.load(fh)["layers"]
            out.update(_trace(workload, state, lab_pkg, lab, args, layers, work_dir))
        if args.mode != "setup":
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["env"] = _environment(args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

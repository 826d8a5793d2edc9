"""The four benchmark workloads: set-up, one timed pass, output checks.

Each workload is a closed loop with one caller: a pass is a fixed
sequence of library (or CLI) calls issued one after the other, and the
next pass starts only when the previous one has returned.  `setup`
builds everything a user builds before the first call (family,
semigroup, superoperator, cocycle, scenario); `run` is the timed pass;
`check` re-derives every output through an independent route that the
library already has and returns one `Op` per operation, failed when the
call raised or any of its checks failed.  `pass_s` is the pass length
at the reference machine speed on the seed commit; a run makes
max(2, ceil(seconds / pass_s)) passes, so the number of operations (and
of failures) in a run does not depend on how fast the machine is.

Library functions are always looked up as module attributes at call
time, so a tracer that rebinds them sees these calls too.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

P_GRID = (2.0, 4.0, 6.0, 8.0, 12.0, 16.0)
BUDGET = 20000
DILATION_PS = (2.0, 4.0, 8.0)
DILATION_X = (0.0, 1.0, 0.7, 0.3j)
CLI_FAMILIES = ("walsh:2:8", "wordlength:256", "heisenberg-wordlength:7")
CLI_COMMANDS = (("alpha", "--method", "both"), ("realize",), ("cn-check",))
ALPHA_TOL = 1e-8           # pencil vs bisection, and vs the closed form alpha* = 1
RESIDUAL_TOL = 1e-9        # realize residuals
ORACLE_TOL = 1e-4          # C_2 against the exact L_2 constant
MAX_SLOPE = 0.6            # growth exponent of C_p must stay subgaussian
RESCORE_RTOL = 1e-12       # witness re-scored on the reference ratio path


@dataclass
class Op:
    name: str
    failures: list = field(default_factory=list)   # [check id, deviation or None] of failed checks


def _op(name: str, checks) -> Op:
    """checks are (id, ok) or (id, ok, deviation): the measured miss behind a tolerance check."""
    return Op(name, [[f"{name}: {c[0]}", c[2] if len(c) > 2 else None] for c in checks if not c[1]])


def _attempt(fn, *args, **kwargs):
    """(value, None), or (None, error text) when the call raises: a failed operation."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:
        return None, f"raised {type(exc).__name__}: {exc}"


def _num(x) -> list:
    """JSON-exact encoding of real or complex arrays: floats as [re, im] pairs."""
    a = np.asarray(x)
    return np.stack([a.real, a.imag], axis=-1).tolist()


# ------------------------------------------------------------- Poincare

def _poincare_check(result, rescore, c2_exact) -> list:
    report, error = result
    if error:
        return [_op(f"C_p at p={p:g}", [(error, False)]) for p in P_GRID] + \
            [_op("growth fit", [(error, False)])]
    ops = []
    for p, c, w in zip(report.p_grid, report.constants, report.witnesses):
        again = rescore(w, p)
        checks = [("witness re-scored equals C_p", abs(again - c) <= RESCORE_RTOL * abs(c))]
        if p == 2.0:
            checks.append(("C_2 equals the exact L_2 constant", abs(c - c2_exact) <= ORACLE_TOL))
        ops.append(_op(f"C_p at p={p:g}", checks))
    ops.append(_op("growth fit", [(f"slope <= {MAX_SLOPE}", report.slope <= MAX_SLOPE)]))
    return ops


def _poincare_canonical(result, witness_coeffs) -> dict:
    report, error = result
    if error:
        return {"error": error}
    return {"p_grid": list(report.p_grid), "constants": list(report.constants),
            "slope": report.slope, "slope_stderr": report.slope_stderr,
            "fit_residual": report.fit_residual,
            "witnesses": [_num(witness_coeffs(w)) for w in report.witnesses]}


def _bound_quality(result) -> dict:
    report, error = result
    return {"bound_quality": 0.0 if error else float(np.mean(report.constants))}


class PoincareGroup:
    name = "poincare-group"
    default_seed = 0
    pass_s = 11.6

    def setup(self, lab, seed, work_dir):
        sg = lab.algebra.Semigroup(lab.families.builtin_length("walsh:2:3"))
        return {"lab": lab, "sg": sg, "seed": seed}

    def run(self, st):
        return _attempt(st["lab"].poincare.sweep_and_fit, st["sg"], P_GRID,
                        budget=BUDGET, seed=st["seed"])

    def check(self, st, result):
        lab, sg = st["lab"], st["sg"]
        return _poincare_check(result, lambda w, p: lab.poincare.poincare_ratio(sg, w, p),
                               lab.poincare.l2_oracle(sg))

    def canonical(self, st, result):
        return _poincare_canonical(result, lambda w: w.coeffs)

    def quality(self, st, result):
        return _bound_quality(result)


class PoincareMatrix:
    name = "poincare-matrix"
    default_seed = 0
    pass_s = 8.3

    def setup(self, lab, seed, work_dir):
        return {"lab": lab, "A": lab.matrixalg.heisenberg_multiplier(2, "delta"), "seed": seed}

    def run(self, st):
        return _attempt(st["lab"].matrixalg.matrix_poincare, st["A"], P_GRID,
                        budget=BUDGET, seed=st["seed"])

    def check(self, st, result):
        lab, A = st["lab"], st["A"]
        # exact L_2 constant of a self-adjoint generator: (spectral gap)^(-1/2)
        return _poincare_check(result, lambda w, p: lab.matrixalg.matrix_poincare_ratio(A, w, p),
                               A.min_positive_eig() ** -0.5)

    def canonical(self, st, result):
        return _poincare_canonical(result, lambda w: w)

    def quality(self, st, result):
        return _bound_quality(result)


# ------------------------------------------------------------- dilation

class DilationReport:
    name = "dilation-report"
    default_seed = 11
    pass_s = 14.2
    samples, steps, L = 4096, 64, 2.0

    def setup(self, lab, seed, work_dir):
        psi = lab.families.builtin_length("walsh:2:2")
        K = lab.cocycles.gromov_form(psi)
        real = lab.cocycles.realize_cocycle(K)
        scenario = lab.dilation.sample_scenario(real, self.steps, self.L / self.steps,
                                                self.samples, seed)
        return {"lab": lab, "x": lab.algebra.element(psi.group, list(DILATION_X)),
                "scenario": scenario, "cert": lab.criterion.best_alpha_pencil(K)}

    def run(self, st):
        rep = st["lab"].dilation.inequality_report
        return [(p, *_attempt(rep, st["x"], st["scenario"], self.L, p, alpha_cert=st["cert"]))
                for p in DILATION_PS]

    def check(self, st, result):
        ito = st["lab"].dilation.transform_l2_analytic(st["x"], st["scenario"], self.L)
        ops = []
        for p, r, error in result:
            if error:
                ops.append(_op(f"inequality_report at p={p:g}", [(error, False)]))
                continue
            bb = r.bracket_bound
            checks = [
                ("Ito MC within 5 SE of the analytic isometry",
                 abs(r.ito_mc.mean - ito) <= 5.0 * r.ito_mc.se),
                ("bdg_ratio <= 2", r.bdg_ratio <= 2.0),
                ("bracket slack >= -5 SE", bb is not None and bb.slack >= -5.0 * bb.se),
            ]
            if r.p == 4.0:
                checks.append(("decoupling ratio <= 4 + 3 SE",
                               r.decoupling_ratio <= 4.0 + 3.0 * r.decoupling_se))
            ops.append(_op(f"inequality_report at p={r.p:g}", checks))
        return ops

    def canonical(self, st, result):
        return [error or dataclasses.asdict(r) for _, r, error in result]

    def quality(self, st, result):
        rel = [ms.se / ms.mean for _, r, error in result if not error
               for ms in (r.transform_norm, r.decoupled_norm, r.hc, r.hr, r.hd, r.ito_mc)]
        return {"mc_rel_se": float(max(rel, default=0.0))}


# ------------------------------------------------------------------ CLI

def _cli_call(lab, argv):
    """cli.main(argv) with its output captured: (exit code or error text, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc, error = _attempt(lab.cli.main, list(argv))
    return error or rc, out.getvalue()


def _alpha_checks(report: dict, prefix: str = "") -> list:
    """alpha* = 1 exactly on even cyclic word lengths; elsewhere the two solvers agree."""
    spec = report["config"]["psi"]["builtin"]
    res = report["results"]
    pencil, bisect = res["alpha_star"], res["bisection"]["alpha_star"]
    kind, *args = spec.split(":")
    if kind == "wordlength" and int(args[0]) % 2 == 0:
        return [(f"{prefix}{name} alpha* within {ALPHA_TOL:g} of the closed form 1",
                 abs(a - 1.0) <= ALPHA_TOL, abs(a - 1.0))
                for name, a in (("pencil", pencil), ("bisection", bisect))]
    return [(f"{prefix}pencil and bisection agree within {ALPHA_TOL:g}",
             abs(pencil - bisect) <= ALPHA_TOL, abs(pencil - bisect))]


class CliRoundtrip:
    """alpha/realize/cn-check reports, the gallery, then a replay of every report."""
    name = "cli-roundtrip"
    default_seed = 0
    pass_s = 4.4

    def setup(self, lab, seed, work_dir):
        return {"lab": lab, "seed": seed, "root": work_dir, "pass": 0}

    def run(self, st):
        lab = st["lab"]
        st["pass"] += 1
        out = os.path.join(st["root"], f"pass{st['pass']}")
        os.makedirs(out)
        writes = []
        for fam in CLI_FAMILIES:
            for cmd in CLI_COMMANDS:
                path = os.path.join(out, f"{cmd[0]}_{fam.replace(':', '_')}.json")
                rc, text = _cli_call(lab, [*cmd, "--builtin", fam, "--out", path])
                writes.append((cmd[0], fam, path, rc, text))
        gallery = _cli_call(lab, ["gallery", "--out-dir", out, "--seed", str(st["seed"])])
        replays = []
        for name in sorted(os.listdir(out)):
            rc, text = _cli_call(lab, ["replay", "--report", os.path.join(out, name)])
            replays.append((name, rc, text))
        return {"dir": out, "writes": writes, "gallery": gallery, "replays": replays}

    def check(self, st, result):
        ops = []
        for cmd, fam, path, rc, text in result["writes"]:
            checks = [("exit code 0", rc == 0)]
            if rc == 0:
                report = _load(path)
                res = report["results"]
                if cmd == "alpha":
                    checks += _alpha_checks(report)
                elif cmd == "realize":
                    checks += [(f"psi residual <= {RESIDUAL_TOL:g}", res["psi_residual"] <= RESIDUAL_TOL),
                               (f"gram residual <= {RESIDUAL_TOL:g}", res["gram_residual"] <= RESIDUAL_TOL)]
                elif cmd == "cn-check":
                    checks.append(("verdict is conditionally negative", res["verdict"] is True))
            ops.append(_op(f"{cmd} {fam}", checks))
        rc, _ = result["gallery"]
        checks = [("exit code 0", rc == 0)]
        if rc == 0:
            summary = _load(os.path.join(result["dir"], "summary.json"))
            written = {os.path.basename(w[2]) for w in result["writes"]} | {"summary.json"}
            gallery_files = [n for n, _, _ in result["replays"] if n not in written]
            checks.append(("one report per summary row",
                           summary["results"]["row_count"] == len(gallery_files)))
            for n in gallery_files:
                report = _load(os.path.join(result["dir"], n))
                if report["command"] == "alpha":
                    checks += _alpha_checks(report, f"{report['config']['psi']['builtin']}: ")
        ops.append(_op("gallery", checks))
        for name, rc, text in result["replays"]:
            ops.append(_op(f"replay {name}", [("byte-identical", rc == 0 and "byte-identical" in text)]))
        return ops

    def canonical(self, st, result):
        out = {}
        for name in sorted(os.listdir(result["dir"])):
            with open(os.path.join(result["dir"], name), "rb") as fh:
                out[name] = fh.read().decode()
        return out

    def report_bytes(self, result) -> int:
        return sum(os.path.getsize(os.path.join(result["dir"], n)) for n in os.listdir(result["dir"]))

    def cleanup(self, st, result):
        shutil.rmtree(result["dir"], ignore_errors=True)

    def quality(self, st, result):
        return {}


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (PoincareGroup(), PoincareMatrix(), DilationReport(), CliRoundtrip())}

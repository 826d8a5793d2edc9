"""Command-line front end and reproducibility harness.

Every subcommand resolves its inputs into a plain JSON-serializable
config, runs a pure function of that config, and emits a report

    {command, config, inputs_digest, seed, tool_version, results}

where inputs_digest is the sha256 of the canonical (sorted, compact)
config encoding.  `replay` re-runs the embedded config and fails hard
unless the regenerated report is byte-identical.  Complex numbers are
encoded as [re, im] pairs; CSV output always uses the dot decimal.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__, rng
from .algebra import AlgebraElement, Semigroup, element, gamma, gamma2, tau
from .cocycles import (gromov_form, is_conditionally_negative, length_function,
                       realize_cocycle, verify_schur_identity)
from .criterion import best_alpha_bisection, best_alpha_pencil
from .dilation import inequality_report, sample_scenario
from .families import builtin_length
from .groups import build_from_spec, group_to_dict, load_group, save_group
from .matrixalg import (heisenberg_multiplier, lindblad_generator,
                        matrix_poincare, superop_gamma, superop_gamma2)
from .poincare import sweep_and_fit


# ---------------------------------------------------------------- encoding

def _cplx(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _cplx_array(a: np.ndarray) -> list:
    a = np.asarray(a)
    if a.ndim == 0:
        return _cplx(a[()])
    return [_cplx_array(row) for row in a]


def _real_array(a: np.ndarray) -> list:
    return np.asarray(a, dtype=float).tolist()


def _canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _digest(config: dict) -> str:
    return hashlib.sha256(_canonical(config).encode()).hexdigest()


def _report_text(command: str, config: dict, results: dict,
                 seed: Optional[int]) -> str:
    report = {
        "command": command,
        "config": config,
        "inputs_digest": _digest(config),
        "seed": seed,
        "tool_version": __version__,
        "results": results,
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------- config resolution

def _group_spec_from_file(path: str) -> dict:
    g = load_group(path)
    spec = {"kind": "table"}
    spec.update(group_to_dict(g))
    return spec


def _psi_config_from_args(args) -> dict:
    """Resolve --psi/--builtin (and --group when present) into a pure config."""
    if getattr(args, "builtin", None):
        if getattr(args, "psi", None):
            raise ValueError("give either --psi or --builtin, not both")
        return {"builtin": args.builtin}
    if not getattr(args, "psi", None):
        raise ValueError("a length function is required: --psi FILE or --builtin NAME")
    with open(args.psi) as fh:
        data = json.load(fh)
    if isinstance(data, list):
        data = {"psi": data}
    if "psi" not in data:
        raise ValueError(f"{args.psi} has no 'psi' field")
    if getattr(args, "group", None):
        gspec = _group_spec_from_file(args.group)
    elif "group" in data:
        gsrc = data["group"]
        gspec = _group_spec_from_file(gsrc) if isinstance(gsrc, str) else dict(gsrc)
    else:
        raise ValueError("no group given: add --group FILE or a 'group' field to the psi JSON")
    return {"group": gspec, "values": [float(v) for v in data["psi"]]}


def _psi_from_config(cfg: dict):
    if "builtin" in cfg:
        return builtin_length(cfg["builtin"])
    group = build_from_spec(cfg["group"])
    return length_function(group, cfg["values"])


def _coeffs_from_file(path: str) -> list:
    with open(path) as fh:
        data = json.load(fh)
    coeffs = data["coeffs"] if isinstance(data, dict) else data
    out = []
    for c in coeffs:
        if isinstance(c, (list, tuple)):
            out.append([float(c[0]), float(c[1])])
        else:
            out.append([float(c), 0.0])
    return out


def _element_from_config(group, coeffs: list) -> AlgebraElement:
    return element(group, [complex(re, im) for re, im in coeffs])


def _parse_pgrid(text: str) -> list:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"bad p grid {text!r}: expected comma-separated numbers") from None


# ---------------------------------------------------------------- runners
# Each runner is a pure function config -> results so that replay can
# re-execute reports without re-parsing argv.

def run_group(config: dict) -> dict:
    group = build_from_spec(config["spec"])
    return {
        "order": group.order,
        "abelian": bool(group.is_abelian()),
        "group": group_to_dict(group),
    }


def run_cn_check(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    verdict = is_conditionally_negative(psi, tol=config.get("tol", 1e-9))
    return {"verdict": bool(verdict.verdict), "min_eig": float(verdict.min_eig)}


def run_realize(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    K = gromov_form(psi)
    real = realize_cocycle(K)
    psi_resid = float(np.abs(real.psi - psi.values).max())
    gram_resid = float(np.abs(real.vectors @ real.vectors.T - K.K).max())
    return {
        "dimension": real.dimension,
        "psi_residual": psi_resid,
        "gram_residual": gram_resid,
        "vectors": _real_array(real.vectors),
    }


def run_schur(config: dict) -> dict:
    psi = _psi_from_config(config["psi"]) if config.get("psi") else None
    rep = verify_schur_identity(config["n"], psi)
    return {"residual": float(rep.residual), "terms": rep.terms}


def run_alpha(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    K = gromov_form(psi)
    method = config.get("method", "pencil")
    cert = best_alpha_bisection(K) if method == "bisect" else best_alpha_pencil(K)
    out = {"alpha_star": cert.alpha_star, "method": cert.method,
           "min_eig_at_alpha": cert.residual}
    if method == "both":
        bi = best_alpha_bisection(K)
        out["bisection"] = {"alpha_star": bi.alpha_star,
                            "min_eig_at_alpha": bi.residual}
        out["method_agreement"] = abs(cert.alpha_star - bi.alpha_star)
    return out


def run_gamma(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    sg = Semigroup(psi)
    f = _element_from_config(psi.group, config["f"])
    g = _element_from_config(psi.group, config["g"]) if config.get("g") else f
    out = {}
    for name, fn in (("gamma", gamma), ("gamma2", gamma2)):
        kern = fn(sg, f, g, path="kernel")
        defn = fn(sg, f, g, path="definitional")
        out[name] = _cplx_array(kern.coeffs)
        out[f"{name}_path_deviation"] = float(np.abs(kern.coeffs - defn.coeffs).max())
    out["tau_gamma"] = _cplx(tau(gamma(sg, f, g)))
    return out


def _poincare_results(report) -> dict:
    return {
        "p_grid": list(report.p_grid),
        "constants": list(report.constants),
        "slope": report.slope,
        "slope_stderr": report.slope_stderr,
        "fit_residual": report.fit_residual,
        "alpha_used": report.alpha_used,
        "envelope": list(report.envelope) if report.envelope is not None else None,
        "witnesses": [_cplx_array(np.asarray(w.coeffs if hasattr(w, "coeffs") else w))
                      for w in report.witnesses],
    }


def run_poincare(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    sg = Semigroup(psi)
    cert = best_alpha_pencil(sg.gromov) if config.get("alpha") else None
    report = sweep_and_fit(sg, config["p"], budget=config["budget"],
                           seed=config["seed"], alpha_cert=cert)
    return _poincare_results(report)


def run_matrix(config: dict) -> dict:
    A = heisenberg_multiplier(config["n"], config["mode"])
    out = {"n": A.n, "mode": config["mode"]}
    if config.get("alpha_check") is not None:
        alpha = float(config["alpha_check"])
        worst = np.inf
        n = A.n
        for i in range(config.get("alpha_samples", 200)):
            st = rng.stream(config["seed"], rng.TAG_BATTERY, i)
            x = st.standard_normal((n, n)) + 1j * st.standard_normal((n, n))
            x /= np.linalg.norm(x)
            form = superop_gamma2(A, x, x) - alpha * superop_gamma(A, x, x)
            worst = min(worst, float(np.linalg.eigvalsh(0.5 * (form + form.conj().T))[0]))
        out["alpha_check"] = {
            "alpha": alpha,
            "worst_min_eig": worst,
            "passed": bool(worst >= -1e-9),
            "samples": config.get("alpha_samples", 200),
        }
    return _generator_results(A, config, out)


def run_lindblad(config: dict) -> dict:
    mats = [np.array([[complex(re, im) for re, im in row] for row in m])
            for m in config["a"]]
    A = lindblad_generator(mats)
    resid = 0.0
    for i in range(20):
        st = rng.stream(config["seed"], rng.TAG_BATTERY, i)
        x = st.standard_normal((A.n, A.n)) + 1j * st.standard_normal((A.n, A.n))
        direct = sum((m @ x - x @ m).conj().T @ (m @ x - x @ m) for m in mats)
        resid = max(resid, float(np.abs(superop_gamma(A, x, x) - direct).max()))
    return _generator_results(A, config, {"n": A.n, "family_size": len(mats),
                                          "gamma_oracle_residual": resid})


def _generator_results(A, config: dict, out: dict) -> dict:
    """out plus the fixed-point dimension, the spectral gap and an optional Poincare sweep."""
    out.update(fix_dimension=A.fix_dimension(), spectral_gap=A.min_positive_eig())
    if config.get("p"):
        report = matrix_poincare(A, config["p"], budget=config["budget"],
                                 seed=config["seed"])
        out["poincare"] = _poincare_results(report)
    return out


def _mean_se_dict(ms) -> dict:
    return {"mean": ms.mean, "se": ms.se}


def run_dilate(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    K = gromov_form(psi)
    real = realize_cocycle(K)
    x = _element_from_config(psi.group, config["x"])
    scenario = sample_scenario(real, config["steps"],
                               config["L"] / config["steps"],
                               config["samples"], config["seed"])
    cert = best_alpha_pencil(K) if config.get("alpha") else None
    rep = inequality_report(x, scenario, config["L"], config["p"], alpha_cert=cert)
    out = {
        "p": rep.p,
        "L": config["L"],
        "steps": config["steps"],
        "samples": config["samples"],
        "cocycle_dimension": real.dimension,
        "transform_norm": _mean_se_dict(rep.transform_norm),
        "decoupled_norm": _mean_se_dict(rep.decoupled_norm),
        "decoupling_ratio": rep.decoupling_ratio,
        "decoupling_se": rep.decoupling_se,
        "hc": _mean_se_dict(rep.hc),
        "hr": _mean_se_dict(rep.hr),
        "hd": _mean_se_dict(rep.hd),
        "bdg_ratio": rep.bdg_ratio,
        "ito_mc": _mean_se_dict(rep.ito_mc),
        "ito_analytic": rep.ito_analytic,
        "bracket_bound": None,
    }
    if rep.bracket_bound is not None:
        bb = rep.bracket_bound
        out["bracket_bound"] = {"bound": bb.bound, "max_bracket": bb.max_bracket,
                                "slack": bb.slack, "se": bb.se}
    if cert is not None:
        out["alpha_star"] = cert.alpha_star
    return out


# ---------------------------------------------------------------- gallery

def _gallery_entries(seed: int) -> list:
    entries = []
    for n in (2, 3, 4):
        for m in (1, 2, 3):
            entries.append((f"walsh_n{n}_m{m}", "alpha",
                            {"psi": {"builtin": f"walsh:{n}:{m}"}, "method": "both"}))
    for n in (2, 3, 4):
        for mode in ("delta", "wordlength"):
            entries.append((f"heisenberg_{mode}_n{n}", "alpha",
                            {"psi": {"builtin": f"heisenberg-{mode}:{n}"}, "method": "both"}))
    for n in range(4, 17):
        entries.append((f"wordlength_n{n}", "alpha",
                        {"psi": {"builtin": f"wordlength:{n}"}, "method": "both"}))
    for n in range(4, 17, 2):
        entries.append((f"schur_n{n}", "schur-identity", {"n": n, "psi": None}))
    entries.append(("lindblad_2x2", "lindblad",
                    {"a": [_cplx_array(np.diag([0.0, 1.0]))], "p": None,
                     "budget": 0, "seed": seed}))
    entries.append(("lindblad_4x4", "lindblad",
                    {"a": [_cplx_array(np.diag([0.0, 1.0, 1.0, 0.0])),
                           _cplx_array(np.diag([0.0, 0.0, 1.0, 1.0]))],
                     "p": None, "budget": 0, "seed": seed}))
    return entries


def _summary_row(name: str, command: str, results: dict) -> dict:
    row = {"name": name, "command": command}
    for key in ("alpha_star", "residual", "spectral_gap", "verdict"):
        if key in results:
            row[key] = results[key]
    return row


def run_gallery(config: dict, out_dir: Optional[str] = None) -> dict:
    seed = config["seed"]
    rows = []
    for name, command, sub in _gallery_entries(seed):
        results = _RUNNERS[command](sub)
        if out_dir:
            _emit(_report_text(command, sub, results, seed),
                  os.path.join(out_dir, f"{name}.json"))
        rows.append(_summary_row(name, command, results))
    return {"rows": rows, "row_count": len(rows)}


_RUNNERS = {
    "group": run_group,
    "cn-check": run_cn_check,
    "realize": run_realize,
    "schur-identity": run_schur,
    "alpha": run_alpha,
    "gamma": run_gamma,
    "poincare": run_poincare,
    "matrix": run_matrix,
    "lindblad": run_lindblad,
    "dilate": run_dilate,
    "gallery": run_gallery,
}


# ------------------------------------------------------------ subcommands

def _add_psi_flags(sp, group_flag: bool = False) -> None:
    sp.add_argument("--psi", help="length function JSON {'group': path-or-spec, 'psi': [...]}")
    sp.add_argument("--builtin", help="builtin family, e.g. walsh:2:3, wordlength:8, "
                                      "heisenberg-delta:2")
    if group_flag:
        sp.add_argument("--group", help="group JSON file; overrides the psi file's group")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cocycle-lab",
                                 description="cocycle machinery on finite groups")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("group", help="build and save a group table")
    gsub = sp.add_subparsers(dest="group_command", required=True)
    gb = gsub.add_parser("build", help="build a group and write its JSON table")
    gb.add_argument("--kind", required=True,
                    choices=["cyclic", "product", "heisenberg", "table"])
    gb.add_argument("--n", type=int, help="cyclic/product/heisenberg size parameter")
    gb.add_argument("--m", type=int, default=1, help="number of product factors")
    gb.add_argument("--path", help="input table JSON (kind=table)")
    gb.add_argument("--out", required=True, help="output group JSON")

    sp = sub.add_parser("cn-check", help="conditional negativity verdict for psi")
    _add_psi_flags(sp)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--out")

    sp = sub.add_parser("realize", help="factor the Gromov form into cocycle vectors")
    _add_psi_flags(sp)
    sp.add_argument("--out")

    sp = sub.add_parser("schur-identity", help="word-length Schur identity residual")
    sp.add_argument("--n", type=int, required=True)
    _add_psi_flags(sp)
    sp.add_argument("--out")

    sp = sub.add_parser("alpha", help="best constant in Gamma_2 >= alpha Gamma (kernel level)")
    _add_psi_flags(sp)
    sp.add_argument("--method", choices=["pencil", "bisect", "both"], default="pencil")
    sp.add_argument("--out")

    sp = sub.add_parser("gamma", help="Gamma and Gamma_2 forms of algebra elements")
    _add_psi_flags(sp, group_flag=True)
    sp.add_argument("--f", required=True, help="element JSON {'coeffs': [[re,im],...]}")
    sp.add_argument("--g", help="second element (defaults to f)")
    sp.add_argument("--out")

    sp = sub.add_parser("poincare", help="L_p Poincare constants and growth fit")
    _add_psi_flags(sp)
    sp.add_argument("--p", default="2,4,8,16", help="comma-separated p grid in [2,16]")
    sp.add_argument("--budget", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--alpha", action="store_true",
                    help="attach the sqrt(p/alpha*) envelope")
    sp.add_argument("--emit-csv", help="write (p, constant) rows to this CSV")
    sp.add_argument("--out")

    sp = sub.add_parser("matrix", help="clock/shift multiplier semigroup on M_n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", choices=["delta", "wordlength"], default="delta")
    sp.add_argument("--alpha-check", type=float, default=None,
                    help="test Gamma_2 - alpha Gamma >= 0 on random matrices")
    sp.add_argument("--p", help="optional comma-separated p grid for a Poincare sweep")
    sp.add_argument("--budget", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")

    sp = sub.add_parser("lindblad", help="commuting-family Lindblad semigroup")
    sp.add_argument("--a", required=True,
                    help="family JSON {'n': int, 'a': [[[re,im],...],...]}")
    sp.add_argument("--p", help="optional comma-separated p grid for a Poincare sweep")
    sp.add_argument("--budget", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")

    sp = sub.add_parser("dilate", help="Monte-Carlo dilation and martingale transform")
    _add_psi_flags(sp)
    sp.add_argument("--x", required=True, help="element JSON {'coeffs': [[re,im],...]}")
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--steps", type=int, default=64)
    sp.add_argument("--samples", type=int, default=4096)
    sp.add_argument("--p", type=float, default=4.0)
    sp.add_argument("--seed", type=int, default=11)
    sp.add_argument("--alpha", action="store_true",
                    help="attach the bracket envelope at alpha = alpha*(psi)")
    sp.add_argument("--out")

    sp = sub.add_parser("gallery", help="run the whole example suite")
    sp.add_argument("--out-dir", default="gallery")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("replay", help="re-run a stored report and compare bytes")
    sp.add_argument("--report", required=True)
    return ap


def _config_from_args(args) -> dict:
    cmd = args.command
    if cmd == "group":
        spec = {"kind": args.kind}
        if args.kind == "table":
            if not args.path:
                raise ValueError("kind=table needs --path")
            spec.update(_group_spec_from_file(args.path))
        else:
            if args.n is None:
                raise ValueError(f"kind={args.kind} needs --n")
            spec["n"] = args.n
            if args.kind == "product":
                spec["m"] = args.m
        return {"spec": spec}
    if cmd == "cn-check":
        return {"psi": _psi_config_from_args(args), "tol": args.tol}
    if cmd == "realize":
        return {"psi": _psi_config_from_args(args)}
    if cmd == "schur-identity":
        psi = _psi_config_from_args(args) if (args.psi or args.builtin) else None
        return {"n": args.n, "psi": psi}
    if cmd == "alpha":
        return {"psi": _psi_config_from_args(args), "method": args.method}
    if cmd == "gamma":
        cfg = {"psi": _psi_config_from_args(args), "f": _coeffs_from_file(args.f)}
        cfg["g"] = _coeffs_from_file(args.g) if args.g else None
        return cfg
    if cmd == "poincare":
        return {"psi": _psi_config_from_args(args), "p": _parse_pgrid(args.p),
                "budget": args.budget, "seed": args.seed, "alpha": args.alpha}
    if cmd == "matrix":
        return {"n": args.n, "mode": args.mode, "alpha_check": args.alpha_check,
                "p": _parse_pgrid(args.p) if args.p else None,
                "budget": args.budget, "seed": args.seed}
    if cmd == "lindblad":
        with open(args.a) as fh:
            fam = json.load(fh)
        return {"a": fam["a"], "p": _parse_pgrid(args.p) if args.p else None,
                "budget": args.budget, "seed": args.seed}
    if cmd == "dilate":
        return {"psi": _psi_config_from_args(args), "x": _coeffs_from_file(args.x),
                "L": args.L, "steps": args.steps, "samples": args.samples,
                "p": args.p, "seed": args.seed, "alpha": args.alpha}
    if cmd == "gallery":
        return {"seed": args.seed}
    raise ValueError(f"unknown command {cmd!r}")


def _run_replay(args) -> int:
    with open(args.report) as fh:
        original = fh.read()
    report = json.loads(original)
    command, config = report["command"], report["config"]
    if _digest(config) != report["inputs_digest"]:
        sys.stderr.write("replay: config digest mismatch (report edited or version drift)\n")
        return 1
    results = _RUNNERS[command](config)
    fresh = _report_text(command, config, results, report["seed"])
    if fresh != original:
        sys.stderr.write("replay: regenerated report differs from the stored one\n")
        return 1
    sys.stdout.write(f"replay: byte-identical ({report['inputs_digest'][:12]})\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = args.command
    try:
        if cmd == "replay":
            return _run_replay(args)
        config = _config_from_args(args)
        seed = getattr(args, "seed", None)
        if cmd == "group":
            group = build_from_spec(config["spec"])
            save_group(group, args.out)
            _emit(_report_text(cmd, config, run_group(config), seed), None)
            return 0
        if cmd == "gallery":
            os.makedirs(args.out_dir, exist_ok=True)
            results = run_gallery(config, args.out_dir)
            _emit(_report_text(cmd, config, results, seed),
                  os.path.join(args.out_dir, "summary.json"))
            sys.stdout.write(f"gallery: {results['row_count']} entries in {args.out_dir}\n")
            return 0
        results = _RUNNERS[cmd](config)
        text = _report_text(cmd, config, results, seed)
        _emit(text, getattr(args, "out", None))
        if cmd == "poincare" and args.emit_csv:
            lines = ["p,constant"]
            for p, c in zip(results["p_grid"], results["constants"]):
                lines.append(f"{p!r},{c!r}")
            with open(args.emit_csv, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        return 0
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"{cmd}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

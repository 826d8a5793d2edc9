"""Command-line front end and reproducibility harness.

Every subcommand resolves its inputs into a plain JSON-serializable
config, runs a pure function of that config, and emits a report

    {command, config, inputs_digest, seed, tool_version, results}

where inputs_digest is the sha256 of the canonical (sorted, compact)
config encoding.  `replay` re-runs the embedded config and fails hard
unless the regenerated report is byte-identical.  Complex numbers are
encoded as [re, im] pairs; CSV output always uses the dot decimal.

Each command is declared once, by the `_command` registration on its
runner, which the parser, the config and the dispatch all read.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields
from typing import Optional

import numpy as np

from . import __version__
from .algebra import AlgebraElement, Semigroup, element, gamma, gamma2, tau
from .cocycles import (gromov_form, is_conditionally_negative, length_function,
                       realize_cocycle, verify_schur_identity)
from .criterion import best_alpha_bisection, best_alpha_pencil
from .dilation import inequality_report, sample_scenario
from .families import builtin_length
from .groups import build_from_spec, group_to_dict, load_group, save_group
from .matrixalg import (alpha_battery, heisenberg_multiplier, lindblad_gamma_residual,
                        lindblad_generator, matrix_poincare)
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


# ---------------------------------------------------------------- loaders

def _read_json(path: str, text: Optional[str] = None):
    """The JSON value in the file at path, parsed from text when the caller has read it."""
    if text is None:
        with open(path) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _group_spec_from_file(path: str) -> dict:
    return {"kind": "table", **group_to_dict(load_group(path))}


def _psi_config_from_args(args, required: bool) -> Optional[dict]:
    """Resolve --psi/--builtin (and --group when present) into a pure config."""
    group = getattr(args, "group", None)
    if args.builtin:
        if args.psi:
            raise ValueError("give either --psi or --builtin, not both")
        if group:
            raise ValueError("--group applies to --psi, not to --builtin")
        return {"builtin": args.builtin}
    if not args.psi:
        if required:
            raise ValueError("a length function is required: --psi FILE or --builtin NAME")
        return None
    data = _read_json(args.psi)
    if isinstance(data, list):
        data = {"psi": data}
    if not isinstance(data, dict) or "psi" not in data:
        raise ValueError(f"{args.psi} has no 'psi' field")
    if group:
        gspec = _group_spec_from_file(group)
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
    data = _read_json(path)
    try:
        coeffs = data["coeffs"] if isinstance(data, dict) else data
        return [[float(c[0]), float(c[1])] if isinstance(c, list) else [float(c), 0.0]
                for c in coeffs]
    except (KeyError, IndexError, TypeError, ValueError):
        raise ValueError(f"{path}: an element is a list of numbers or [re, im] pairs, "
                         "bare or under 'coeffs'") from None


def _family_from_file(path: str) -> list:
    data = _read_json(path)
    if not isinstance(data, dict) or "a" not in data:
        raise ValueError(f"{path} has no 'a' field: the list of family matrices")
    mats = data["a"]
    if not isinstance(mats, list):
        raise ValueError(f"{path}: 'a' is not a list of matrices")
    for i, m in enumerate(mats):
        if not (isinstance(m, list) and m and all(
                isinstance(row, list) and len(row) == len(m) and all(_is_pair(z) for z in row)
                for row in m)):
            raise ValueError(f"{path}: matrix {i} of 'a' is not a square list of rows "
                             "of [re, im] pairs")
    return mats


def _is_pair(z) -> bool:
    return isinstance(z, list) and len(z) == 2 and all(isinstance(v, (int, float)) for v in z)


def _element_from_config(group, coeffs: list) -> AlgebraElement:
    return element(group, [complex(re, im) for re, im in coeffs])


def _parse_pgrid(text: str) -> list:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"bad p grid {text!r}: expected comma-separated numbers") from None


# ----------------------------------------------------------- registration

_COMMANDS: dict = {}    # name -> (help, psi mode, flags): what the parser and the config read
_RUNNERS: dict = {}     # name -> runner: what the CLI, the gallery and replay dispatch through


def _command(name: str, summary: str, *flags: tuple, psi: str = ""):
    """Register the decorated runner as the subcommand `name`.

    Each flag is (option, loader, add_argument keywords); a flag whose
    loader is None only says where output goes.  psi is "required",
    "optional" or "group" (which adds --group) for commands whose
    --psi/--builtin flags resolve into config["psi"].
    """
    def register(run):
        _COMMANDS[name] = (summary, psi, flags)
        _RUNNERS[name] = run
        return run
    return register


def _flag(option: str, load=lambda value: value, **kw) -> tuple:
    return option, load, kw


_OUT = _flag("--out", None, help="write the report here instead of stdout")
_BUDGET = _flag("--budget", type=int, default=20000)
_SEED = _flag("--seed", type=int, default=0)
_SWEEP = (_flag("--p", lambda text: _parse_pgrid(text) if text else None,
                help="optional comma-separated p grid for a Poincare sweep"), _BUDGET, _SEED, _OUT)


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


_RUNNERS["group"] = run_group      # `group build` is parsed and configured by hand: a nested spec


@_command("cn-check", "conditional negativity verdict for psi",
          _flag("--tol", type=float, default=1e-9), _OUT, psi="required")
def run_cn_check(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    verdict = is_conditionally_negative(psi, tol=config["tol"])
    return {"verdict": bool(verdict.verdict), "min_eig": float(verdict.min_eig)}


@_command("realize", "factor the Gromov form into cocycle vectors", _OUT, psi="required")
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


@_command("schur-identity", "word-length Schur identity residual",
          _flag("--n", type=int, required=True), _OUT, psi="optional")
def run_schur(config: dict) -> dict:
    psi = _psi_from_config(config["psi"]) if config["psi"] else None
    rep = verify_schur_identity(config["n"], psi)
    return {"residual": float(rep.residual), "terms": rep.terms}


@_command("alpha", "best constant in Gamma_2 >= alpha Gamma (kernel level)",
          _flag("--method", choices=["pencil", "bisect", "both"], default="pencil"), _OUT,
          psi="required")
def run_alpha(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    K = gromov_form(psi)
    method = config["method"]
    cert = best_alpha_bisection(K) if method == "bisect" else best_alpha_pencil(K)
    out = {"alpha_star": cert.alpha_star, "method": cert.method,
           "min_eig_at_alpha": cert.residual}
    if method == "both":
        bi = best_alpha_bisection(K)
        out["bisection"] = {"alpha_star": bi.alpha_star,
                            "min_eig_at_alpha": bi.residual}
        out["method_agreement"] = abs(cert.alpha_star - bi.alpha_star)
    return out


@_command("gamma", "Gamma and Gamma_2 forms of algebra elements",
          _flag("--f", _coeffs_from_file, required=True,
                help="element JSON {'coeffs': [[re,im],...]}"),
          _flag("--g", _coeffs_from_file, help="second element (defaults to f)"), _OUT,
          psi="group")
def run_gamma(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    sg = Semigroup(psi)
    f = _element_from_config(psi.group, config["f"])
    g = _element_from_config(psi.group, config["g"]) if config["g"] else f
    out = {}
    for name, fn in (("gamma", gamma), ("gamma2", gamma2)):
        kern = fn(sg, f, g, path="kernel")
        defn = fn(sg, f, g, path="definitional")
        out[name] = _cplx_array(kern.coeffs)
        out[f"{name}_path_deviation"] = float(np.abs(kern.coeffs - defn.coeffs).max())
    out["tau_gamma"] = _cplx(tau(gamma(sg, f, g)))
    return out


def _poincare_results(report) -> dict:
    out = {f.name: getattr(report, f.name) for f in fields(report)}
    out["witnesses"] = [_cplx_array(getattr(w, "coeffs", w)) for w in report.witnesses]
    return out


@_command("poincare", "L_p Poincare constants and growth fit",
          _flag("--p", _parse_pgrid, default="2,4,8,16",
                help="comma-separated p grid in [2,16], at least two distinct values"),
          _BUDGET, _SEED,
          _flag("--alpha", action="store_true", help="attach the sqrt(p/alpha*) envelope"),
          _flag("--emit-csv", None, help="write (p, constant) rows to this CSV"), _OUT,
          psi="required")
def run_poincare(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    sg = Semigroup(psi)
    cert = best_alpha_pencil(sg.gromov) if config["alpha"] else None
    report = sweep_and_fit(sg, config["p"], budget=config["budget"],
                           seed=config["seed"], alpha_cert=cert)
    return _poincare_results(report)


@_command("matrix", "clock/shift multiplier semigroup on M_n",
          _flag("--n", type=int, required=True),
          _flag("--mode", choices=["delta", "wordlength"], default="delta"),
          _flag("--alpha-check", type=float,
                help="test Gamma_2 - alpha Gamma >= 0 on random matrices"), *_SWEEP)
def run_matrix(config: dict) -> dict:
    A = heisenberg_multiplier(config["n"], config["mode"])
    out = {"n": A.n, "mode": config["mode"]}
    if config["alpha_check"] is not None:
        alpha, samples = float(config["alpha_check"]), 200
        worst = alpha_battery(A, alpha, config["seed"], samples)
        out["alpha_check"] = {"alpha": alpha, "worst_min_eig": worst,
                              "passed": bool(worst >= -1e-9), "samples": samples}
    return _generator_results(A, config, out)


@_command("lindblad", "commuting-family Lindblad semigroup",
          _flag("--a", _family_from_file, required=True,
                help="family JSON {'a': [matrix, ...]}, rows of [re,im] pairs"), *_SWEEP)
def run_lindblad(config: dict) -> dict:
    mats = [np.array([[complex(re, im) for re, im in row] for row in m])
            for m in config["a"]]
    A = lindblad_generator(mats)
    resid = lindblad_gamma_residual(A, mats, config["seed"], 20)
    return _generator_results(A, config, {"n": A.n, "family_size": len(mats),
                                          "gamma_oracle_residual": resid})


def _generator_results(A, config: dict, out: dict) -> dict:
    """out plus the fixed-point dimension, the spectral gap and an optional Poincare sweep."""
    out.update(fix_dimension=A.fix_dimension(), spectral_gap=A.min_positive_eig())
    if config["p"]:
        report = matrix_poincare(A, config["p"], budget=config["budget"],
                                 seed=config["seed"])
        out["poincare"] = _poincare_results(report)
    return out


@_command("dilate", "Monte-Carlo dilation and martingale transform",
          _flag("--x", _coeffs_from_file, required=True,
                help="element JSON {'coeffs': [[re,im],...]}"),
          _flag("--L", type=float, required=True),
          _flag("--steps", type=int, default=64),
          _flag("--samples", type=int, default=4096),
          _flag("--p", type=float, default=4.0),
          _flag("--seed", type=int, default=11),
          _flag("--alpha", action="store_true",
                help="attach the bracket envelope at alpha = alpha*(psi)"), _OUT,
          psi="required")
def run_dilate(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    K = gromov_form(psi)
    real = realize_cocycle(K)
    x = _element_from_config(psi.group, config["x"])
    scenario = sample_scenario(real, config["steps"],
                               config["L"] / config["steps"],
                               config["samples"], config["seed"])
    cert = best_alpha_pencil(K) if config["alpha"] else None
    rep = inequality_report(x, scenario, config["L"], config["p"], alpha_cert=cert)
    out = asdict(rep)
    out.update(L=config["L"], steps=config["steps"], samples=config["samples"],
               cocycle_dimension=real.dimension)
    if cert is not None:
        out["alpha_star"] = cert.alpha_star
    return out


# ---------------------------------------------------------------- gallery

def _gallery_entries(seed: int) -> list:
    alphas = [(f"walsh_n{n}_m{m}", f"walsh:{n}:{m}") for n in (2, 3, 4) for m in (1, 2, 3)]
    alphas += [(f"heisenberg_{mode}_n{n}", f"heisenberg-{mode}:{n}")
               for n in (2, 3, 4) for mode in ("delta", "wordlength")]
    alphas += [(f"wordlength_n{n}", f"wordlength:{n}") for n in range(4, 17)]
    entries = [(name, "alpha", {"psi": {"builtin": spec}, "method": "both"})
               for name, spec in alphas]
    entries += [(f"schur_n{n}", "schur-identity", {"n": n, "psi": None})
                for n in range(4, 17, 2)]
    for name, diagonals in (("lindblad_2x2", [[0.0, 1.0]]),
                            ("lindblad_4x4", [[0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])):
        entries.append((name, "lindblad", {"a": [_cplx_array(np.diag(d)) for d in diagonals],
                                           "p": None, "budget": 0, "seed": seed}))
    return entries


def _summary_row(name: str, command: str, results: dict) -> dict:
    row = {"name": name, "command": command}
    for key in ("alpha_star", "residual", "spectral_gap", "verdict"):
        if key in results:
            row[key] = results[key]
    return row


@_command("gallery", "run the whole example suite",
          _flag("--out-dir", None, default="gallery"), _SEED)
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


# ------------------------------------------------------------ parser, config

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

    for name, (summary, psi, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        if psi:
            sp.add_argument("--psi", help="length function JSON "
                                          "{'group': path-or-spec, 'psi': [...]}")
            sp.add_argument("--builtin", help="builtin family, e.g. walsh:2:3, "
                                              "wordlength:8, heisenberg-delta:2")
        if psi == "group":
            sp.add_argument("--group", help="group JSON file; overrides the psi file's group")
        for option, _, kw in flags:
            sp.add_argument(option, **kw)

    sp = sub.add_parser("replay", help="re-run a stored report and compare bytes")
    sp.add_argument("--report", required=True)
    return ap


def _group_spec_from_args(args) -> dict:
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
    return spec


def _config_from_args(args) -> dict:
    """config["psi"] from the psi flags, and loader(value) under each loaded flag's dest."""
    if args.command == "group":
        return {"spec": _group_spec_from_args(args)}
    _, psi, flags = _COMMANDS[args.command]
    config = {"psi": _psi_config_from_args(args, psi != "optional")} if psi else {}
    for option, load, _ in flags:
        dest = option.lstrip("-").replace("-", "_")
        if load is not None:
            config[dest] = None if getattr(args, dest) is None else load(getattr(args, dest))
    return config


def _run_replay(args) -> int:
    with open(args.report) as fh:
        original = fh.read()
    report = _read_json(args.report, original)
    missing = [k for k in ("command", "config", "inputs_digest", "seed")
               if not isinstance(report, dict) or k not in report]
    if missing:
        raise ValueError(f"{args.report} is not a report: it lacks {', '.join(missing)}")
    command, config = report["command"], report["config"]
    if command not in _RUNNERS:
        raise ValueError(f"{args.report} names an unknown command {command!r}")
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
        out = getattr(args, "out", None)
        if cmd == "gallery":
            os.makedirs(args.out_dir, exist_ok=True)
            results = _RUNNERS[cmd](config, args.out_dir)
            out = os.path.join(args.out_dir, "summary.json")
        else:
            results = _RUNNERS[cmd](config)
        if cmd == "group":
            save_group(build_from_spec(config["spec"]), out)
            out = None
        _emit(_report_text(cmd, config, results, config.get("seed")), out)
        if cmd == "gallery":
            sys.stdout.write(f"gallery: {results['row_count']} entries in {args.out_dir}\n")
        if getattr(args, "emit_csv", None):
            rows = [f"{p!r},{c!r}" for p, c in zip(results["p_grid"], results["constants"])]
            with open(args.emit_csv, "w") as fh:
                fh.write("\n".join(["p,constant"] + rows) + "\n")
        return 0
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"{cmd}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

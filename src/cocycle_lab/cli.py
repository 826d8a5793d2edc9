"""Command-line front end and reproducibility harness.

Every subcommand resolves its inputs into a plain JSON-serializable
config, runs a pure function of that config, and emits a report

    {command, config, inputs_digest, seed, tool_version, results}

where inputs_digest is the sha256 of the canonical (sorted, compact)
config encoding.  `replay` re-runs the embedded config and fails hard
unless the regenerated report is byte-identical.  Complex numbers are
encoded as [re, im] pairs; CSV output always uses the dot decimal.

Each command exists only by the `_command` registration on its runner: its
flags give the parser, the config keys, their loading and their checks, and
its writer the outputs.  `replay`, which runs a stored report, is built by hand.
Every command, replay included, runs numpy's bundled OpenBLAS at one thread,
so a report replays byte-identically under any OPENBLAS_NUM_THREADS.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from functools import cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .algebra import AlgebraElement, Semigroup, element, gamma, gamma2, tau
from .cocycles import (CYCLIC_MODES, DEFAULT_TOL, gromov_form, is_conditionally_negative,
                       length_function, realize_cocycle, verify_schur_identity)
from .criterion import best_alpha_bisection, best_alpha_pencil
from .dilation import inequality_report, sample_scenario
from .families import builtin_length
from .groups import SPEC_KEYS, build_from_spec, group_to_dict, load_group
from .linalg import echo, is_integer, is_number, require, require_finite, require_list
from .matrixalg import (alpha_battery, heisenberg_multiplier, lindblad_gamma_residual,
                        lindblad_generator, matrix_poincare)
from .poincare import sweep_and_fit
from .rng import check_seed


# ---------------------------------------------------------------- encoding

def _cplx(a) -> list:
    """a as nested lists of [re, im] pairs; a scalar gives one pair."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


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
    try:
        return _json_text(report) + "\n"
    except ValueError:      # json's C encoder does not name a non-finite float; this one does
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _json_text(value, indent: str = "\n") -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2, allow_nan=False), written with
    each non-empty list of plain floats and ints (not bools) in one call of json's C encoder."""
    if not (isinstance(value, (dict, list, tuple)) and value):
        return json.dumps(value, allow_nan=False)
    inner = indent + "  "
    if isinstance(value, dict):
        body = ("," + inner).join(f"{_json_key(key)}: {_json_text(item, inner)}"
                                  for key, item in sorted(value.items()))
        return "{" + inner + body + indent + "}"
    if {float, int}.issuperset(map(type, value)):
        body = json.dumps(value, separators=("," + inner, ":"), allow_nan=False)[1:-1]
    else:
        body = ("," + inner).join(_json_text(item, inner) for item in value)
    return "[" + inner + body + indent + "]"


def _json_key(key) -> str:
    """A dict key as json writes it, one that is not a str as the string of its value: 1 as "1"."""
    return json.dumps(key) if isinstance(key, str) else json.dumps({key: 0}, allow_nan=False)[1:-4]


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
    values = require_list(data["psi"], f"{args.psi}: psi", is_number, "a number")
    if not (group or "group" in data):
        flag = "--group FILE or " if hasattr(args, "group") else ""
        raise ValueError(f"no group given: add {flag}a 'group' field to the psi JSON")
    gsrc = group or data["group"]
    if isinstance(gsrc, dict) and gsrc.get("kind") == "table" and "path" in gsrc:
        gsrc = gsrc["path"]             # inline the table: the config must not name a file
    if isinstance(gsrc, str):
        gspec = _group_spec_from_file(gsrc)
    elif isinstance(gsrc, dict):
        gspec = dict(gsrc)
    else:
        raise ValueError(f"{args.psi}: 'group' is {echo(json.dumps(gsrc))}, "
                         "neither a group file path nor a group spec")
    return {"group": gspec, "values": [float(v) for v in values]}


def _check_psi(key: str, cfg) -> None:
    """A psi config is {"builtin": name} or {"group": spec, "values": numbers}."""
    require(cfg, key, lambda v: isinstance(v, dict), "an object")
    if "builtin" in cfg:
        return require(cfg["builtin"], f"{key}.builtin", lambda v: isinstance(v, str), "a string")
    missing = [repr(k) for k in ("group", "values") if k not in cfg]
    if missing:
        raise ValueError(f"{key} lacks {', '.join(missing)}")
    require_list(cfg["values"], f"{key}.values", is_number, "a number")


def _psi_from_config(cfg: dict):
    """The length function of a psi config that passed _check_psi."""
    return (builtin_length(cfg["builtin"]) if "builtin" in cfg
            else length_function(build_from_spec(cfg["group"]), cfg["values"]))


_GROUP_READS = {**SPEC_KEYS, "table": ("path",)}      # the flags each --kind reads


def _group_spec_from_args(args) -> dict:
    """The group spec of --kind and the flags that kind reads; a flag it does not read fails.
    --kind product without --m is one factor."""
    reads = _GROUP_READS[args.kind]
    for key in ("n", "m", "path"):
        if getattr(args, key) is not None and key not in reads:
            raise ValueError(f"kind={args.kind} does not read --{key}")
    if getattr(args, reads[0]) in (None, ""):
        raise ValueError(f"kind={args.kind} needs --{reads[0]}")
    if args.kind == "table":
        return _group_spec_from_file(args.path)
    spec = {"kind": args.kind, "n": args.n}
    if args.kind == "product":
        spec["m"] = 1 if args.m is None else args.m
    return spec


def _coeffs_from_file(path: str) -> list:
    """An element file's coefficients, numbers or [re, im] pairs, bare or under 'coeffs'."""
    data = _read_json(path)
    coeffs = require_list(data.get("coeffs") if isinstance(data, dict) else data,
                          f"{path}: coeffs", lambda c: is_number(c) or _is_pair(c),
                          "a number or an [re, im] pair")
    z = np.array([complex(*c) if isinstance(c, list) else complex(c) for c in coeffs])
    require_finite(z, f"{path}: coeffs")
    return _cplx(z)


def _family_from_file(path: str) -> list:
    """A family file's matrices 'a', each a non-empty square list of rows of [re, im] pairs."""
    data = _read_json(path)
    if not isinstance(data, dict) or "a" not in data:
        raise ValueError(f"{path} has no 'a' field: the list of family matrices")
    return _family(f"{path}: a", data["a"])


def _family(name: str, a) -> list:
    square = lambda m: bool(require_list(     # a bad row or pair raises, named
        m, "", lambda row: require_list(row, "", _is_pair, "an [re, im] pair", len(m)), "a row"))
    return require_list(a, name, square, "a non-empty square matrix")


def _is_pair(z) -> bool:
    return isinstance(z, list) and len(z) == 2 and is_number(z[0]) and is_number(z[1])


def _element_from_config(group, coeffs: list, flag: str) -> AlgebraElement:
    if len(coeffs) != group.order:
        raise ValueError(f"{flag} has {len(coeffs)} coefficients, "
                         f"but the group has order {group.order}")
    return element(group, [complex(re, im) for re, im in coeffs])


def _parse_pgrid(text: str) -> list:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"bad p grid {text!r}: expected comma-separated numbers") from None


# ----------------------------------------------------------- registration

_COMMANDS: dict = {}    # name -> (help, flags, writer): what the parser, the config and main read
_RUNNERS: dict = {}     # name -> runner: what _run dispatches through


class Flag(NamedTuple):
    key: Optional[str]          # its config key; None: the flag only says where output goes
    options: tuple              # (option, add_argument keywords) pairs it adds to the parser
    load: Optional[Callable]    # parsed args -> config value
    check: Optional[Callable]   # check(key, config value) raises ValueError naming a bad one


def _command(name: str, summary: str, *flags: Flag, write: Optional[Callable] = None):
    """Register the decorated runner as the subcommand `name`.  Its Flags load the config
    in their order; write(args, name, config) runs it and writes what it gives, by default
    the report."""
    def register(run):
        _COMMANDS[name] = (summary, flags, write or _write_report)
        _RUNNERS[name] = run
        return run
    return register


def _flag(option: str, load=lambda value: value, check=None, **kw) -> Flag:
    """The Flag of one option, its config key the option's dest (none where load is None).
    check defaults to one read off kw: its choices, store_true action or int/float type.
    A flag argparse may leave unset (not required, no default, no action) takes None."""
    if load is None:
        return Flag(None, ((option, kw),), None, None)
    if check is None:
        if "choices" in kw:
            ok, what = (lambda v: v in kw["choices"]), "one of " + ", ".join(kw["choices"])
        elif kw.get("action") == "store_true":
            ok, what = (lambda v: isinstance(v, bool)), "true or false"
        else:
            ok, what = {int: (is_integer, "an integer"), float: (is_number, "a number")}[kw["type"]]
        check = lambda key, value: require(value, key, ok, what)
    if not (kw.get("required") or "default" in kw or "action" in kw):
        check = lambda key, value, given=check: value is None or given(key, value)
    key = option.lstrip("-").replace("-", "_")
    return Flag(key, ((option, kw),), lambda args: None if getattr(args, key) is None
                else load(getattr(args, key)), check)


def _write_report(args, name: str, config: dict) -> dict:
    """Run config and write its report to --out, or to stdout."""
    results = _run(name, config)
    _emit(_report_text(name, config, results, config.get("seed")), args.out)
    return results


def _write_report_and_csv(args, name: str, config: dict) -> None:
    """The report, and the (p, constant) rows to --emit-csv when given."""
    results = _write_report(args, name, config)
    if args.emit_csv:
        rows = "".join(f"{p!r},{c!r}\n" for p, c in zip(results["p_grid"], results["constants"]))
        _emit("p,constant\n" + rows, args.emit_csv)


def _write_group(args, name: str, config: dict) -> None:
    """The group table to --out, the bytes save_group writes, and the report to stdout."""
    results = _run(name, config)
    _emit(json.dumps(results["group"]) + "\n", args.out)
    _emit(_report_text(name, config, results, None), None)


def _write_gallery(args, name: str, config: dict) -> None:
    """Each entry's report and the summary report into --out-dir, and a line on stdout."""
    os.makedirs(args.out_dir, exist_ok=True)
    results = _run(name, config, args.out_dir)
    _emit(_report_text(name, config, results, config["seed"]),
          os.path.join(args.out_dir, "summary.json"))
    sys.stdout.write(f"gallery: {results['row_count']} entries in {args.out_dir}\n")


_PSI = Flag("psi", (("--psi", {"help": "length function JSON {'group': path-or-spec, 'psi': [...]}"}),
                    ("--builtin", {"help": "builtin family, e.g. walsh:2:3, wordlength:8, "
                                           "heisenberg-delta:2"})),
           lambda args: _psi_config_from_args(args, True), _check_psi)
_OUT = _flag("--out", None, help="write the report here instead of stdout")
_BUDGET = _flag("--budget", type=int, default=20000)
_SEED = _flag("--seed", check_seed, lambda _, seed: check_seed(seed), type=int, default=0)
_PGRID_CHECK = lambda name, value: require_list(value, name, is_number, "a number")
_COEFFS_CHECK = lambda name, value: require_list(value, name, _is_pair, "an [re, im] pair")
_SWEEP = (_flag("--p", lambda text: _parse_pgrid(text) if text else None, _PGRID_CHECK,
                help="optional comma-separated p grid for a Poincare sweep"), _BUDGET, _SEED, _OUT)
_METHOD = _flag("--method", choices=("pencil", "bisect", "both"), default="pencil")
_GROUP_SPEC = Flag("spec", (("--kind", {"required": True, "choices": list(_GROUP_READS)}),
                            ("--n", {"type": int, "help": "cyclic/product/heisenberg size parameter"}),
                            ("--m", {"type": int, "help": "number of product factors"}),
                            ("--path", {"help": "input table JSON (kind=table)"})),
                   _group_spec_from_args,
                   lambda key, spec: require(
                       spec, key, lambda v: isinstance(v, dict) and isinstance(v.get("kind"), str)
                       and v["kind"] in _GROUP_READS, "a group spec"))


# ---------------------------------------------------------------- runners
# Each runner is a pure function config -> results so that replay can
# re-execute reports without re-parsing argv.

@_command("group", "build and save a group table",
          _flag("group_command", None, choices=["build"],
                help="build a group and write its JSON table"),
          _GROUP_SPEC, _flag("--out", None, required=True, help="output group JSON"),
          write=_write_group)
def run_group(config: dict) -> dict:
    group = build_from_spec(config["spec"])
    return {
        "order": group.order,
        "abelian": bool(group.is_abelian()),
        "group": group_to_dict(group),
    }


@_command("cn-check", "conditional negativity verdict for psi",
          _PSI, _flag("--tol", type=float, default=DEFAULT_TOL), _OUT)
def run_cn_check(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    verdict = is_conditionally_negative(psi, tol=config["tol"])
    return {"verdict": verdict.psd, "min_eig": verdict.min_eig}


@_command("realize", "factor the Gromov form into cocycle vectors", _PSI, _OUT)
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
        "vectors": real.vectors.tolist(),
    }


@_command("schur-identity", "word-length Schur identity residual",
          _PSI._replace(load=lambda args: _psi_config_from_args(args, False),
                        check=lambda key, cfg: cfg is None or _check_psi(key, cfg)),
          _flag("--n", type=int, required=True), _OUT)
def run_schur(config: dict) -> dict:
    psi = _psi_from_config(config["psi"]) if config["psi"] else None
    rep = verify_schur_identity(config["n"], psi)
    return {"residual": float(rep.residual), "terms": rep.terms}


@_command("alpha", "best constant in Gamma_2 >= alpha Gamma (kernel level)", _PSI, _METHOD, _OUT)
def run_alpha(config: dict) -> dict:
    method = config["method"]
    psi = _psi_from_config(config["psi"])
    K = gromov_form(psi)
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
          _PSI._replace(options=_PSI.options + (
              ("--group", {"help": "group JSON file; overrides the psi file's group"}),)),
          _flag("--f", _coeffs_from_file, _COEFFS_CHECK, required=True,
                help="element JSON {'coeffs': [[re,im],...]}"),
          _flag("--g", _coeffs_from_file, _COEFFS_CHECK, help="second element (defaults to f)"),
          _OUT)
def run_gamma(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    sg = Semigroup(psi)
    f = _element_from_config(psi.group, config["f"], "--f")
    g = _element_from_config(psi.group, config["g"], "--g") if config["g"] else f
    out = {}
    for name, fn in (("gamma", gamma), ("gamma2", gamma2)):
        kern = fn(sg, f, g, path="kernel")
        defn = fn(sg, f, g, path="definitional")
        out[name] = _cplx(kern.coeffs)
        out[f"{name}_path_deviation"] = float(np.abs(kern.coeffs - defn.coeffs).max())
    out["tau_gamma"] = _cplx(tau(gamma(sg, f, g)))
    return out


def _poincare_results(report) -> dict:
    out = {f.name: getattr(report, f.name) for f in fields(report)}
    out["witnesses"] = [_cplx(getattr(w, "coeffs", w)) for w in report.witnesses]
    return out


@_command("poincare", "L_p Poincare constants and growth fit",
          _PSI,
          _flag("--p", _parse_pgrid, _PGRID_CHECK, default="2,4,8,16",
                help="comma-separated p grid in [2,16], at least two distinct values"),
          _BUDGET, _SEED,
          _flag("--alpha", action="store_true", help="attach the sqrt(p/alpha*) envelope"),
          _flag("--emit-csv", None, help="write (p, constant) rows to this CSV"), _OUT,
          write=_write_report_and_csv)
def run_poincare(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    sg = Semigroup(psi)
    cert = best_alpha_pencil(sg.gromov) if config["alpha"] else None
    report = sweep_and_fit(sg, config["p"], budget=config["budget"],
                           seed=config["seed"], alpha_cert=cert)
    return _poincare_results(report)


@_command("matrix", "clock/shift multiplier semigroup on M_n",
          _flag("--n", type=int, required=True),
          _flag("--mode", choices=CYCLIC_MODES, default="delta"),
          _flag("--alpha-check", type=float,
                help="test Gamma_2 - alpha Gamma >= 0 on random matrices"), *_SWEEP)
def run_matrix(config: dict) -> dict:
    A = heisenberg_multiplier(config["n"], config["mode"])
    out = {"n": A.n, "mode": config["mode"]}
    if config["alpha_check"] is not None:
        alpha, samples = float(config["alpha_check"]), 200
        check = alpha_battery(A, alpha, config["seed"], samples)
        out["alpha_check"] = {"alpha": alpha, "worst_min_eig": check.min_eig,
                              "passed": check.psd, "samples": samples}
    return _generator_results(A, config, out)


@_command("lindblad", "commuting-family Lindblad semigroup",
          _flag("--a", _family_from_file, _family, required=True,
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
          _PSI,
          _flag("--x", _coeffs_from_file, _COEFFS_CHECK, required=True,
                help="element JSON {'coeffs': [[re,im],...]}"),
          _flag("--L", check=lambda key, L: require(
                    L, key, lambda v: is_number(v) and 0 < v < np.inf, "a finite number > 0"),
                type=float, required=True),
          _flag("--steps", check=lambda key, steps: require(
                    steps, key, lambda v: is_integer(v) and v >= 1, "an integer >= 1"),
                type=int, default=64),
          _flag("--samples", type=int, default=4096),
          _flag("--p", type=float, default=4.0),
          _flag("--seed", check_seed, _SEED.check, type=int, default=11),
          _flag("--alpha", action="store_true",
                help="attach the bracket envelope at alpha = alpha*(psi)"), _OUT)
def run_dilate(config: dict) -> dict:
    psi = _psi_from_config(config["psi"])
    K = gromov_form(psi)
    real = realize_cocycle(K)
    x = _element_from_config(psi.group, config["x"], "--x")
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
        entries.append((name, "lindblad", {"a": [_cplx(np.diag(d)) for d in diagonals],
                                           "p": None, "budget": 0, "seed": seed}))
    return entries


def _summary_row(name: str, command: str, results: dict) -> dict:
    row = {"name": name, "command": command}
    for key in ("alpha_star", "residual", "spectral_gap", "verdict"):
        if key in results:
            row[key] = results[key]
    return row


@_command("gallery", "run the whole example suite",
          _flag("--out-dir", None, default="gallery"), _SEED, write=_write_gallery)
def run_gallery(config: dict, out_dir: Optional[str] = None) -> dict:
    seed = config["seed"]
    rows = []
    for name, command, sub in _gallery_entries(seed):
        results = _run(command, sub)
        if out_dir:
            _emit(_report_text(command, sub, results, seed),
                  os.path.join(out_dir, f"{name}.json"))
        rows.append(_summary_row(name, command, results))
    return {"rows": rows, "row_count": len(rows)}


# ------------------------------------------------------------ parser, config

@cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cocycle-lab",
                                 description="cocycle machinery on finite groups")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, flags, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for flag in flags:
            for option, kw in flag.options:
                sp.add_argument(option, **kw)
    sp = sub.add_parser("replay", help="re-run a stored report and compare bytes")
    sp.add_argument("--report", required=True)
    return ap


def _config_keys(command: str) -> dict:
    """{key: flag} of a config of command."""
    return {flag.key: flag for flag in _COMMANDS[command][1] if flag.key}


def _run(command: str, config: dict, *outputs) -> dict:
    """The results of command on config, each value checked by its flag before the runner."""
    for key, flag in _config_keys(command).items():
        flag.check(key, config[key])
    return _RUNNERS[command](config, *outputs)


def _run_replay(args) -> int:
    with open(args.report) as fh:
        original = fh.read()
    report = _read_json(args.report, original)
    missing = [k for k in ("command", "config", "inputs_digest", "seed")
               if not isinstance(report, dict) or k not in report]
    if missing:
        raise ValueError(f"{args.report} is not a report: it lacks {', '.join(missing)}")
    command, config = report["command"], report["config"]
    if not isinstance(config, dict):
        raise ValueError(f"{args.report} is not a report: its config is not an object")
    require(command, "command", lambda v: isinstance(v, str), "a string")
    if command not in _COMMANDS:
        raise ValueError(f"{args.report} names an unknown command {command!r}")
    missing = [repr(k) for k in _config_keys(command) if k not in config]
    if missing:
        raise ValueError(f"{args.report} is not a report: its {command} config lacks "
                         f"{', '.join(missing)}")
    if _digest(config) != report["inputs_digest"]:
        sys.stderr.write("replay: config digest mismatch (report edited or version drift)\n")
        return 1
    fresh = _report_text(command, config, _run(command, config), report["seed"])
    if fresh != original:
        sys.stderr.write("replay: regenerated report differs from the stored one\n")
        return 1
    sys.stdout.write(f"replay: byte-identical ({report['inputs_digest'][:12]})\n")
    return 0


@cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled scipy-openblas, or None where numpy
    bundles no library with that setter."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                              "numpy.libs", "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def _one_blas_thread():
    """The body runs numpy's bundled OpenBLAS at one thread, and the previous count is restored
    after it: a product split over threads sums in another order, so a report would depend on
    OPENBLAS_NUM_THREADS.  Where no such setter exists, nothing changes."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with _one_blas_thread():
        try:
            if args.command == "replay":
                return _run_replay(args)
            config = {key: flag.load(args) for key, flag in _config_keys(args.command).items()}
            _, _, write = _COMMANDS[args.command]
            write(args, args.command, config)
            return 0
        except (ValueError, KeyError, OSError) as exc:
            sys.stderr.write(f"{args.command}: {exc}\n")
            return 1


if __name__ == "__main__":
    sys.exit(main())

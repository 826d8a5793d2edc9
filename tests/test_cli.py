import filecmp
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocycle_lab import cli
from cocycle_lab.cli import (_COMMANDS, _RUNNERS, _build_parser, _config_keys, _digest,
                              _report_text, _run, main)
from cocycle_lab.groups import ORDER_CAP, build_cyclic, build_product, group_to_dict, save_group

from conftest import assert_report_pinned


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def read_report(path):
    with open(path) as fh:
        rep = json.load(fh)
    assert set(rep) == {"command", "config", "inputs_digest", "seed",
                        "tool_version", "results"}
    return rep


def test_group_build_then_cn_check(tmp_path, capsys):
    gp = tmp_path / "z6.json"
    assert main(["group", "build", "--kind", "cyclic", "--n", "6",
                 "--out", str(gp)]) == 0
    built = json.loads(capsys.readouterr().out)
    assert built["results"]["order"] == 6
    assert built["results"]["abelian"] is True
    assert json.loads(gp.read_text()) == built["results"]["group"]
    save_group(build_cyclic(6), str(tmp_path / "saved.json"))
    assert filecmp.cmp(gp, tmp_path / "saved.json", shallow=False)

    psi = write_json(tmp_path / "psi.json",
                     {"group": str(gp), "psi": [0, 1, 2, 3, 2, 1]})
    out = tmp_path / "cn.json"
    assert main(["cn-check", "--psi", psi, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["command"] == "cn-check"
    assert rep["results"]["verdict"] is True
    assert rep["tool_version"] == "0.1.0"


def test_alpha_walsh_cube(tmp_path):
    out = tmp_path / "alpha.json"
    assert main(["alpha", "--builtin", "walsh:2:3", "--method", "both",
                 "--out", str(out)]) == 0
    res = read_report(out)["results"]
    assert abs(res["alpha_star"] - 1.0) < 1e-8
    assert res["method_agreement"] < 1e-8
    assert res["method"] == "pencil"


def test_schur_cli(tmp_path):
    out = tmp_path / "schur.json"
    assert main(["schur-identity", "--n", "4", "--out", str(out)]) == 0
    assert read_report(out)["results"]["residual"] == 0.0
    assert main(["schur-identity", "--n", "4", "--builtin", "delta:4",
                 "--out", str(out)]) == 0
    assert read_report(out)["results"]["residual"] == pytest.approx(2.0)


def test_realize_cli(tmp_path):
    out = tmp_path / "real.json"
    assert main(["realize", "--builtin", "wordlength:4", "--out", str(out)]) == 0
    res = read_report(out)["results"]
    assert res["dimension"] == 2
    assert res["psi_residual"] < 1e-9
    assert res["gram_residual"] < 1e-9


def test_gamma_cli(tmp_path):
    f = write_json(tmp_path / "f.json", [0.0, 1.0, 1.0, 0.0])
    out = tmp_path / "gamma.json"
    assert main(["gamma", "--builtin", "wordlength:4", "--f", f,
                 "--out", str(out)]) == 0
    res = read_report(out)["results"]
    assert res["gamma_path_deviation"] < 1e-12
    assert res["gamma2_path_deviation"] < 1e-12
    assert res["tau_gamma"] == [pytest.approx(3.0), pytest.approx(0.0)]


def test_poincare_cli_with_csv(tmp_path):
    out = tmp_path / "poincare.json"
    csv = tmp_path / "constants.csv"
    assert main(["poincare", "--builtin", "wordlength:4", "--p", "2,4",
                 "--budget", "400", "--seed", "0", "--alpha",
                 "--emit-csv", str(csv), "--out", str(out)]) == 0
    res = read_report(out)["results"]
    assert res["p_grid"] == [2.0, 4.0]
    assert res["alpha_used"] == pytest.approx(1.0, abs=1e-8)
    assert len(res["envelope"]) == 2
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "p,constant"
    assert len(lines) == 3
    for row in lines[1:]:
        p, c = row.split(",")
        assert "." in c            # repr floats, dot decimal separator
        assert float(c) > 0


# results of the dilate argv below at commit 7468425, where M and M~ took two
# chunk passes (numpy 2.4.6, scipy-openblas 0.3.31); equal to 1e-12 relative
# (even-p norms by matrix products move them in the last ulp) but for the
# rounding-noise bracket SEs
DILATE_RESULTS = {
    "L": 1.0, "steps": 8, "samples": 64, "cocycle_dimension": 2, "p": 2.0,
    "alpha_star": 0.9999999999999992,
    "bdg_ratio": 0.6684913641244421,
    "bracket_bound": {"bound": 1.2016613820019584, "max_bracket": 1.0964061893781982,
                      "se": 1.77578070234303e-17, "slack": 0.10525519262376015},
    "decoupled_norm": {"mean": 1.1723756297644008, "se": 0.08364045839467306},
    "decoupling_ratio": 0.8841287139436439,
    "decoupling_se": 0.09325412827489345,
    "hc": {"mean": 1.0964061893781982, "se": 1.77578070234303e-17},
    "hd": {"mean": 1.0751503387154238, "se": 0.02840916060559048},
    "hr": {"mean": 1.0964061893781982, "se": 1.7322855919370187e-17},
    "ito_analytic": 1.2021065321068214,
    "ito_mc": {"mean": 1.0743964264829042, "se": 0.07334479883157621},
    "transform_norm": {"mean": 1.0365309578024693, "se": 0.035379936450269274},
}


def test_dilate_cli_and_replay(tmp_path, capsys):
    x = write_json(tmp_path / "x.json", [0.0, 1.0, 0.7, [0.0, 0.3]])
    rep_path = tmp_path / "dilate.json"
    assert main(["dilate", "--builtin", "walsh:2:2", "--x", x, "--L", "1.0",
                 "--steps", "8", "--samples", "64", "--p", "2.0",
                 "--seed", "3", "--alpha", "--out", str(rep_path)]) == 0
    rep = read_report(rep_path)
    assert rep["seed"] == 3
    res = rep["results"]
    assert_report_pinned(res, DILATE_RESULTS)
    assert res["cocycle_dimension"] == 2
    assert res["alpha_star"] == pytest.approx(1.0, abs=1e-8)
    assert res["bracket_bound"]["slack"] > 0
    assert abs(res["ito_mc"]["mean"] - res["ito_analytic"]) <= 5 * res["ito_mc"]["se"]

    capsys.readouterr()
    assert main(["replay", "--report", str(rep_path)]) == 0
    assert "byte-identical" in capsys.readouterr().out

    # tampering with results must be caught
    tampered = tmp_path / "tampered.json"
    doc = json.loads(rep_path.read_text())
    doc["results"]["ito_analytic"] += 1e-3
    tampered.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["replay", "--report", str(tampered)]) == 1
    assert "differs" in capsys.readouterr().err

    # tampering with the config breaks the digest
    doc = json.loads(rep_path.read_text())
    doc["config"]["steps"] = 16
    tampered.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["replay", "--report", str(tampered)]) == 1
    assert "digest mismatch" in capsys.readouterr().err


def test_gallery_is_deterministic(tmp_path, capsys, json_checked_reports):
    d1, d2 = str(tmp_path / "g1"), str(tmp_path / "g2")
    assert main(["gallery", "--out-dir", d1]) == 0
    assert main(["gallery", "--out-dir", d2]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    with open(os.path.join(d1, "summary.json")) as fh:
        assert json.load(fh)["results"]["row_count"] == 37
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    assert mismatch == [] and errors == []
    assert len(match) == len(names) == 38  # 37 entries + summary
    assert len(json_checked_reports) == 2 * 38


def test_matrix_cli_alpha_check(tmp_path, capsys):
    out = tmp_path / "matrix.json"
    assert main(["matrix", "--n", "3", "--mode", "delta",
                 "--alpha-check", str(5.0 / 6.0), "--out", str(out)]) == 0
    res = read_report(out)["results"]
    assert res["fix_dimension"] == 1
    assert res["spectral_gap"] == pytest.approx(1.0)
    assert res["alpha_check"]["passed"] is True
    assert res["alpha_check"]["samples"] == 200
    # a negative alpha is no Bakry-Emery constant: before, -1 read passed: true
    assert main(["matrix", "--n", "2", "--alpha-check", "-1"]) == 1
    assert capsys.readouterr().err == "matrix: alpha = -1.0 is not a finite number >= 0\n"


def test_lindblad_cli(tmp_path):
    a = write_json(tmp_path / "a.json",
                   {"a": [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]})
    out = tmp_path / "lindblad.json"
    assert main(["lindblad", "--a", a, "--out", str(out)]) == 0
    res = read_report(out)["results"]
    assert res["n"] == 2
    assert res["family_size"] == 1
    assert res["fix_dimension"] == 2
    assert res["spectral_gap"] == pytest.approx(1.0)
    assert res["gamma_oracle_residual"] < 1e-10


def test_cli_errors_exit_nonzero(tmp_path, capsys):
    assert main(["alpha", "--builtin", "bogus:3"]) == 1
    assert capsys.readouterr().err.startswith("alpha:")
    assert main(["cn-check"]) == 1
    assert "cn-check:" in capsys.readouterr().err
    assert main(["schur-identity", "--n", "5"]) == 1
    assert "schur-identity:" in capsys.readouterr().err
    assert main(["schur-identity", "--n", "4", "--builtin", "walsh:2:2"]) == 1
    assert capsys.readouterr().err == (
        "schur-identity: psi lives on a group of order 4 that is not Z_4\n")

    for grid in ("2", "4,4", ""):
        assert main(["poincare", "--builtin", "wordlength:4", "--p", grid,
                     "--budget", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("poincare:") and "two distinct values" in err
    for cmd in (["poincare", "--builtin", "wordlength:4"], ["matrix", "--n", "2"]):
        assert main([*cmd, "--p", "2,nan", "--budget", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{cmd[0]}:") and "p grid must lie in [2, 16], got [2.0, nan]" in err
    for cmd in (["matrix", "--n", "2"],
                ["lindblad", "--a", write_json(tmp_path / "a.json", {"a": [
                    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]})]):
        assert main([*cmd, "--p", "2", "--budget", "10"]) == 1
        assert "two distinct values" in capsys.readouterr().err

    f = write_json(tmp_path / "f.json", [0.0, 1.0, 1.0, 0.0])
    for i, bad in enumerate(([[1.0]], {"coeffs": 5})):
        path = write_json(tmp_path / f"bad{i}.json", bad)
        for argv in (["gamma", "--builtin", "wordlength:4", "--f", path],
                     ["gamma", "--builtin", "wordlength:4", "--f", f, "--g", path],
                     ["dilate", "--builtin", "walsh:2:2", "--x", path, "--L", "1.0"]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"{argv[0]}:") and path in err

    group = tmp_path / "z4.json"
    assert main(["group", "build", "--kind", "cyclic", "--n", "4", "--out", str(group)]) == 0
    capsys.readouterr()
    assert main(["gamma", "--builtin", "wordlength:4", "--group", str(group), "--f", f]) == 1
    assert "--group" in capsys.readouterr().err
    table = group_to_dict(build_product([build_cyclic(2), build_cyclic(512)]))
    for r in (1, 513):      # swap one intercalate: only an exact associativity check sees it
        table["mul"][r][5], table["mul"][r][517] = table["mul"][r][517], table["mul"][r][5]
    bad_table = write_json(tmp_path / "bad_table.json", table)
    unwritten = tmp_path / "unwritten.json"
    assert main(["group", "build", "--kind", "table", "--path", bad_table,
                 "--out", str(unwritten)]) == 1
    assert re.fullmatch(rf"group: {re.escape(bad_table)}: associativity fails at "
                        r"\(i,j,k\)=\(\d+,\d+,\d+\): .*\n", capsys.readouterr().err)
    assert not unwritten.exists()
    assert main(["group", "build", "--kind", "cyclic", "--n", "4097",
                 "--out", str(unwritten)]) == 1
    assert capsys.readouterr().err == "group: cyclic order 4097 exceeds cap 4096\n"
    assert not unwritten.exists()

    lacking = write_json(tmp_path / "lacking.json", {"command": "alpha", "config": {}})
    assert main(["replay", "--report", lacking]) == 1
    err = capsys.readouterr().err
    assert err.startswith("replay:") and "inputs_digest" in err and "seed" in err
    unknown = write_json(tmp_path / "unknown.json", {
        "command": "nope", "config": {}, "inputs_digest": _digest({}), "seed": None})
    assert main(["replay", "--report", unknown]) == 1
    assert "unknown command 'nope'" in capsys.readouterr().err
    listed = write_json(tmp_path / "listed.json", {
        "command": "alpha", "config": [1, 2], "inputs_digest": _digest([1, 2]), "seed": None})
    assert main(["replay", "--report", listed]) == 1
    assert capsys.readouterr().err == f"replay: {listed} is not a report: its config is not an object\n"

    assert main(["cn-check", "--psi", write_json(tmp_path / "five.json", 5)]) == 1
    assert "no 'psi' field" in capsys.readouterr().err
    no_a = write_json(tmp_path / "no_a.json", {"n": 2})
    assert main(["lindblad", "--a", no_a]) == 1
    assert "no 'a' field" in capsys.readouterr().err
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    for name, mats, want in (
            ("not_pairs", [[[0.0, 1.0]]], "a[0][0] = [0.0, 1.0] is not a list of length 1"),
            ("ragged", [eye, [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]]],
             "a[1][1] = [[1.0, 0.0]] is not a list of length 2"),
            ("bool_entry", [eye, eye, [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [True, 0.0]]]],
             "a[2][1][1] = [true, 0.0] is not an [re, im] pair"),
            ("huge_entry", [eye, eye, eye, [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 10 ** 400], [1.0, 0.0]]]],
             f"a[3][1][0] = [0.0, 1{'0' * 70}... is not an [re, im] pair"),
            ("empty", [eye, []], "a[1] = [] is not a non-empty square matrix")):
        path = write_json(tmp_path / f"{name}.json", {"a": mats})
        assert main(["lindblad", "--a", path]) == 1
        assert capsys.readouterr().err == f"lindblad: {path}: {want}\n"

    broken = tmp_path / "broken.json"
    broken.write_text('{"psi": [0, 1, 2, 1],\n')
    for argv in (["cn-check", "--psi", str(broken)],
                 ["dilate", "--builtin", "walsh:2:2", "--x", str(broken), "--L", "1.0"],
                 ["replay", "--report", str(broken)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}:") and str(broken) in err and "not valid JSON" in err


def test_cli_rejects_non_finite_inputs(tmp_path, capsys):
    for text, bad in (("NaN", "nan"), ("Infinity", "inf")):     # JSON text, Python text
        psi = tmp_path / f"psi_{bad}.json"
        psi.write_text(f'{{"group": {{"kind": "cyclic", "n": 4}}, "psi": [0, {text}, 2, {text}]}}')
        for cmd in ("cn-check", "alpha"):
            assert main([cmd, "--psi", str(psi)]) == 1
            err = capsys.readouterr().err
            assert err == f"{cmd}: psi(1) = {bad} is not finite\n"
        a = tmp_path / f"a_{bad}.json"
        a.write_text(f'{{"a": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [{text}, 0.0]]]]}}')
        assert main(["lindblad", "--a", str(a)]) == 1
        err = capsys.readouterr().err
        assert err == f"lindblad: a[0](1,1) = ({bad}+0j) is not finite\n"
        x = tmp_path / f"x_{bad}.json"
        x.write_text(f"[0.0, {text}, 1.0, 0.0]")
        for argv in (["gamma", "--builtin", "wordlength:4", "--f", str(x)],
                     ["dilate", "--builtin", "walsh:2:2", "--x", str(x), "--L", "1.0"]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err == f"{argv[0]}: {x}: coeffs(1) = ({bad}+0j) is not finite\n"
        assert main(["matrix", "--n", "2", "--alpha-check", bad]) == 1
        assert capsys.readouterr().err == f"matrix: alpha = {text} is not a finite number >= 0\n"


def test_cli_oversized_group_specs_fail_fast_naming_the_cap(tmp_path, capsys):
    psi = write_json(tmp_path / "psi.json",
                     {"group": {"kind": "product", "n": 2, "m": 2 ** 70}, "psi": [0, 1, 1, 2]})
    nines = "9" * 1500
    for argv, err in ((["cn-check", "--psi", psi], f"product order 2^{2 ** 70}"),
                      (["alpha", "--builtin", "walsh:2:100000"], "product order 2^100000"),
                      (["group", "build", "--kind", "product", "--n", "2", "--m", "100000",
                        "--out", str(tmp_path / "g.json")], "product order 2^100000"),
                      (["alpha", "--builtin", "walsh:2:100000000"], "product order 2^100000000"),
                      (["alpha", "--builtin", f"heisenberg-delta:{nines}"],
                       "Heisenberg order ~2^14948")):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"{argv[0]}: {err} exceeds cap {ORDER_CAP}\n"
    assert not (tmp_path / "g.json").exists()


def test_cli_names_each_bad_builtin_spec(capsys):
    huge = "walsh:2:" + "1" * 5000      # past int()'s 4300-digit limit; the echo is clipped
    for spec, err in (("walsh:2:x", "non-integer parameter in length spec 'walsh:2:x'"),
                      (huge, f"5000-digit parameter is too large in length spec "
                             f"{huge[:77] + '...'!r}"),
                      ("x" * 5000 + ":2", 'length family = "' + "x" * 76 + "... is not one of "
                                          "walsh, delta, wordlength, heisenberg-delta, "
                                          "heisenberg-wordlength"),
                      ("walsh:2", "walsh takes 2 integer parameter(s), got 1"),
                      ("walsh:1:2", "walsh n = 1 is not an integer >= 2"),
                      ("walsh:2:0", "walsh m = 0 is not an integer >= 1"),
                      ("heisenberg-delta:1", "Heisenberg n = 1 is not an integer >= 2")):
        assert main(["alpha", "--builtin", spec]) == 1
        assert capsys.readouterr().err == f"alpha: {err}\n"


def test_cli_rejects_a_negative_seed(tmp_path, capsys):
    x = write_json(tmp_path / "x.json", {"coeffs": [0.0, 1.0, 0.7, 0.0]})
    for argv in (["dilate", "--builtin", "walsh:2:2", "--x", x, "--L", "1", "--steps", "8",
                  "--samples", "64"],
                 ["poincare", "--builtin", "walsh:2:2"],
                 ["matrix", "--n", "2"],
                 ["gallery", "--out-dir", str(tmp_path / "gallery")]):
        assert main(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == f"{argv[0]}: seed = -1 is not a non-negative integer\n"
    assert not (tmp_path / "gallery").exists()
    # and the same text from a replayed report
    for command in ("poincare", "dilate", "matrix", "gallery", "lindblad"):
        config = {**REPLAY_BASE_CONFIGS[command], "seed": -1}
        if command in ("poincare", "dilate"):
            config["psi"] = {"builtin": "wordlength:4"}
        path = tmp_path / f"{command}.json"
        path.write_text(_report_text(command, config, {}, -1))
        assert main(["replay", "--report", str(path)]) == 1
        assert capsys.readouterr().err == "replay: seed = -1 is not a non-negative integer\n"


def test_alpha_on_a_zero_psi_takes_the_pencil_no_range_branch(tmp_path):
    out = tmp_path / "alpha.json"
    assert main(["alpha", "--builtin", "delta:1", "--method", "both", "--out", str(out)]) == 0
    res = read_report(out)["results"]
    assert res["alpha_star"] == 0.0 and res["bisection"]["alpha_star"] == 0.0


def test_lindblad_on_a_zero_family_has_no_gap(tmp_path, capsys):
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    a = write_json(tmp_path / "a.json", {"a": [zero]})
    assert main(["lindblad", "--a", a]) == 1
    assert capsys.readouterr().err == "lindblad: generator has no positive spectrum: no gap\n"


def test_runtime_imports_no_scipy():
    code = (
        "import contextlib, io, sys\n"
        "from cocycle_lab.cli import main\n"
        "from cocycle_lab.matrixalg import heisenberg_multiplier\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['alpha', '--builtin', 'walsh:2:3', '--method', 'both']) == 0\n"
        "heisenberg_multiplier(2).expm(0.5)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_cli_names_the_flag_of_a_short_coefficient_file(tmp_path, capsys):
    f = write_json(tmp_path / "f.json", [0.0, 1.0, 1.0, 0.0])
    short = write_json(tmp_path / "short.json", [0.0, 1.0, 1.0])
    for flag, argv in (("--f", ["gamma", "--builtin", "wordlength:4", "--f", short]),
                       ("--g", ["gamma", "--builtin", "wordlength:4", "--f", f, "--g", short]),
                       ("--x", ["dilate", "--builtin", "walsh:2:2", "--x", short, "--L", "1.0"])):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"{argv[0]}: {flag} has 3 coefficients, but the group has order 4\n"


def test_cli_names_a_coefficient_entry_that_is_not_a_pair(tmp_path, capsys):
    f = write_json(tmp_path / "f.json", [0.0, 1.0, 1.0, 0.0])
    for i, entry, payload in ((2, "[1.0, 0.0, 9.0]", [0.0, 1.0, [1.0, 0.0, 9.0], 0.0]),
                              (1, "[1.0]", {"coeffs": [0.0, [1.0], 0.0, 0.0]}),
                              (0, "null", [None, 1.0, 0.0, 0.0]),
                              (3, '"1.5"', [0.0, 1.0, 0.0, "1.5"]),
                              (1, "true", [0.0, True, 1.0, 0.0]),
                              (2, "[false, 1.0]", {"coeffs": [0.0, 1.0, [False, 1.0], 0.0]}),
                              (3, "1" + "0" * 76 + "...", [0.0, 1.0, 0.0, 10 ** 400])):
        path = write_json(tmp_path / f"bad{i}.json", payload)
        for argv in (["gamma", "--builtin", "wordlength:4", "--f", path],
                     ["gamma", "--builtin", "wordlength:4", "--f", f, "--g", path],
                     ["dilate", "--builtin", "walsh:2:2", "--x", path, "--L", "1.0"]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (f"{argv[0]}: {path}: coeffs[{i}] = {entry} "
                                               "is not a number or an [re, im] pair\n")


def test_cli_names_the_malformed_field_of_a_psi_file(tmp_path, capsys):
    cyclic4, psi4 = {"kind": "cyclic", "n": 4}, [0, 1, 2, 1]
    for name, payload, want in (
            ("psi_five", {"group": cyclic4, "psi": 5}, "psi = 5 is not a list"),
            ("psi_null", {"group": cyclic4, "psi": None}, "psi = null is not a list"),
            ("psi_entry", {"group": cyclic4, "psi": [0, 1, None, 1]}, "psi[2] = null is not a number"),
            ("psi_bool", {"group": cyclic4, "psi": [0, True, 2, 1]}, "psi[1] = true is not a number"),
            ("psi_huge", {"group": cyclic4, "psi": [0, 1, 10 ** 400, 1]},
             f"psi[2] = 1{'0' * 76}... is not a number"),
            ("group_seven", {"group": 7, "psi": psi4},
             "'group' is 7, neither a group file path nor a group spec")):
        path = write_json(tmp_path / f"{name}.json", payload)
        for cmd in ("cn-check", "alpha"):
            assert main([cmd, "--psi", path]) == 1
            assert capsys.readouterr().err == f"{cmd}: {path}: {want}\n"
    no_n = write_json(tmp_path / "no_n.json", {"group": {"kind": "cyclic"}, "psi": psi4})
    assert main(["cn-check", "--psi", no_n]) == 1
    assert capsys.readouterr().err == "cn-check: group kind 'cyclic' needs the key 'n'\n"
    # this once ran on Z_4 and wrote "m": 9 into the report's config
    with_m = write_json(tmp_path / "with_m.json", {"group": {**cyclic4, "m": 9}, "psi": psi4})
    assert main(["cn-check", "--psi", with_m, "--out", str(tmp_path / "unwritten.json")]) == 1
    assert capsys.readouterr().err == "cn-check: group kind 'cyclic' does not read the key 'm'\n"
    assert not (tmp_path / "unwritten.json").exists()


def test_cli_rejects_table_labels_that_are_not_a_list_of_strings(tmp_path, capsys):
    table = {"order": 2, "mul": [[0, 1], [1, 0]], "labels": 5}
    path = write_json(tmp_path / "table.json", table)
    unwritten = tmp_path / "unwritten.json"
    assert main(["group", "build", "--kind", "table", "--path", path, "--out", str(unwritten)]) == 1
    assert capsys.readouterr().err == (f"group: {path}: malformed group JSON: labels = 5 "
                                       "is not a list of length 2\n")
    assert not unwritten.exists()
    inline = write_json(tmp_path / "psi.json", {"group": {"kind": "table", **table}, "psi": [0, 1]})
    assert main(["cn-check", "--psi", inline]) == 1
    assert capsys.readouterr().err == ("cn-check: malformed group JSON: labels = 5 "
                                       "is not a list of length 2\n")


def test_cli_names_a_table_that_is_not_an_object_or_is_ragged(tmp_path, capsys):
    """Both once got Python's text: 'list indices must be integers or slices, not str', and
    numpy's 'inhomogeneous shape'; by --path and by a psi file's {"kind": "table", "path"},
    each named by its file.  A missing key once read as a bare KeyError text: 'mul'."""
    unwritten = tmp_path / "unwritten.json"
    for table, want in (([[0, 1], [1, 0]], "table = [[0, 1], [1, 0]] is not an object"),
                        ({"order": 2}, "table lacks 'mul'"),
                        ({"order": 2, "mul": [[0, 1], [1]]}, "mul[1] = [1] is not a list of length 2")):
        path = write_json(tmp_path / "table.json", table)
        assert main(["group", "build", "--kind", "table", "--path", path,
                     "--out", str(unwritten)]) == 1
        assert capsys.readouterr().err == f"group: {path}: malformed group JSON: {want}\n"
        psi = write_json(tmp_path / "psi.json", {"group": {"kind": "table", "path": path},
                                                 "psi": [0, 1]})
        assert main(["cn-check", "--psi", psi]) == 1
        assert capsys.readouterr().err == f"cn-check: {path}: malformed group JSON: {want}\n"
    assert not unwritten.exists()


def test_replay_names_a_config_key_its_command_reads(tmp_path, capsys):
    """Such a report, with a valid digest, once exited with a bare KeyError text: replay: 'psi'.
    A key no command reads still replays."""
    for command, config in (("alpha", {"psi": {"builtin": "wordlength:4"}, "method": "pencil"}),
                            ("group", {"spec": {"kind": "cyclic", "n": 3}})):
        results = _RUNNERS[command](config)
        path = tmp_path / f"{command}.json"
        for key in config:
            lacking = {k: v for k, v in config.items() if k != key}
            path.write_text(_report_text(command, lacking, results, None))
            assert main(["replay", "--report", str(path)]) == 1
            assert capsys.readouterr().err == (f"replay: {path} is not a report: its {command} "
                                               f"config lacks '{key}'\n")
        path.write_text(_report_text(command, {**config, "note": 1}, results, None))
        assert main(["replay", "--report", str(path)]) == 0
        assert capsys.readouterr().out.startswith("replay: byte-identical")


def test_replay_names_a_malformed_psi_config(tmp_path, capsys):
    """Such a cn-check report, with a valid digest, once died with a TypeError (psi = 5, or
    values an object), an AttributeError from .split or from build_from_spec, or exited
    with a bare KeyError text: replay: 'group'."""
    results = _RUNNERS["cn-check"]({"psi": {"builtin": "wordlength:4"}, "tol": 1e-9})
    cyclic = {"kind": "cyclic", "n": 2}
    path = tmp_path / "cn.json"
    for psi, want in ((5, "psi = 5 is not an object"),
                      ({"builtin": 5}, "psi.builtin = 5 is not a string"),
                      ({"group": 5, "values": [0.0, 1.0]}, "group spec = 5 is not an object"),
                      ({"values": [0.0, 1.0]}, "psi lacks 'group'"),
                      ({"group": cyclic}, "psi lacks 'values'"),
                      ({}, "psi lacks 'group', 'values'"),
                      ({"group": cyclic, "values": {"a": 1}}, 'psi.values = {"a": 1} is not a list'),
                      ({"group": cyclic, "values": [0.0, "1"]}, 'psi.values[1] = "1" is not a number')):
        path.write_text(_report_text("cn-check", {"psi": psi, "tol": 1e-9}, results, None))
        assert main(["replay", "--report", str(path)]) == 1
        assert capsys.readouterr().err == f"replay: {want}\n"


# a config of each registered command, of the kinds its flags declare; psi aside
REPLAY_BASE_CONFIGS = {
    "cn-check": {"tol": 1e-9},
    "realize": {},
    "schur-identity": {"n": 4},
    "alpha": {"method": "pencil"},
    "gamma": {"f": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]], "g": None},
    "poincare": {"p": [2.0, 4.0], "budget": 200, "seed": 0, "alpha": False},
    "matrix": {"n": 2, "mode": "delta", "alpha_check": None, "p": None, "budget": 200, "seed": 0},
    "lindblad": {"a": [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]], "p": None,
                 "budget": 0, "seed": 0},
    "dilate": {"x": [[0.0, 0.0], [1.0, 0.0], [0.7, 0.0], [0.0, 0.3]], "L": 1.0, "steps": 4,
               "samples": 16, "p": 4.0, "seed": 11, "alpha": False},
    "gallery": {"seed": 0},
    "group": {"spec": {"kind": "cyclic", "n": 3}},
}


@pytest.mark.parametrize("command, key, bad, want", [
    ("cn-check", "tol", "x", 'tol = "x" is not a number'),
    ("alpha", "method", 5, "method = 5 is not one of pencil, bisect, both")])
def test_replay_names_a_config_value_of_the_wrong_kind(command, key, bad, want, tmp_path, capsys):
    """Such a report, with a valid digest, once died with a TypeError (tol "x") or silently
    ran the pencil (method 5)."""
    config = {"psi": {"builtin": "wordlength:4"}, **REPLAY_BASE_CONFIGS[command], key: bad}
    path = tmp_path / "report.json"
    path.write_text(_report_text(command, config, {}, None))
    assert main(["replay", "--report", str(path)]) == 1
    assert capsys.readouterr().err == f"replay: {want}\n"


def test_replay_names_a_command_that_is_a_list(tmp_path, capsys):
    """Such a report, with a valid digest, once died with a TypeError: unhashable type: 'list'."""
    config = {"psi": {"builtin": "wordlength:4"}, **REPLAY_BASE_CONFIGS["alpha"]}
    path = tmp_path / "report.json"
    path.write_text(_report_text(["alpha"], config, {}, None))
    assert main(["replay", "--report", str(path)]) == 1
    assert capsys.readouterr().err == 'replay: command = ["alpha"] is not a string\n'


def test_replay_names_a_group_spec_whose_kind_is_a_list(tmp_path, capsys):
    """Such a group report, with a valid digest, once died with a TypeError: unhashable type."""
    path = tmp_path / "report.json"
    path.write_text(_report_text("group", {"spec": {"kind": ["cyclic"], "n": 3}}, {}, None))
    assert main(["replay", "--report", str(path)]) == 1
    assert capsys.readouterr().err == \
        'replay: spec = {"kind": ["cyclic"], "n": 3} is not a group spec\n'


def test_run_alpha_rejects_an_unknown_method():
    # the gallery and replay run configs through _run; every method but "bisect" ran the pencil
    with pytest.raises(ValueError, match="^method = 5 is not one of pencil, bisect, both$"):
        _run("alpha", {"psi": {"builtin": "wordlength:4"}, "method": 5})


def test_replay_checks_every_config_value_through_its_flag(tmp_path, capsys):
    """Each loaded config value of each command, replaced by an object, exits 1 naming it."""
    assert set(REPLAY_BASE_CONFIGS) == set(_COMMANDS)
    path = tmp_path / "report.json"
    for command, base in REPLAY_BASE_CONFIGS.items():
        keys = _config_keys(command)
        assert set(keys) - {"psi"} == set(base), command
        for key in base:
            config = {"psi": {"builtin": "wordlength:4"}, **base, key: {"bad": 1}}
            path.write_text(_report_text(command, config, {}, None))
            assert main(["replay", "--report", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f'replay: {key} = {{"bad": 1}} is not '), (command, err)


def test_each_command_parses_exactly_the_options_of_its_flags():
    """One registration gives the parser and the config: `<cmd> --help` lists the flags it
    reads, and each config key comes from one flag."""
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command").choices
    assert set(subparsers) == set(_COMMANDS) | {"replay"}
    for name, (_, flags, _) in _COMMANDS.items():
        parsed = [s for a in subparsers[name]._actions if a.dest != "help"
                  for s in a.option_strings or [a.dest]]
        declared = [option for flag in flags for option, _ in flag.options]
        assert parsed == declared, name
        keys = [flag.key for flag in flags if flag.key]
        assert len(keys) == len(set(keys)) == len(_config_keys(name)), name


def test_cli_bare_psi_list_names_group_only_where_the_command_has_it(tmp_path, capsys):
    bare = write_json(tmp_path / "bare.json", [0, 1, 2, 1])
    f = write_json(tmp_path / "f.json", [0.0, 1.0, 1.0, 0.0])
    for argv, hint in ((["cn-check", "--psi", bare], ""),
                       (["alpha", "--psi", bare], ""),
                       (["gamma", "--psi", bare, "--f", f], "--group FILE or ")):
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"{argv[0]}: no group given: add {hint}"
                                           "a 'group' field to the psi JSON\n")


def test_cli_gamma_on_a_bare_psi_with_a_group_file_inlines_the_table(tmp_path, capsys):
    group = tmp_path / "z4.json"
    save_group(build_cyclic(4), str(group))
    bare = write_json(tmp_path / "bare.json", [0, 1, 2, 1])
    f = write_json(tmp_path / "f.json", [0.0, 1.0, 1.0, 0.0])
    out = tmp_path / "gamma.json"
    assert main(["gamma", "--psi", bare, "--group", str(group), "--f", f, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["config"]["psi"] == {"group": {"kind": "table", **group_to_dict(build_cyclic(4))},
                                    "values": [0.0, 1.0, 2.0, 1.0]}
    assert str(group) not in out.read_text() and str(tmp_path) not in out.read_text()
    assert rep["results"]["gamma_path_deviation"] < 1e-12
    assert main(["replay", "--report", str(out)]) == 0
    assert capsys.readouterr().out.startswith("replay: byte-identical")


def test_cli_names_each_bad_flag_combination(tmp_path, capsys):
    unwritten = str(tmp_path / "unwritten.json")
    psi = write_json(tmp_path / "psi.json", {"group": {"kind": "cyclic", "n": 4}, "psi": [0, 1, 2, 1]})
    no_list = write_json(tmp_path / "no_list.json", {"a": 5})
    for argv, want in (
            (["group", "build", "--kind", "table", "--out", unwritten], "kind=table needs --path"),
            (["group", "build", "--kind", "cyclic", "--out", unwritten], "kind=cyclic needs --n"),
            (["group", "build", "--kind", "cyclic", "--n", "3", "--m", "5", "--out", unwritten],
             "kind=cyclic does not read --m"),
            (["group", "build", "--kind", "cyclic", "--n", "3", "--path", psi, "--out", unwritten],
             "kind=cyclic does not read --path"),
            (["group", "build", "--kind", "heisenberg", "--n", "2", "--m", "4", "--out", unwritten],
             "kind=heisenberg does not read --m"),
            (["group", "build", "--kind", "table", "--n", "2", "--path", psi, "--out", unwritten],
             "kind=table does not read --n"),
            (["poincare", "--builtin", "wordlength:4", "--p", "2,x"],
             "bad p grid '2,x': expected comma-separated numbers"),
            (["matrix", "--n", "2", "--p", "2;4"], "bad p grid '2;4': expected comma-separated numbers"),
            (["lindblad", "--a", no_list], f"{no_list}: a = 5 is not a list"),
            (["alpha", "--psi", psi, "--builtin", "wordlength:4"], "give either --psi or --builtin, not both")):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"{argv[0]}: {want}\n"
    assert not os.path.exists(unwritten)


@pytest.mark.parametrize("argv, want", [
    pytest.param(["--kind", "cyclic", "--n", "0"], "cyclic n = 0 is not an integer >= 1",
                 id="argv0-cyclic group needs n >= 1, got 0"),
    pytest.param(["--kind", "product", "--n", "2", "--m", "0"], "product m = 0 is not an integer >= 1",
                 id="argv1-product of zero factors")])
def test_group_build_names_an_empty_group(tmp_path, capsys, argv, want):
    unwritten = tmp_path / "g.json"
    assert main(["group", "build", *argv, "--out", str(unwritten)]) == 1
    assert capsys.readouterr().err == f"group: {want}\n"
    assert not unwritten.exists()


def test_cn_check_rejects_a_tolerance_that_could_flip_the_verdict(tmp_path, capsys):
    """--tol inf called psi = [0, 1, 3, 1] on Z_4 (min eig -0.71) CN; NaN and -1 called a CN psi not CN."""
    for values in ([0, 1, 3, 1], [0, 1, 2, 1]):
        psi = write_json(tmp_path / "psi.json", {"group": {"kind": "cyclic", "n": 4}, "psi": values})
        for tol, shown in (("inf", "Infinity"), ("nan", "NaN"), ("-1", "-1.0")):
            assert main(["cn-check", "--psi", psi, "--tol", tol]) == 1
            assert capsys.readouterr().err == f"cn-check: tol = {shown} is not a finite number >= 0\n"


def test_parser_is_built_once_and_keeps_no_flag_values(tmp_path):
    assert _build_parser() is _build_parser()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["poincare", "--builtin", "wordlength:4", "--alpha", "--p", "2,4",
                 "--budget", "300", "--seed", "3", "--out", str(first)]) == 0
    assert read_report(first)["config"]["alpha"] is True
    assert main(["poincare", "--builtin", "wordlength:4", "--out", str(second)]) == 0
    assert read_report(second)["config"] == {
        "alpha": False, "budget": 20000, "p": [2.0, 4.0, 8.0, 16.0],
        "psi": {"builtin": "wordlength:4"}, "seed": 0}


def test_report_config_holds_the_table_not_its_path(tmp_path, capsys):
    gp = tmp_path / "z6.json"
    assert main(["group", "build", "--kind", "cyclic", "--n", "6", "--out", str(gp)]) == 0
    capsys.readouterr()
    psi = write_json(tmp_path / "psi.json",
                     {"group": {"kind": "table", "path": str(gp)}, "psi": [0, 1, 2, 3, 2, 1]})
    report = tmp_path / "alpha.json"
    assert main(["alpha", "--psi", psi, "--out", str(report)]) == 0
    gspec = read_report(report)["config"]["psi"]["group"]
    assert "path" not in gspec and gspec["mul"] == json.loads(gp.read_text())["mul"]
    gp.unlink()
    assert main(["replay", "--report", str(report)]) == 0
    assert "byte-identical" in capsys.readouterr().out


def test_dilate_rejects_non_finite_horizon(tmp_path, capsys):
    """A horizon that is not a finite number > 0 is named as L, on the command line and on
    replay; it was once named as dt = L / steps, which the user never passed."""
    x = write_json(tmp_path / "x.json", [0.0, 1.0, 0.7, [0.0, 0.3]])
    out = tmp_path / "dilate.json"
    for L, shown in (("0", "0.0"), ("-1", "-1.0"), ("nan", "NaN"), ("inf", "Infinity")):
        assert main(["dilate", "--builtin", "walsh:2:2", "--x", x, "--L", L, "--steps", "4",
                     "--samples", "8", "--p", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"dilate: L = {shown} is not a finite number > 0\n"
        assert not out.exists()
    for L in (0.0, -1.0):
        config = {"psi": {"builtin": "wordlength:4"}, **REPLAY_BASE_CONFIGS["dilate"], "L": L}
        out.write_text(_report_text("dilate", config, {}, None))
        assert main(["replay", "--report", str(out)]) == 1
        assert capsys.readouterr().err == f"replay: L = {L} is not a finite number > 0\n"


def test_dilate_rejects_zero_steps(tmp_path, capsys):
    x = write_json(tmp_path / "x.json", [0.0, 1.0, 0.7, 0.2])
    for steps in ("0", "-3"):
        assert main(["dilate", "--builtin", "walsh:2:2", "--x", x, "--L", "1.0",
                     "--steps", steps]) == 1
        assert capsys.readouterr().err == f"dilate: steps = {steps} is not an integer >= 1\n"


def test_dilate_on_the_fixed_point_algebra_fails_naming_the_cause(tmp_path, capsys):
    # x = lambda(e) has M_n(x) = 0: the ratios would be 0/0, written as the token Infinity
    x = write_json(tmp_path / "x.json", [1, 0, 0, 0])
    out = tmp_path / "d.json"
    assert main(["dilate", "--builtin", "walsh:2:2", "--x", x, "--L", "1", "--steps", "4",
                 "--samples", "16", "--p", "4", "--alpha", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dilate: M_n(x) vanishes at p = 4: x lies in the fixed-point algebra")
    assert not out.exists()


def test_reports_carry_no_nan_or_infinity():
    """A non-finite float is refused by value, as a dict value and inside a list of numbers,
    which json's C encoder writes."""
    assert _report_text("dilate", {}, {"bdg_ratio": 1.5}, 0).count("1.5") == 1
    for bad in ("inf", "-inf", "nan"):
        for results in ({"bdg_ratio": float(bad)}, {"constants": [1.5, float(bad), 2.0]}):
            with pytest.raises(ValueError, match=f"not JSON compliant: {re.escape(bad)}$"):
                _report_text("dilate", {}, results, 0)


def _reference_report_text(command, config, results, seed):
    """The report as json.dumps(..., indent=2) writes it: the route cli._report_text must match."""
    report = {"command": command, "config": config, "inputs_digest": _digest(config),
              "seed": seed, "tool_version": cli.__version__, "results": results}
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.fixture
def json_checked_reports(monkeypatch):
    """Every report written meanwhile is checked against json.dumps(..., indent=2) of the same
    values; the list holds the checked reports' commands."""
    checked, report_text = [], cli._report_text

    def check(command, config, results, seed):
        text = report_text(command, config, results, seed)
        assert text == _reference_report_text(command, config, results, seed)
        checked.append(command)
        return text
    monkeypatch.setattr(cli, "_report_text", check)
    return checked


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e308, 0.1])
_INTS = st.integers() | st.sampled_from([2 ** 63, 2 ** 64 + 1, -2 ** 63 - 1, 10 ** 40])
_STRS = st.text() | st.sampled_from(["\u00e9\u2603\U0001d11e", '"\\/\b\f\n\r\t\x00\x7f', "\ud800"])
_LEAVES = (_FLOATS | _INTS | st.booleans() | st.none() | _STRS | _FLOATS.map(np.float64)
           | st.lists(_FLOATS | _INTS, max_size=6)
           | st.lists(_FLOATS | _INTS | st.booleans() | st.none(), max_size=6))
_JSON_VALUES = st.recursive(
    _LEAVES, lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                           | st.dictionaries(_STRS, kids, max_size=4)
                           | st.dictionaries(_FLOATS | _INTS | st.booleans(), kids, max_size=3)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example({"a": [[], {}, ()], "b": [[[]], ({},)], "c": (0.5, -0.0, 5e-324, 1e308, 2 ** 64)})
@example([True, 1, 1.0, None, np.float64(0.1)])
def test_the_report_writer_writes_the_bytes_of_json_indent_2(results):
    for config in ({}, {"psi": {"builtin": "walsh:2:3"}, "p": (2.0, 4.0)}):
        assert (_report_text("alpha", config, results, 7)
                == _reference_report_text("alpha", config, results, 7))


@pytest.mark.parametrize("bad", [
    np.int64(1), [1.0, np.int64(2)], np.float32(0.5), {"k": {1, 2}}, [0.5, (1, {3})],
    {(1, 2): 0.0}, {1: 0.0, "a": 1.0}, {float("nan"): 1.0}, 10 ** 5000, [1, 10 ** 5000]],
    ids=["int64", "int64-in-list", "float32", "set", "set-in-tuple", "tuple-key", "mixed-keys",
         "nan-key", "long-int", "long-int-in-list"])
def test_the_report_writer_refuses_what_json_refuses(bad):
    with pytest.raises((TypeError, ValueError)) as refused:
        _reference_report_text("alpha", {}, bad, None)
    with pytest.raises(refused.type):
        _report_text("alpha", {}, bad, None)


# argv per command, and the inputs_digest the same argv gave before the
# registry-driven CLI: a drift in any config key or value changes it.
REPLAY_CASES = {
    "group-build": ("group build --kind product --n 2 --m 2",
                    "383be91af34e41860c0100ff54848c4513bd045d3065921ddbbc94a52d4c046b"),
    "cn-check": ("cn-check --psi {psi}",
                 "8ccc2b48982526cbef861c9d0e717483c1958a3d447fa6434d6b5c1c2565dcac"),
    "realize": ("realize --builtin wordlength:6",
                "f7e261ad76d164794cc641670164e9b37061ea965173ebf519e6d0427c50b888"),
    "schur-identity": ("schur-identity --n 6",
                       "f2bb82e8fc857cb22e2dfa45681d5135a96deac7b43852624277505af2c0306e"),
    "schur-identity-builtin": (
        "schur-identity --n 4 --builtin delta:4",
        "3ba6dd1080f9be22c6d1b17e96cbff673097780273275418a239fd4d1d278036"),
    "alpha": ("alpha --builtin heisenberg-delta:2 --method both",
              "77cebb130e0787d5472c40a7f293364be3a08893f059165fb82a7dbdae38b719"),
    "gamma": ("gamma --builtin wordlength:4 --f {f} --g {g}",
              "9b59e8ad0de093888564a6b0537f4a1d39e57f1cf10b4859579c525cd0b056df"),
    "poincare": ("poincare --builtin wordlength:4 --p 2,4 --budget 200 --alpha",
                 "d547db51ecd54d3864b628cb32faebee1d5aeb31112c95b94d93a90200d313bd"),
    "matrix": ("matrix --n 2 --alpha-check 0.5 --p 2,4 --budget 200",
               "c1a1dcd3fa77d005f1e813ff0e98bef0750aa1ec2556e868c7a394a2861ff786"),
    "lindblad": ("lindblad --a {a} --p 2,4 --budget 200",
                 "9fd6da164d890826c875a9851dbe283ad9da1438ae67e5391186a5f38fc72968"),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_every_command_replays_with_pinned_config(case, tmp_path, capsys, json_checked_reports):
    files = {
        "psi": write_json(tmp_path / "psi.json",
                          {"group": {"kind": "cyclic", "n": 6}, "psi": [0, 1, 2, 3, 2, 1]}),
        "f": write_json(tmp_path / "f.json", [0.0, 1.0, 1.0, 0.0]),
        "g": write_json(tmp_path / "g.json", {"coeffs": [[0.0, 0.5], 1.0, 0.0, [2.0, 0.0]]}),
        "a": write_json(tmp_path / "a.json",
                        {"a": [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}),
    }
    line, digest = REPLAY_CASES[case]
    argv = [tok.format(**files) for tok in line.split()]
    report = tmp_path / "report.json"
    if argv[0] == "group":      # --out is the group table; the report goes to stdout
        assert main([*argv, "--out", str(tmp_path / "group.json")]) == 0
        report.write_text(capsys.readouterr().out)
    else:
        assert main([*argv, "--out", str(report)]) == 0
    rep = read_report(report)
    assert rep["command"] == argv[0]
    assert rep["inputs_digest"] == digest
    capsys.readouterr()
    assert main(["replay", "--report", str(report)]) == 0
    assert "byte-identical" in capsys.readouterr().out
    assert json_checked_reports == [argv[0]] * 2


def _readme_block(section: str, lang: str) -> str:
    """The first ```lang code block under the README heading `## section`."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        text = fh.read()
    return re.search(rf"## {section}\n.*?```{lang}\n(.*?)```", text, re.S).group(1)


def test_readme_library_tour_runs():
    exec(compile(_readme_block("Library tour", "python"), "README.md", "exec"), {})


def test_readme_cli_examples_parse():
    block = _readme_block("CLI", "sh")
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(ln, comments=True) for ln in lines]
    examples = [ex for ex in examples if ex]
    assert len(examples) >= 12
    parser = _build_parser()
    for ex in examples:
        assert ex[0] == "cocycle-lab"
        parser.parse_args(ex[1:])


@pytest.mark.parametrize("n", [6, 8, 12, 16])
def test_alpha_is_never_below_zero(n, tmp_path):
    """psi_n(k) = 1 - cos(2 pi k / n) has alpha* = 0 for n >= 5, which both solvers reached
    from below at rounding level; alpha = 0 is always feasible, as K o K is PSD."""
    psi = write_json(tmp_path / "cos.json", {"group": {"kind": "cyclic", "n": n},
                                             "psi": [1 - math.cos(2 * math.pi * k / n)
                                                     for k in range(n)]})
    out = tmp_path / "alpha.json"
    assert main(["alpha", "--psi", psi, "--method", "both", "--out", str(out)]) == 0
    res = read_report(out)["results"]
    assert 0.0 <= res["alpha_star"] < 1e-12
    assert 0.0 <= res["bisection"]["alpha_star"] < 1e-12


def test_alpha_replays_across_blas_threads(tmp_path):
    """alpha on wordlength:256 written under two OpenBLAS threads replays byte-identically
    under one: every command runs numpy's bundled OpenBLAS at one thread."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = str(tmp_path / "alpha.json")
    for threads, argv in (("2", ["alpha", "--builtin", "wordlength:256", "--method", "both",
                                 "--out", out]),
                          ("1", ["replay", "--report", out])):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-m", "cocycle_lab.cli", *argv],
                             capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("replay: byte-identical")


def test_a_numpy_without_the_openblas_setter_runs_every_command_unchanged(tmp_path, monkeypatch):
    """Where numpy bundles no OpenBLAS thread setter, main runs the command as it stands and
    writes the same report bytes."""
    argv = ["alpha", "--builtin", "walsh:2:3", "--method", "both", "--out"]
    assert main(argv + [str(tmp_path / "with.json")]) == 0
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    assert main(argv + [str(tmp_path / "without.json")]) == 0
    assert (tmp_path / "with.json").read_bytes() == (tmp_path / "without.json").read_bytes()


@pytest.mark.parametrize("spec", ["walsh:2:8", "heisenberg-delta:3"])
def test_cn_check_of_a_builtin_is_exact_at_tol_0(spec, tmp_path):
    """Both lengths are CN exactly, yet K's spectrum reads min_eig -3.5e-13 and -2.1e-15 on
    them, not CN at --tol 0.  The builtin's cocycle B gives 0.0, and a replay agrees."""
    out = str(tmp_path / "cn.json")
    assert main(["cn-check", "--builtin", spec, "--tol", "0", "--out", out]) == 0
    assert read_report(out)["results"] == {"verdict": True, "min_eig": 0.0}
    assert main(["replay", "--report", out]) == 0

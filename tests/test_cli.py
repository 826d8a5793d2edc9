import filecmp
import json
import os
import re
import shlex

import pytest

from cocycle_lab.cli import _build_parser, _digest, main

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


def test_gallery_is_deterministic(tmp_path, capsys):
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


def test_matrix_cli_alpha_check(tmp_path):
    out = tmp_path / "matrix.json"
    assert main(["matrix", "--n", "3", "--mode", "delta",
                 "--alpha-check", str(5.0 / 6.0), "--out", str(out)]) == 0
    res = read_report(out)["results"]
    assert res["fix_dimension"] == 1
    assert res["spectral_gap"] == pytest.approx(1.0)
    assert res["alpha_check"]["passed"] is True
    assert res["alpha_check"]["samples"] == 200


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

    lacking = write_json(tmp_path / "lacking.json", {"command": "alpha", "config": {}})
    assert main(["replay", "--report", lacking]) == 1
    err = capsys.readouterr().err
    assert err.startswith("replay:") and "inputs_digest" in err and "seed" in err
    unknown = write_json(tmp_path / "unknown.json", {
        "command": "nope", "config": {}, "inputs_digest": _digest({}), "seed": None})
    assert main(["replay", "--report", unknown]) == 1
    assert "unknown command 'nope'" in capsys.readouterr().err

    assert main(["cn-check", "--psi", write_json(tmp_path / "five.json", 5)]) == 1
    assert "no 'psi' field" in capsys.readouterr().err
    no_a = write_json(tmp_path / "no_a.json", {"n": 2})
    assert main(["lindblad", "--a", no_a]) == 1
    assert "no 'a' field" in capsys.readouterr().err
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    for i, (name, mats) in enumerate((("not_pairs", [[[0.0, 1.0]]]),
                                      ("ragged", [eye, [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]]]))):
        path = write_json(tmp_path / f"{name}.json", {"a": mats})
        assert main(["lindblad", "--a", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("lindblad:") and path in err and f"matrix {i} " in err

    broken = tmp_path / "broken.json"
    broken.write_text('{"psi": [0, 1, 2, 1],\n')
    for argv in (["cn-check", "--psi", str(broken)],
                 ["dilate", "--builtin", "walsh:2:2", "--x", str(broken), "--L", "1.0"],
                 ["replay", "--report", str(broken)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}:") and str(broken) in err and "not valid JSON" in err


def test_dilate_rejects_non_finite_horizon(tmp_path, capsys):
    x = write_json(tmp_path / "x.json", [0.0, 1.0, 0.7, [0.0, 0.3]])
    for L in ("nan", "inf"):
        assert main(["dilate", "--builtin", "walsh:2:2", "--x", x, "--L", L,
                     "--steps", "4", "--samples", "8", "--p", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dilate:")
        assert f"step size must be positive and finite, got {L}" in err


def test_cli_rejects_invalid_thread_count(monkeypatch, capsys):
    monkeypatch.setenv("COCYCLE_LAB_THREADS", "two")
    assert main(["poincare", "--builtin", "wordlength:4", "--p", "2,4",
                 "--budget", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("poincare:") and "COCYCLE_LAB_THREADS" in err


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
def test_every_command_replays_with_pinned_config(case, tmp_path, capsys):
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


def test_readme_cli_examples_parse():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(ln, comments=True) for ln in lines]
    examples = [ex for ex in examples if ex]
    assert len(examples) >= 12
    parser = _build_parser()
    for ex in examples:
        assert ex[0] == "cocycle-lab"
        parser.parse_args(ex[1:])

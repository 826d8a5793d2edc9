import filecmp
import json
import os

import pytest

from cocycle_lab.cli import main


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


def test_dilate_cli_and_replay(tmp_path, capsys):
    x = write_json(tmp_path / "x.json", [0.0, 1.0, 0.7, [0.0, 0.3]])
    rep_path = tmp_path / "dilate.json"
    assert main(["dilate", "--builtin", "walsh:2:2", "--x", x, "--L", "1.0",
                 "--steps", "8", "--samples", "64", "--p", "2.0",
                 "--seed", "3", "--alpha", "--out", str(rep_path)]) == 0
    rep = read_report(rep_path)
    assert rep["seed"] == 3
    res = rep["results"]
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


def test_cli_rejects_invalid_thread_count(monkeypatch, capsys):
    monkeypatch.setenv("COCYCLE_LAB_THREADS", "two")
    assert main(["poincare", "--builtin", "wordlength:4", "--p", "2",
                 "--budget", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("poincare:") and "COCYCLE_LAB_THREADS" in err

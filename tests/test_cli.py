"""CLI surface: subcommands, file outputs, exit codes, determinism."""

import csv
import json
import os

import pytest

from aporbit.cli import main


@pytest.fixture
def ar_rotation(tmp_path):
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({"kind": "ar", "d": 2, "p": [0.0, -1.0]}))
    return str(path)


@pytest.fixture
def ar_contracting(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"kind": "ar", "d": 1, "p": [0.5]}))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_produces_artifacts(tmp_path, ar_rotation):
    out = tmp_path / "out"
    code = main([
        "run", "--map", ar_rotation, "--y0", "1,0", "--K", "2",
        "--horizon", "12", "--out", str(out), "--emit-curve",
    ])
    assert code == 0
    chain = read_json(out / "chain.json")
    assert chain["schema_version"] == 1
    assert chain["K"] == 2 and chain["d"] == 2
    assert chain["T"] == 0 and chain["L"] == 4
    assert chain["conflicts"] == 0
    assert chain["config"]["K"] == 2
    trig = read_json(out / "trig.json")
    assert trig["L"] == 4 and trig["M"] == 2
    rows = read_csv(out / "orbit.csv")
    assert rows[0] == ["t", "y_1", "y_2", "ybar_1", "ybar_2", "ystar_1", "ystar_2"]
    assert len(rows) == 14  # header + 13 samples
    assert (out / "trig_curve.csv").exists()


def test_run_missing_map_is_config_error(tmp_path):
    code = main([
        "run", "--map", str(tmp_path / "absent.json"), "--y0", "0",
        "--K", "2", "--out", str(tmp_path / "o"),
    ])
    assert code == 3


def test_run_escaping_orbit_is_pipeline_error(tmp_path, capsys):
    path = tmp_path / "grow.json"
    path.write_text(json.dumps({"kind": "expr", "d": 1, "exprs": ["x1 + 0.5"]}))
    code = main([
        "run", "--map", str(path), "--y0", "0.9", "--K", "2",
        "--horizon", "5", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "t=" in capsys.readouterr().err


def test_no_overwrite_without_force(tmp_path, ar_contracting):
    out = tmp_path / "out"
    args = ["run", "--map", ar_contracting, "--y0", "0.8", "--K", "4",
            "--horizon", "10", "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 3  # refuses to clobber
    assert main(args + ["--force"]) == 0


def test_verify_pass(tmp_path, ar_contracting):
    out = tmp_path / "v"
    code = main([
        "verify", "--map", ar_contracting, "--y0", "0.8", "--K", "8",
        "--horizon", "50", "--out", str(out),
    ])
    assert code == 0
    report = read_json(out / "verify.json")
    assert report["passed"] is True
    assert report["gamma"] == 0.5
    assert report["gamma_method"] == "analytic"
    rows = read_csv(out / "verify.csv")
    assert rows[0] == ["t", "actual", "bound"]
    assert len(rows) == 52


def test_verify_bound_beyond_float_range(tmp_path):
    # gamma ~ 2.02: gamma^t overflows a float past t ~ 1008, the bound is inf
    out = tmp_path / "v"
    code = main([
        "verify", "--map", '{"kind":"ar","d":2,"p":[1.5297,-1.0]}',
        "--y0", "0.9,0.688", "--K", "512", "--horizon", "1100", "--out", str(out),
    ])
    assert code == 0
    report = read_json(out / "verify.json")
    assert report["passed"] is True
    rows = read_csv(out / "verify.csv")
    assert rows[-1][0] == "1100" and rows[-1][2] == "inf"


def test_ladder(tmp_path, ar_rotation):
    out = tmp_path / "l"
    code = main([
        "ladder", "--map", ar_rotation, "--y0", "1,0", "--Ks", "2,4,8",
        "--horizon", "40", "--budget", "1000", "--out", str(out),
    ])
    assert code == 0
    report = read_json(out / "ladder.json")
    assert report["chain_sups"] == [0.0, 0.0]
    assert report["consistent"] is True
    assert "condition" in report and "terms" in report["condition"]


def test_ar_decomposition(tmp_path):
    spec_path = tmp_path / "ar2.json"
    spec_path.write_text(json.dumps({"p": [0.0, -1.0], "z0": [1.0, 0.0]}))
    out = tmp_path / "a"
    code = main(["ar", "--spec", str(spec_path), "--horizon", "100",
                 "--out", str(out)])
    assert code == 0
    report = read_json(out / "ar.json")
    assert report["classification"] == "bounded"
    roots = sorted(
        (r["re"], r["im"]) for r in report["roots"]["roots"]
    )
    assert roots == [(0.0, -1.0), (0.0, 1.0)]
    rows = read_csv(out / "ar_curve.csv")
    assert rows[0] == ["t", "z", "ap", "R"]
    assert len(rows) == 102


def test_ar_unbounded_reported(tmp_path):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"p": [2.0, -1.0], "z0": [1.0, 0.0]}))
    out = tmp_path / "a"
    code = main(["ar", "--spec", str(spec_path), "--out", str(out)])
    assert code == 0
    report = read_json(out / "ar.json")
    assert report["classification"] == "unbounded"
    assert "decomposition" not in report


def test_census_deterministic(tmp_path):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    for out in (out1, out2):
        code = main([
            "census", "--d", "2", "--K", "3", "--n", "40", "--seed", "7",
            "--out", str(out),
        ])
        assert code == 0
    assert (out1 / "census.csv").read_bytes() == (out2 / "census.csv").read_bytes()
    j1 = read_json(out1 / "census.json")
    j2 = read_json(out2 / "census.json")
    j1["config"].pop("out"), j2["config"].pop("out")
    assert j1 == j2
    assert j1["mean_L"] < j1["state_count"]


def test_validate_map(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"kind": "expr", "d": 1, "exprs": ["0.5*x1"]}))
    out = tmp_path / "vm"
    assert main(["validate-map", "--map", str(good), "--out", str(out)]) == 0
    assert read_json(out / "validate.json")["passed"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "expr", "d": 1, "exprs": ["2*x1"]}))
    out2 = tmp_path / "vm2"
    assert main(["validate-map", "--map", str(bad), "--out", str(out2)]) == 0
    assert read_json(out2 / "validate.json")["passed"] is False


def test_json_only_skips_csv(tmp_path, ar_contracting):
    out = tmp_path / "jo"
    code = main([
        "verify", "--map", ar_contracting, "--y0", "0.8", "--K", "4",
        "--horizon", "10", "--out", str(out), "--json-only",
    ])
    assert code == 0
    assert (out / "verify.json").exists()
    assert not (out / "verify.csv").exists()


def test_inline_map_definition(tmp_path):
    out = tmp_path / "inline"
    code = main([
        "run", "--map", '{"kind": "ar", "d": 1, "p": [0.5]}', "--y0", "0.8",
        "--K", "4", "--horizon", "10", "--out", str(out),
    ])
    assert code == 0
    assert read_json(out / "chain.json")["d"] == 1


def test_bad_vector_is_config_error(tmp_path, ar_contracting):
    code = main([
        "run", "--map", ar_contracting, "--y0", "zebra", "--K", "2",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 3

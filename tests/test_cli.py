"""CLI surface: subcommands, file outputs, exit codes, determinism."""

import csv
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aporbit import cli, core, orbit, spectral
from aporbit.cli import CSV_BLOCK, _Out, main
from aporbit.spectral import eval_trig_range, fit_trig_samples
from test_orbit import count_quantized_rows


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


def test_force_replaces_a_symlink_instead_of_writing_through_it(tmp_path, ar_contracting):
    out = tmp_path / "out"
    out.mkdir()
    args = ["run", "--map", ar_contracting, "--y0", "0.8", "--K", "4",
            "--horizon", "10", "--out", str(out)]
    # a dangling link is an existing artifact too: refused, and left alone
    (out / "orbit.csv").symlink_to(tmp_path / "missing.csv")
    assert main(args) == 3
    assert sorted(os.listdir(out)) == ["orbit.csv"]
    assert os.readlink(out / "orbit.csv") == str(tmp_path / "missing.csv")
    victim = tmp_path / "victim.json"
    victim.write_text("keep\n")
    (out / "chain.json").symlink_to(victim)
    assert main(args + ["--force"]) == 0
    for name in ("chain.json", "orbit.csv"):
        assert not (out / name).is_symlink() and (out / name).is_file()
    assert read_json(out / "chain.json")["L"] >= 1
    assert victim.read_text() == "keep\n"
    assert not (tmp_path / "missing.csv").exists()


@pytest.mark.parametrize("command, stale", [
    (["run", "--y0", "0.8", "--K", "4", "--horizon", "10"], "chain.json"),
    (["run", "--y0", "0.8", "--K", "4", "--horizon", "10", "--emit-curve"],
     "trig_curve.csv"),
    (["verify", "--y0", "0.8", "--K", "4", "--horizon", "10"], "verify.csv"),
    (["census", "--d", "1", "--K", "3", "--n", "5"], "census.csv"),
])
def test_refusal_writes_nothing(tmp_path, ar_contracting, command, stale):
    # a stale artifact that the command would write last is found before
    # any work, so no fresh artifact lands beside it
    out = tmp_path / "out"
    out.mkdir()
    (out / stale).write_text("stale\n")
    if command[0] != "census":
        command = command + ["--map", ar_contracting]
    assert main(command + ["--out", str(out)]) == 3
    assert os.listdir(out) == [stale]
    assert (out / stale).read_text() == "stale\n"


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


@pytest.mark.parametrize("map_json, method", [
    ('{"kind": "ar", "d": 1, "p": [0.5]}', "analytic"),
    ('{"kind": "expr", "d": 1, "exprs": ["0.5*x1"]}', "analytic"),
    ('{"kind": "expr", "d": 1, "exprs": ["0.5*sin(x1)"]}', "sampled"),
])
def test_verify_config_records_no_gamma_mode(tmp_path, map_json, method):
    # the map decides how gamma is found, so the config has nothing to say
    out = tmp_path / "v"
    assert main(["verify", "--map", map_json, "--y0=0.8", "--K", "8", "--horizon", "20",
                 "--out", str(out)]) == 0
    report = read_json(out / "verify.json")
    assert report["gamma_method"] == method
    # only a sampled gamma draws, so only its config records the seed and the count
    drawn = ["seed", "samples"] if method == "sampled" else []
    assert list(report["config"]) == ["map", "y0", "K", "horizon", *drawn, "out"]


@pytest.mark.parametrize("map_json, method", [
    ('{"kind": "ar", "d": 2, "p": [0.1, -1.0]}', "analytic"),
    ('{"kind": "expr", "d": 2, "exprs": ["x2", "-x1 + 0.1*sin(x2)"]}', "sampled"),
])
def test_ladder_config_records_a_seed_only_for_a_sampled_gamma(tmp_path, map_json, method):
    out = tmp_path / "l"
    assert main(["ladder", "--map", map_json, "--y0=0.8,0.1", "--Ks", "4,8", "--horizon", "50",
                 "--out", str(out)]) == 0
    report = read_json(out / "ladder.json")
    assert report["gamma"]["method"] == method
    drawn = ["seed"] if method == "sampled" else []
    assert list(report["config"]) == ["map", "y0", "Ks", "horizon", *drawn, "budget",
                                      "tolerance", "out"]


def test_verify_bound_beyond_float_range(tmp_path, capsys):
    # gamma ~ 2.02: gamma^t overflows a float past t = 1004, the bound is inf,
    # and the report says that `passed` covers the steps up to 1004 only
    out = tmp_path / "v"
    code = main([
        "verify", "--map", '{"kind":"ar","d":2,"p":[1.5297,-1.0]}',
        "--y0", "0.9,0.688", "--K", "512", "--horizon", "1100", "--out", str(out),
    ])
    assert code == 0
    report = read_json(out / "verify.json")
    assert report["passed"] is True
    assert report["last_finite_t"] == 1004
    rows = read_csv(out / "verify.csv")
    assert rows[1005][2] != "inf" and rows[1006][2] == "inf"
    assert rows[-1][0] == "1100" and rows[-1][2] == "inf"
    assert capsys.readouterr().out.startswith(
        "verify: pass through t=1004 (the bound is inf after it) worst_ratio=")


def test_verify_json_names_no_last_finite_step_for_a_finite_bound(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--map", '{"kind":"ar","d":2,"p":[1.5297,-1.0]}',
                 "--y0", "0.9,0.688", "--K", "512", "--horizon", "1004",
                 "--out", str(out)]) == 0
    assert "last_finite_t" not in read_json(out / "verify.json")


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


@pytest.mark.parametrize("option", ["--budget", "--tolerance"])
@pytest.mark.parametrize("value", ["-1", "nan"])
def test_ladder_refuses_negative_or_nan_budget_and_tolerance(tmp_path, capsys, ar_rotation,
                                                             option, value):
    out = tmp_path / "l"
    code = main(["ladder", "--map", ar_rotation, "--y0", "1,0", "--Ks", "2,4",
                 "--horizon", "40", option, value, "--out", str(out)])
    assert code == 3
    assert f"{option} must be >= 0" in capsys.readouterr().err
    assert not out.exists()  # refused before anything is written


@pytest.mark.parametrize("Ks", ["16,8,4", "4,4", "0,4"])
def test_ladder_refuses_bad_resolutions_before_any_work(tmp_path, capsys, monkeypatch,
                                                       ar_rotation, Ks):
    from aporbit import analysis, maps

    def refuse(*args, **kwargs):
        raise AssertionError("ladder did work before checking --Ks")

    monkeypatch.setattr(analysis, "run_pipeline", refuse)
    monkeypatch.setattr(maps, "estimate_lipschitz", refuse)
    out = tmp_path / "l"
    code = main(["ladder", "--map", ar_rotation, "--y0", "1,0", "--Ks", Ks,
                 "--horizon", "40", "--out", str(out)])
    assert code == 3
    assert "resolutions must be >= 1 and strictly increasing" in capsys.readouterr().err
    assert not out.exists()


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


def test_ar_close_distinct_roots(tmp_path):
    # roots {0.5, 0.502, -0.3} lie within the root finder's merge radius
    p = [float(-c) for c in np.poly([0.5, 0.502, -0.3])[1:]]
    spec_path = tmp_path / "close.json"
    spec_path.write_text(json.dumps({"p": p, "z0": [0.5, 0.2, -0.1]}))
    out = tmp_path / "a"
    assert main(["ar", "--spec", str(spec_path), "--out", str(out)]) == 0
    report = read_json(out / "ar.json")
    assert [r["multiplicity"] for r in report["roots"]["roots"]] == [1, 1, 1]
    assert report["classification"] == "bounded"


def test_ar_unbounded_reported(tmp_path):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"p": [2.0, -1.0], "z0": [1.0, 0.0]}))
    out = tmp_path / "a"
    code = main(["ar", "--spec", str(spec_path), "--out", str(out)])
    assert code == 0
    report = read_json(out / "ar.json")
    assert report["classification"] == "unbounded"
    assert "decomposition" not in report


NAN_1D = '{"kind": "expr", "d": 1, "exprs": ["x1*1e200*1e200*0"]}'
NAN_2ND = '{"kind": "expr", "d": 2, "exprs": ["0.5*x1", "x1*1e200*1e200*0"]}'
HALF = '{"kind": "ar", "d": 1, "p": [0.5]}'
# math.sin(inf) raises a bare ValueError, which once exited 3 as a config error
SIN_OF_INF = '{"kind": "expr", "d": 1, "exprs": ["sin(x1*1e200*1e200)"]}'
COS_OF_INF = '{"kind": "expr", "d": 1, "exprs": ["cos(x1*1e200*1e200)"]}'
DELAY_SIN_OF_INF = '{"kind": "delay", "d": 2, "expr": "0.5*sin(x2*1e200*1e200)"}'
CURVED = '{"kind": "expr", "d": 1, "exprs": ["0.5*sin(x1)"]}'  # its gamma is sampled


def test_validate_map_fails_on_nan(tmp_path):
    for name, map_json in (("v", NAN_1D), ("cos", COS_OF_INF)):
        out = tmp_path / name
        assert main(["validate-map", "--map", map_json, "--out", str(out)]) == 0
        report = read_json(out / "validate.json")
        assert report["passed"] is False
        assert report["max_overshoot"] == float("inf")


@pytest.mark.parametrize("command, map_json, y0, error", [
    ("run", NAN_1D, "0.3", "orbit left the box at t=1"),
    ("run", NAN_2ND, "0.3,0.1", "orbit left the box at t=1"),
    # verify meets the NaN first in its sampled gamma
    ("verify", NAN_1D, "0.3", "no finite distance"),
    ("verify", NAN_2ND, "0.3,0.1", "no finite distance"),
    ("run", HALF, "nan", "coordinate nan outside [-1,1]"),
    ("verify", HALF, "nan", "coordinate nan outside [-1,1]"),
    ("run", SIN_OF_INF, "0.3", "sin of non-finite argument inf"),
    ("verify", DELAY_SIN_OF_INF, "0.3,0.2", "sin of non-finite argument"),
])
def test_nan_orbits_are_pipeline_errors(tmp_path, capsys, command, map_json, y0, error):
    code = main([command, "--map", map_json, f"--y0={y0}", "--K", "4",
                 "--horizon", "10", "--out", str(tmp_path / "o")])
    assert code == 2
    assert error in capsys.readouterr().err


def test_verify_rejects_a_map_nan_on_half_the_box(tmp_path, capsys):
    # sampled gamma once dropped the NaN ratios and passed with gamma = 0.5
    map_json = '{"kind": "expr", "d": 1, "exprs": ["0.5*x1 + max(x1,0)*1e200*1e200*0"]}'
    code = main(["verify", "--map", map_json, "--y0=-0.5", "--K", "4",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "no finite distance" in capsys.readouterr().err
    assert not (tmp_path / "o" / "verify.json").exists()


def test_ar_spec_with_nan_initial_value(tmp_path):
    spec_path = tmp_path / "nan.json"
    spec_path.write_text('{"p": [0.5, 0.1], "z0": [NaN, 0.1]}')
    out = tmp_path / "a"
    assert main(["ar", "--spec", str(spec_path), "--out", str(out)]) == 2
    assert not (out / "ar.json").exists()


@pytest.mark.parametrize("command, p, y0", [
    ("run", "[NaN]", "0.3"),
    ("run", "[Infinity]", "0"),
    ("verify", "[NaN]", "0.3"),
])
def test_non_finite_map_coefficient_is_config_error(tmp_path, capsys, command, p, y0):
    map_json = f'{{"kind": "ar", "d": 1, "p": {p}}}'
    code = main([command, "--map", map_json, f"--y0={y0}", "--K", "4",
                 "--horizon", "5", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "recurrence coefficient p_1 = " in capsys.readouterr().err


def test_ar_spec_with_nan_coefficient(tmp_path, capsys):
    spec_path = tmp_path / "nan.json"
    spec_path.write_text('{"p": [NaN, 0.1], "z0": [0.1, 0.2]}')
    out = tmp_path / "a"
    assert main(["ar", "--spec", str(spec_path), "--out", str(out)]) == 3
    assert "recurrence coefficient p_1 = nan is not finite" in capsys.readouterr().err
    assert not (out / "ar.json").exists()


def test_verify_steps_the_map_on_python_floats(tmp_path):
    # sampled gamma once stepped the map on numpy scalars, which warned on
    # overflow and printed np.float64(...) in its error messages
    from test_demos import src_env

    result = subprocess.run(
        [sys.executable, "-m", "aporbit.cli", "verify", "--map", DELAY_SIN_OF_INF,
         "--y0=0.3,0.2", "--K", "4", "--out", str(tmp_path / "o")],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert "sin of non-finite argument" in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert "np.float64" not in result.stderr


@pytest.mark.parametrize("argv, option", [
    (["ar", "--horizon", "-1"], "horizon"),
    (["validate-map", "--map", HALF, "--samples", "-5"], "samples"),
    # an `ar` map draws no sample, but its count is checked all the same
    (["verify", "--map", HALF, "--y0=0.3", "--K", "4", "--samples", "0"], "samples"),
    (["verify", "--map", '{"kind": "expr", "d": 1, "exprs": ["0.5*x1"]}', "--y0=0.3",
      "--K", "4", "--samples", "-2"], "samples"),
    # the parser refuses these before a sampled gamma is drawn
    (["verify", "--map", CURVED, "--y0=0.3", "--K", "0"], "K"),
    (["ladder", "--map", CURVED, "--y0=0.3", "--Ks", "4,8", "--horizon", "-1"], "horizon"),
    *(([command, "--map", HALF, "--y0=0.3", "--K", "4", "--horizon", horizon], "horizon")
      for command in ("run", "verify") for horizon in ("0", "-1")),
    (["ladder", "--map", HALF, "--y0=0.3", "--Ks", "4,8", "--horizon", "0"], "horizon"),
    (["census", "--d", "0", "--K", "4", "--n", "3"], "--d"),
    (["census", "--d", "1", "--K", "0", "--n", "3"], "--K"),
    (["census", "--d", "1", "--K", "4", "--n", "0"], "--n"),
    (["validate-map", "--map", HALF, "--samples", "-1"], "samples"),
])
def test_negative_counts_are_config_errors(tmp_path, capsys, argv, option):
    if argv[0] == "ar":
        spec_path = tmp_path / "s.json"
        spec_path.write_text('{"p": [0.5], "z0": [0.3]}')
        argv = argv + ["--spec", str(spec_path)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    assert option in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # refused before the output directory is made


def csv_writer_oracle(path, header, start, rows):
    """The CSV that csv.writer gives for [t, *row] with t from `start`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([t, *row] for t, row in enumerate(rows.tolist(), start))


# Values where repr is easy to get wrong: signed zeros, infinities, NaNs
# of both signs, subnormals, and both sides of the switch between
# positional and scientific notation.
SPECIAL_FLOATS = [
    0.0, -0.0, float("inf"), float("-inf"), float("nan"),
    struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0],
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, -1e-5,
    9.999999999999999e-06, 1.0000000000000001e-05, 1e-4, 1e16, -1e16,
    9999999999999998.0, 1.0000000000000002e16, 1e15, 0.1, 1.0 / 3.0,
]
INT64_EDGES = [0, 1, -1, 2**63 - 1, -(2**63), 2**31, -(2**31) - 1]


@settings(max_examples=40, deadline=None)
@given(
    use_ints=st.booleans(),
    pool=st.lists(st.floats(allow_nan=True, allow_infinity=True)
                  | st.sampled_from(SPECIAL_FLOATS), min_size=1, max_size=12),
    ints=st.lists(st.integers(-(2**63), 2**63 - 1) | st.sampled_from(INT64_EDGES),
                  min_size=1, max_size=12),
    n=st.sampled_from([0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 3]),
    width=st.integers(1, 4),
    start=st.integers(1, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_csv_matches_csv_writer(use_ints, pool, ints, n, width, start, seed):
    rng = np.random.default_rng(seed)
    if use_ints:
        values = np.array(ints, dtype=np.int64)[rng.integers(0, len(ints), (n, width))]
    else:
        values = np.array(pool)[rng.integers(0, len(pool), (n, width))]
        # about half of the entries distinct, at every scale
        fresh = rng.random((n, width)) < 0.5
        values[fresh] = (rng.standard_normal(int(fresh.sum()))
                         * 10.0 ** rng.integers(-320, 300, int(fresh.sum())))
    header = ["t"] + [f"c_{i}" for i in range(width)]
    with tempfile.TemporaryDirectory() as directory:
        out = _Out(directory, False, [])
        written = out.write_csv("block.csv", header, start, start + n,
                                lambda a, b: values[a - start : b - start])
        oracle = os.path.join(directory, "oracle.csv")
        csv_writer_oracle(oracle, header, start, values)
        with open(written, "rb") as fh, open(oracle, "rb") as expected:
            assert fh.read() == expected.read()


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([0, 1, 9, CSV_BLOCK, 2 * CSV_BLOCK + 3]),
    t0=st.integers(0, 2 * CSV_BLOCK + 5),
    L=st.sampled_from([1, 2, 3, 7, CSV_BLOCK - 1, CSV_BLOCK + 1]),
    start=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_csv_with_a_periodic_tail_matches_csv_writer(n, t0, L, start, seed):
    # rows start + t0 on repeat with period L; t0 falls before, inside, on
    # the edge of or past the blocks, and the period may span blocks
    rng = np.random.default_rng(seed)
    values = np.array(SPECIAL_FLOATS)[rng.integers(0, len(SPECIAL_FLOATS), (n, 2))]
    fresh = rng.random((n, 2)) < 0.5
    values[fresh] = rng.standard_normal(int(fresh.sum()))
    for t in range(t0 + L, n):
        values[t] = values[t - L]
    header = ["t", "a", "b"]
    with tempfile.TemporaryDirectory() as directory:
        written = _Out(directory, False, []).write_csv(
            "tail.csv", header, start, start + n, lambda a, b: values[a - start : b - start],
            (start + t0, L))
        oracle = os.path.join(directory, "oracle.csv")
        csv_writer_oracle(oracle, header, start, values)
        with open(written, "rb") as fh, open(oracle, "rb") as expected:
            assert fh.read() == expected.read()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("T", [0, 7, 10**5])
@pytest.mark.parametrize("L", [1, 2, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 1500])
def test_curve_cycled_from_one_period_is_the_whole_curve(tmp_path, L, T, d):
    # run --emit-curve writes rows T..T+3L from the row texts of one period
    form = fit_trig_samples(np.random.default_rng([L, T, d]).standard_normal((L, d)), T, L)
    header = ["t"] + [f"v_{i+1}" for i in range(d)]
    curve = eval_trig_range(form, T, T + L - 1)
    written = _Out(str(tmp_path), False, []).write_csv(
        "curve.csv", header, T, T + 3 * L + 1, lambda a, b: curve[a - T : b - T], (T, L))
    csv_writer_oracle(tmp_path / "oracle.csv", header, T, eval_trig_range(form, T, T + 3 * L))
    assert (tmp_path / "curve.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert written == str(tmp_path / "curve.csv")


# Strings that a re-indenting encoder could take for list separators, or
# that need escapes.
TRICKY_STRINGS = [", ", "], [", "[1, 2]", "\x00", "é", "\u2028", "\U0001f600", '"', "\\", ""]
JSON_FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
JSON_INTS = (st.integers(-(2**100), 2**100)
             | st.sampled_from(INT64_EDGES + [2**63, -(2**63) - 1, 2**64]))
# what a row of a top-level number rows value holds: numbers, bools and None
JSON_FLAT = JSON_FLOATS | JSON_INTS | st.booleans() | st.none()
JSON_STRINGS = st.text() | st.sampled_from(TRICKY_STRINGS)
JSON_KEYS = JSON_STRINGS | JSON_INTS | JSON_FLOATS | st.booleans() | st.none()
JSON_DOCS = st.recursive(
    JSON_FLAT | JSON_STRINGS | st.lists(JSON_FLAT) | st.lists(st.lists(JSON_FLAT)),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_KEYS, inner, max_size=4)),
    max_leaves=20,
)


# str keys let top-level number rows take the block path; other keys, the
# standard library's alone
@settings(max_examples=300, deadline=None)
@given(payload=st.dictionaries(JSON_STRINGS, JSON_DOCS, max_size=4)
       | st.dictionaries(JSON_KEYS, JSON_DOCS, max_size=4))
@example(payload={"doc": [[1.0, -0.0], [float("nan"), float("inf"), 5e-324]]})  # ragged rows
@example(payload={"doc": [[1, 2], [], [True, None], [2**70]]})  # an empty row: not number rows
@example(payload={"doc": [[1, [2]], [1, "a, b"], [1.5, "], ["], [{}], [[]]]})
@example(payload={"doc": {"": [0.1, 0.2], "x": {"y": [[0.5]]}}})
@example(payload={"flat": [i / 7 for i in range(600)], "rows": [[i, -i / 3] for i in range(600)]})
@example(payload={"doc": {1: 0, 1.5: 1, True: 2, None: 3, float("nan"): 4, -float("inf"): 5}})
@example(payload={"a": [[0.5, 1]], "none": None, "b": ([2], (3, None))})  # rows next to a null
@example(payload={"x": {"a": None, "y": [{"a": None}]}, "a": [[1.5, -2]]})  # a nested "a": null
@example(payload={"a": [[0.25], [None], [True]] * 300})  # rows of width 1, over a block
@example(payload={"x": [[[1, 2], [3]]], "y": {"rows": [[1.0, 2.0]]}})  # nested number rows
@example(payload={1: None, "1": [[2]]})  # two top-level keys that print alike
def test_write_json_matches_json_dumps(payload):
    with tempfile.TemporaryDirectory() as directory:
        written = _Out(directory, False, []).write_json("doc.json", payload, {"K": 4})
        with open(written, "rb") as fh:
            text = fh.read()
    expected = json.dumps({"schema_version": cli.SCHEMA_VERSION, "config": {"K": 4}, **payload},
                          indent=2)
    assert text == (expected + "\n").encode()


@pytest.mark.parametrize("value", [np.int64(1), object(), [0.5, np.bool_(True)],
                                   {(1, 2): 0}, [[1.0], [1j]]])
def test_unencodable_json_is_refused_like_json_dumps(tmp_path, value):
    with pytest.raises(TypeError) as expected:
        json.dumps({"x": value}, indent=2)
    with pytest.raises(TypeError) as refused:
        _Out(str(tmp_path), False, []).write_json("x.json", {"x": value}, {})
    assert str(refused.value) == str(expected.value)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("old", [False, True], ids=["no-old-file", "force"])
def test_unencodable_json_leaves_no_partial_artifact(tmp_path, capsys, monkeypatch, old):
    # the text is built before the file is touched: an old trig.json stays
    # whole under --force, and none appears where there was none
    out = tmp_path / "out"
    out.mkdir()
    if old:
        (out / "trig.json").write_text("old\n")
    monkeypatch.setattr(spectral.TrigForm, "to_json",
                        lambda self: {"L": self.period, "a": [0.5, np.int64(1)]})
    argv = ["run", "--map", '{"kind": "ar", "d": 1, "p": [0.5]}', "--y0=0.8", "--K", "4",
            "--horizon", "10", "--json-only", "--out", str(out)]
    with pytest.raises(TypeError):
        main(argv + (["--force"] if old else []))
    assert sorted(os.listdir(out)) == ["chain.json"] + (["trig.json"] if old else [])
    if old:
        assert (out / "trig.json").read_text() == "old\n"


def test_json_writing_holds_one_copy_of_the_text(tmp_path):
    # the parts of the text are written as they are, never joined, and the
    # C encoder takes a block of numbers at a time: a 185 KB trig.json once
    # peaked 413 KB above its payload
    rng = np.random.default_rng(0)
    payload = fit_trig_samples(rng.uniform(-1.0, 1.0, (2690, 2)), 0, 2690).to_json()
    out = _Out(str(tmp_path), True, [])
    out.write_json("trig.json", payload, {"K": 4})
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        written = out.write_json("trig.json", payload, {"K": 4})
        added = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    with open(written, "rb") as fh:
        text = fh.read()
    expected = json.dumps({"schema_version": cli.SCHEMA_VERSION, "config": {"K": 4}, **payload},
                          indent=2)
    assert text == (expected + "\n").encode()
    assert added <= len(text) + 64 * 1024


def test_ar_runs_one_recursion_and_one_split(tmp_path, monkeypatch):
    # the curve is the report's: z, ap and R are not computed again
    from aporbit import armodel

    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name if name == "split" else f"recursion to {args[-1]}")
            return f(*args)
        return wrapper

    for name in ("recursion", "split"):
        monkeypatch.setattr(armodel, name, counted(name, getattr(armodel, name)))
    spec_path = tmp_path / "ar2.json"
    spec_path.write_text(json.dumps({"p": [0.0, -1.0], "z0": [1.0, 0.0]}))
    assert main(["ar", "--spec", str(spec_path), "--horizon", "100",
                 "--out", str(tmp_path / "a")]) == 0
    assert sorted(calls) == ["recursion to 1", "recursion to 100", "split"]
    assert len(read_csv(tmp_path / "a" / "ar_curve.csv")) == 102


def traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writing_adds_little_to_the_peak(tmp_path, capsys):
    # The CSV is written block by block, so its strings must not raise the
    # job's peak: a 14,001-row orbit.csv once added about 700 KiB to it.
    argv = ["run", "--map", '{"kind": "ar", "d": 2, "p": [0.3, -0.9]}',
            "--y0=0.6,0.2", "--K", "64", "--horizon", "14000", "--force"]
    traced_peak(argv + ["--out", str(tmp_path / "warm")])
    json_only = traced_peak(argv + ["--out", str(tmp_path / "j"), "--json-only"])
    with_csv = traced_peak(argv + ["--out", str(tmp_path / "c")])
    assert (tmp_path / "c" / "orbit.csv").exists()
    assert with_csv - json_only <= 128 * 1024


def test_curve_writing_adds_order_L_to_the_peak(tmp_path, capsys, monkeypatch):
    # The curve's 3L+1 rows are cycled from the L row texts of one period,
    # block by block: writing adds those texts and one block to the peak.
    # Written as one block it added about 520 B a period row here.
    added = []
    write = _Out.write_csv

    def traced_write(self, *args):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = write(self, *args)
        added.append(tracemalloc.get_traced_memory()[1] - live)
        return result

    monkeypatch.setattr(_Out, "write_csv", traced_write)  # trig_curve.csv's, under --json-only
    argv = ["run", "--map", '{"kind": "ar", "d": 2, "p": [1.2, -1.0]}', "--y0=0.6,0.2",
            "--K", "4096", "--horizon", "6000", "--json-only", "--emit-curve", "--force"]
    traced_peak(argv + ["--out", str(tmp_path / "warm")])
    added.clear()
    traced_peak(argv + ["--out", str(tmp_path / "run")])
    L = read_json(tmp_path / "run" / "chain.json")["L"]
    assert L > 4 * CSV_BLOCK
    assert len(read_csv(tmp_path / "run" / "trig_curve.csv")) == 3 * L + 2
    assert added[0] <= 128 * L + 128 * 1024


@pytest.mark.parametrize("csvs", [False, True], ids=["json-only", "csv"])
def test_run_memory_is_the_orbit(tmp_path, capsys, csvs):
    # Past the orbit (8 B a sample for this shift map), every stage works
    # in blocks and the shadow is a view of the orbit that quantizes a
    # block when it is read, so 2*10^5 samples peak at 11 B each or less
    # (about 17.7 when the orbit held both coordinates of each sample, and
    # 33.4 when the shadow was a whole index array too).
    H = 200_000
    argv = ["run", "--map", '{"kind": "ar", "d": 2, "p": [1.5297, -1.0]}',
            "--y0=0.9,0.688", "--K", "64", "--force"] + ([] if csvs else ["--json-only"])
    traced_peak(argv + ["--horizon", "1000", "--out", str(tmp_path / "warm")])
    peak = traced_peak(argv + ["--horizon", str(H), "--out", str(tmp_path / "run")])
    assert (tmp_path / "run" / "orbit.csv").exists() == csvs
    assert peak / (H + 1) <= 11


# The longest run job of bench/'s long_orbit workload: a 2-d spiral at
# K = 64 whose chain is (T, L) = (94, 16), over 14,001 samples.
SPIRAL = ["--map", '{"kind": "ar", "d": 2, "p": [1.823054, -0.980595]}',
          "--y0=-0.8016876785707332,-0.5216423999399237", "--K", "64"]


TENT = '{"kind": "builtin", "d": 2, "name": "tent"}'
NEG = '{"kind": "expr", "d": 1, "exprs": ["-x1"]}'
QUARTER = '{"kind": "ar", "d": 2, "p": [0.0, -1.0]}'

# Runs whose orbit reaches an exact cycle of P samples at row t_p, with
# the chain's (T, L): from t_p the rows of orbit.csv repeat with period
# lcm(P, L), as the chain closes before t_p (T + L <= t_p): the shadow
# repeats a state there at the latest.
ORBIT_REPEATS = [
    # P = 1, L = 10: the tail's phase differs from one CSV block to the next
    (TENT, "0.3,-0.71", 9, 5000, (57, 1), (4, 10)),
    (NEG, "0.0", 4, 1500, (2, 2), (0, 1)),  # 0.0, -0.0, ...: a cycle of bits
    (QUARTER, "1,0", 64, 2000, (4, 4), (0, 4)),
    (HALF, "0.3", 1024, 3000, (1074, 1), (7, 1)),  # onto 0.0 in the third block
    (SPIRAL[1], SPIRAL[2][5:], 64, 2000, None, (94, 16)),  # never repeats
]


@pytest.mark.parametrize("block", [CSV_BLOCK, 57, 3])  # 57: t_p on a block edge
@pytest.mark.parametrize("map_json, y0, K, H, repeat, chain", ORBIT_REPEATS,
                         ids=["tent", "signed_zero", "quarter", "half", "spiral"])
def test_orbit_csv_with_its_periodic_tail_is_the_block_written_csv(
        tmp_path, capsys, monkeypatch, block, map_json, y0, K, H, repeat, chain):
    # the block writer with no tail is the oracle; a tail longer than a
    # block is not given, and the whole file is written in blocks
    monkeypatch.setattr(cli, "CSV_BLOCK", block)
    write, tails = _Out.write_csv, []

    def recorded(keep):
        def write_csv(self, name, header, start, stop, rows, tail=None):
            tails.append(tail)
            return write(self, name, header, start, stop, rows, tail if keep else None)
        return write_csv

    argv = ["run", "--map", map_json, f"--y0={y0}", "--K", str(K), "--horizon", str(H)]
    for keep in (True, False):
        monkeypatch.setattr(_Out, "write_csv", recorded(keep))
        assert main(argv + ["--out", str(tmp_path / str(keep))]) == 0
    summary = read_json(tmp_path / "True" / "chain.json")
    assert (summary["T"], summary["L"]) == chain
    want = None
    if repeat is not None:
        (t_p, P), (T, L) = repeat, chain
        assert T + L <= t_p
        if math.lcm(P, L) <= block:
            want = (t_p, math.lcm(P, L))
    assert tails == [want, want]  # the second run writes without it
    written = (tmp_path / "True" / "orbit.csv").read_bytes()
    assert written == (tmp_path / "False" / "orbit.csv").read_bytes()
    assert written.count(b"\r\n") == H + 2


def test_run_of_a_sign_flip_from_zero_keeps_both_zeros(tmp_path, capsys):
    # the orbit repeats its bits at lag 2, not at lag 1, where 0.0 == -0.0
    assert main(["run", "--map", NEG, "--y0=0.0", "--K", "4", "--horizon", "1500",
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "orbit.csv")[1:]
    assert [row[1] for row in rows] == ["0.0", "-0.0"] * 750 + ["0.0"]



def test_long_orbit_run_peaks_at_26_bytes_a_sample(tmp_path, capsys):
    # The orbit of this shift map is 8.5 B a sample; the pass over the
    # shadow, the periodicity window and the CSV blocks each add a fixed
    # amount on top, about 24.5 B a sample in all.  With both coordinates
    # of each sample stored this read 32.6, and with the shadow as a whole
    # index array too, 45.5.
    argv = ["run", *SPIRAL, "--horizon", "14000", "--force"]
    traced_peak(argv + ["--out", str(tmp_path / "warm")])
    peak = traced_peak(argv + ["--out", str(tmp_path / "run")])
    assert (tmp_path / "run" / "orbit.csv").exists()
    assert peak / 14001 <= 26


# A rotation just short of a quarter turn, whose ladder's first lcm window
# (25,806 steps) is far longer than its horizon.
NEAR_QUARTER = math.pi / 2 - 0.031


def test_ladder_peaks_at_its_orbits_not_its_lcm_window(tmp_path, capsys):
    # Ks 128,192,256 at H = 3000 give lcms [25806, 253] and t_long 25,843,
    # so the job generates 3 * 3001 + 25,844 = 34,847 samples.  Its peak
    # is the long orbit and the level pipelines; the chain and orbit sups
    # walk the window in blocks of core.BLOCK steps.  With blocks of 2^16
    # steps this read 32.2 B a sample, and with 2^11 about 10.4.
    argv = ["ladder", "--map", json.dumps({"kind": "ar", "d": 2,
                                           "p": [2.0 * math.cos(NEAR_QUARTER), -1.0]}),
            f"--y0=0.8,{0.8 * math.cos(NEAR_QUARTER)!r}", "--Ks", "128,192,256",
            "--horizon", "3000", "--force"]
    traced_peak(argv + ["--out", str(tmp_path / "warm")])
    peak = traced_peak(argv + ["--out", str(tmp_path / "ladder")])
    plan = read_json(tmp_path / "ladder" / "ladder.json")["plan"]
    assert plan["lcms"] == [25806, 253]
    assert max(t + w for t, w in zip(plan["T_prime"], plan["lcms"])) == 25843
    assert peak / 34847 <= 14


# A rotation by 1.1 rad: its 3-level ladder below needs an orbit longer
# than the horizon, T'_1 + lcm(L_1, L_2) = 9 + 680 steps.
ROTATION = json.dumps({"kind": "ar", "d": 2, "p": [2.0 * math.cos(1.1), -1.0]})
ROTATION_Y0 = f"--y0=0.8,{0.8 * math.cos(1.1)!r}"


def pipeline_argv(command, H, out):
    if command == "ladder":
        return ["ladder", "--map", ROTATION, ROTATION_Y0, "--Ks", "16,32,64",
                "--horizon", str(H), "--out", out]
    return [command, *SPIRAL, "--horizon", str(H), "--out", out]


@pytest.mark.parametrize("command", ["run", "verify", "ladder"])
def test_orbit_samples_are_those_the_traced_bench_counts(tmp_path, capsys, monkeypatch, command):
    # bench/'s traced runs sum len(result.samples) over every generate_orbit
    # call, through each module binding that holds it, and require H + 1
    # for run and verify and len(Ks)*(H + 1) + t_long + 1 for a ladder,
    # where t_long = max(max_j T'_j + lcm_j, H).
    from aporbit import analysis

    samples = []

    def counted(generate_orbit):
        def wrapper(*args):
            result = generate_orbit(*args)
            samples.append(len(result.samples))
            return result
        return wrapper

    for module in (orbit, analysis):
        monkeypatch.setattr(module, "generate_orbit", counted(module.generate_orbit))
    H = 400
    assert main(pipeline_argv(command, H, str(tmp_path))) == 0
    if command != "ladder":
        assert samples == [H + 1]
        return
    plan = read_json(tmp_path / "ladder.json")["plan"]
    t_long = max(max(t + w for t, w in zip(plan["T_prime"], plan["lcms"])), H)
    assert t_long == 689
    assert sum(samples) == 3 * (H + 1) + t_long + 1


@pytest.mark.parametrize("command,csvs", [("run", False), ("run", True), ("verify", False),
                                          ("ladder", False)])
def test_each_sample_is_quantized_once_per_reader(tmp_path, capsys, monkeypatch, command, csvs):
    # The pipeline quantizes each of its H + 1 samples once;
    # shadow_periodicity reads its window once more (run and each ladder
    # level), and orbit.csv's ybar columns once more.  verify and the
    # ladder read nothing else.
    rows = count_quantized_rows(monkeypatch)
    H = orbit.SHADOW_WINDOW + 1808
    argv = pipeline_argv(command, H, str(tmp_path)) + ([] if csvs else ["--json-only"])
    assert main(argv) == 0
    levels = 3 if command == "ladder" else 1
    least = levels * (H + 1) + (H + 1) * csvs
    if command != "verify":
        least += levels * orbit.SHADOW_WINDOW
    assert rows[0] == least


def test_no_reader_quantizes_more_than_a_block_at_once(tmp_path, capsys, monkeypatch):
    # `_quantize_rows` takes what it is given in one pass, with temporaries
    # of that size, so every reader of a long shadow must hand it at most
    # core.BLOCK rows: the pipeline, the periodicity window, run's ybar
    # columns, the ladder's levels and sups, and the census's chains.
    rows = count_quantized_rows(monkeypatch)
    H = 3 * core.BLOCK + 17
    for command in ("run", "verify", "ladder"):
        assert main(pipeline_argv(command, H, str(tmp_path / command))) == 0
    # K = 64, d = 2: the chain reads up to 4,226 of 42,250 states
    assert main(["census", "--d", "2", "--K", "64", "--n", "2", "--generator", "random_ar",
                 "--out", str(tmp_path / "census")]) == 0
    assert rows[0] > H and rows[1] <= core.BLOCK


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


def test_census_whose_generator_keeps_failing_is_a_pipeline_error(tmp_path, capsys,
                                                                  monkeypatch):
    from aporbit.errors import DanglingState

    def fails(d, K, rng, horizon):
        raise DanglingState("state (1, 2) has no outgoing transition", (1, 2), 7)

    monkeypatch.setattr(orbit, "_census_random_ar", fails)
    out = tmp_path / "c"
    assert main(["census", "--d", "2", "--K", "3", "--n", "4", "--generator", "random_ar",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: census generator kept failing: 40 of 40 draws gave no chain; "
                   "the last: state (1, 2) has no outgoing transition\n")
    assert os.listdir(out) == []


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


@pytest.mark.parametrize("map_json", [
    '{"kind": "ar", "d": 3, "p": [0.5]}',
    '{"kind": "expr", "d": 5, "exprs": ["0.5*x1", "x1"]}',
])
def test_map_with_a_wrong_d_is_config_error(tmp_path, capsys, map_json):
    out = tmp_path / "out"
    code = main(["run", "--map", map_json, "--y0", "0.3", "--K", "4", "--horizon", "10",
                 "--out", str(out)])
    assert code == 3
    assert "dimension" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("map_json", [
    '{"kind": "ar", "p": [0.5, 0.25]}',
    '{"kind": "expr", "exprs": ["0.5*x1", "x1"]}',
])
def test_map_without_d_runs(tmp_path, map_json):
    out = tmp_path / "out"
    code = main(["run", "--map", map_json, "--y0", "0.3,0.1", "--K", "4", "--horizon", "10",
                 "--out", str(out)])
    assert code == 0
    assert read_json(out / "chain.json")["d"] == 2


def test_map_nested_too_deeply_is_config_error(tmp_path):
    # in a child process, so that a traceback would show on its stderr
    from test_demos import src_env

    source = "0.5*" + "(" * 300 + "x1" + ")" * 300
    map_json = json.dumps({"kind": "expr", "d": 1, "exprs": [source]})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "aporbit.cli", "run", "--map", map_json, "--y0=0.3",
         "--K", "4", "--out", str(out)],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:") and "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


WRONGLY_TYPED_MAPS = [
    '{"kind":"ar","p":5}',
    '{"kind":"ar","p":[[1]]}',
    '{"kind":"delay","d":1,"expr":1}',
    '{"kind":"expr","exprs":[1]}',
    '{"kind":"expr","exprs":null}',
    # an empty recurrence once ran as the constant map z -> 0.0
    '{"kind":"ar","p":[]}',
    # a JSON boolean once ran as the number 1.0 or 0.0
    '{"kind":"ar","p":[true]}',
    # a JSON string once ran as the numbers or expressions it spells
    '{"kind":"ar","p":"12"}',
    '{"kind":"ar","p":["0.5"]}',
    '{"kind":"expr","exprs":"00"}',
]
WRONGLY_TYPED_SPECS = [
    '{"p":5,"z0":[0.1]}',
    '{"p":[0.5],"z0":0.1}',
    '[0.5]',
    '{"p":[0.5],"z0":[null]}',
    '{"p":[true],"z0":[0.5]}',
    '{"p":[0.5],"z0":[false]}',
    '{"p":"5","z0":"0"}',
    # a spec's faults once exited 2, as pipeline errors
    '{"p":[0.5,0.2],"z0":[0.1]}',
    '{"p":[],"z0":[]}',
]


@pytest.mark.parametrize("form, text", [
    *[("inline map", text) for text in WRONGLY_TYPED_MAPS],
    *[("map file", text) for text in WRONGLY_TYPED_MAPS + ['[0.5]']],
    *[("spec file", text) for text in WRONGLY_TYPED_SPECS],
])
def test_wrongly_typed_json_is_config_error(tmp_path, capsys, form, text):
    if form != "inline map":
        path = tmp_path / "definition.json"
        path.write_text(text)
        text = str(path)
    argv = (["ar", "--spec", text] if form == "spec file"
            else ["run", "--map", text, "--y0=0.3", "--K", "4", "--horizon", "5"])
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", ["map-is-a-directory", "spec-is-a-directory",
                                  "out-is-a-file"])
def test_unusable_path_is_config_error(tmp_path, capsys, case):
    folder = tmp_path / "folder"
    folder.mkdir()
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = tmp_path / "o"
    argv = {
        "map-is-a-directory": ["run", "--map", str(folder), "--y0=0.3", "--K", "4",
                               "--out", str(out)],
        "spec-is-a-directory": ["ar", "--spec", str(folder), "--out", str(out)],
        "out-is-a-file": ["run", "--map", HALF, "--y0=0.3", "--K", "4", "--out", str(taken)],
    }[case]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() and os.listdir(folder) == []
    assert taken.read_text() == "keep\n"


def test_bad_vector_is_config_error(tmp_path, ar_contracting):
    code = main([
        "run", "--map", ar_contracting, "--y0", "zebra", "--K", "2",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["run", "--map", HALF, "--y0=1,,", "--K", "4", "--horizon", "5"],
    ["verify", "--map", HALF, "--y0=,0.5", "--K", "4", "--horizon", "5"],
    ["ladder", "--map", QUARTER, "--y0=1,0", "--Ks", "4,,8"],
    ["ladder", "--map", QUARTER, "--y0=1,0", "--Ks", "4,8,"],
], ids=["run-y0", "verify-y0", "ladder-Ks", "ladder-Ks-trailing"])
def test_empty_list_items_are_config_errors(tmp_path, capsys, argv):
    # an empty item between commas is refused, not dropped
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--map", HALF, "--y0=0.3", "--K", "abc"],
    ["run", "--map", HALF, "--K", "4"],
    ["census", "--d", "2", "--K", "3", "--n", "4", "--generator", "foo"],
    ["bogus"],
    # run and ar draw nothing, so they take no seed
    ["run", "--map", HALF, "--y0=0.3", "--K", "4", "--seed", "5"],
    ["ar", "--spec", "spec.json", "--seed", "5"],
], ids=["run-K-not-int", "run-without-y0", "census-unknown-generator", "unknown-command",
        "run-seed", "ar-seed"])
def test_usage_errors_are_config_errors(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: aporbit") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--emit-curve" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", "--K", "8"],
    ["verify", "--K", "8"],
    ["ladder", "--Ks", "4,8"],
], ids=["run", "verify", "ladder"])
def test_y0_of_the_wrong_length_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                           argv):
    from aporbit import maps

    def refuse(*args, **kwargs):
        raise AssertionError("estimate_lipschitz ran before --y0 was checked")

    monkeypatch.setattr(maps, "estimate_lipschitz", refuse)
    out = tmp_path / "o"
    code = main(argv + ["--map", '{"kind":"ar","d":2,"p":[0.3,-0.9]}', "--y0=0.6",
                        "--out", str(out)])
    assert code == 3
    assert "--y0 needs d=2 coordinates, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_main_builds_no_parser_after_its_first_call(tmp_path, monkeypatch):
    import argparse

    argv = ["census", "--d", "2", "--K", "3", "--n", "4", "--json-only", "--force"]
    assert main(argv + ["--out", str(tmp_path / "first")]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for i in range(3):
        assert main(argv + ["--out", str(tmp_path / f"o{i}")]) == 0
    assert built == []


def test_flags_do_not_carry_over_between_calls(tmp_path, ar_contracting):
    run = ["run", "--map", ar_contracting, "--y0", "0.5", "--K", "4", "--horizon", "10"]
    assert main(run + ["--json-only", "--emit-curve", "--out", str(tmp_path / "a")]) == 0
    assert sorted(os.listdir(tmp_path / "a")) == ["chain.json", "trig.json", "trig_curve.csv"]
    assert main(run + ["--out", str(tmp_path / "b")]) == 0
    assert sorted(os.listdir(tmp_path / "b")) == ["chain.json", "orbit.csv", "trig.json"]
    assert main(run + ["--force", "--out", str(tmp_path / "b")]) == 0
    assert main(run + ["--out", str(tmp_path / "b")]) == 3  # --force is not remembered


def test_main_calls_the_current_cmd_function(tmp_path, monkeypatch):
    from aporbit import cli

    argv = ["census", "--d", "2", "--K", "3", "--n", "4", "--json-only",
            "--out", str(tmp_path / "o")]
    assert main(argv) == 0  # the parser exists before the patch
    seen = []
    monkeypatch.setattr(cli, "cmd_census", lambda args: seen.append(args.n) or 7)
    assert main(argv) == 7
    assert seen == [4]


# Runs one CLI command and reports its exit code and the top-level
# packages it imported.
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
from aporbit.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted({m.split('.')[0] for m in set(sys.modules) - before})]))
"""


@pytest.mark.parametrize("command", ["ar", "run"])
def test_cli_imports_no_third_party_package_but_numpy(tmp_path, command):
    from test_demos import src_env

    if command == "ar":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"p": [1.2, -0.85], "z0": [0.6, 0.3]}))
        argv = ["ar", "--spec", str(spec)]
    else:
        argv = ["run", "--map", '{"kind": "ar", "d": 2, "p": [0.3, -0.9]}',
                "--y0=0.6,0.2", "--K", "16", "--horizon", "200", "--emit-curve"]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv, "--out", str(tmp_path / "o")],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    code, loaded = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, result.stderr
    assert "aporbit" in loaded and "numpy" in loaded
    third_party = set(loaded) - set(sys.stdlib_module_names) - {"aporbit", "numpy"}
    assert not third_party

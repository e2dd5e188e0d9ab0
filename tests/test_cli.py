"""CLI surface: subcommands, file outputs, exit codes, determinism."""

import csv
import json
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aporbit.cli import CSV_BLOCK, _Out, main


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
    assert "--Ks must be >= 1 and strictly increasing" in capsys.readouterr().err
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
])
def test_negative_counts_are_config_errors(tmp_path, capsys, argv, option):
    if argv[0] == "ar":
        spec_path = tmp_path / "s.json"
        spec_path.write_text('{"p": [0.5], "z0": [0.3]}')
        argv = argv + ["--spec", str(spec_path)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    assert option in capsys.readouterr().err


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


@pytest.mark.parametrize("csvs", [False, True], ids=["json-only", "csv"])
def test_run_memory_is_the_orbit_and_the_shadow(tmp_path, capsys, csvs):
    # Past the orbit (16 B a sample here) and the shadow (16 B), every
    # stage works in blocks, so 2*10^5 samples peak at 40 B each or less.
    H = 200_000
    argv = ["run", "--map", '{"kind": "ar", "d": 2, "p": [1.5297, -1.0]}',
            "--y0=0.9,0.688", "--K", "64", "--force"] + ([] if csvs else ["--json-only"])
    traced_peak(argv + ["--horizon", "1000", "--out", str(tmp_path / "warm")])
    peak = traced_peak(argv + ["--horizon", str(H), "--out", str(tmp_path / "run")])
    assert (tmp_path / "run" / "orbit.csv").exists() == csvs
    assert peak / (H + 1) <= 40


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
]
WRONGLY_TYPED_SPECS = [
    '{"p":5,"z0":[0.1]}',
    '{"p":[0.5],"z0":0.1}',
    '[0.5]',
    '{"p":[0.5],"z0":[null]}',
    '{"p":[true],"z0":[0.5]}',
    '{"p":[0.5],"z0":[false]}',
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


def test_bad_vector_is_config_error(tmp_path, ar_contracting):
    code = main([
        "run", "--map", ar_contracting, "--y0", "zebra", "--K", "2",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 3


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

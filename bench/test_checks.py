"""Each artifact check accepts a good artifact and rejects a corrupted one.

    python3 -m pytest bench/test_checks.py -q
"""

import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from aporbit import cli  # noqa: E402
from checks import CheckFailed, KnownFault, MapSpec  # noqa: E402


def produce(job, out):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(job.argv() + ["--out", str(out), "--force"]) == 0
    return str(out)


def edit_json(path, change):
    with open(path) as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def edit_csv(path, row, col, change):
    with open(path) as fh:
        lines = fh.read().split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def test_nearest_node_ties_go_up():
    Y = np.array([[-0.25], [0.25], [-0.2500001], [1.0], [-1.0]])
    assert checks.nearest_nodes(Y, 4).ravel().tolist() == [2, 3, 1, 4, 0]


@pytest.fixture
def run_job():
    spec = MapSpec("ar", (0.3, -0.9))  # decaying spiral; at K=16 the chain has T=23, L=5
    return workloads.RunJob(spec, (0.6, 0.2), 16, 300, emit_curve=True)


def test_run_accepts_good(tmp_path, run_job):
    assert run_job.check(produce(run_job, tmp_path)) == 301


@pytest.mark.parametrize("corrupt", [
    lambda out: edit_csv(os.path.join(out, "orbit.csv"), 7, 3, lambda v: v + 2.0 / 16),
    lambda out: edit_csv(os.path.join(out, "orbit.csv"), 250, 5, lambda v: v - 2.0 / 16),
    lambda out: edit_json(os.path.join(out, "chain.json"), lambda d: d.update(L=d["L"] + 1)),
    lambda out: edit_json(os.path.join(out, "chain.json"), lambda d: d.update(T=d["T"] + 1)),
    lambda out: edit_json(os.path.join(out, "trig.json"),
                          lambda d: d["b"][1].__setitem__(0, d["b"][1][0] + 1e-6)),
    lambda out: edit_csv(os.path.join(out, "trig_curve.csv"), 3, 1, lambda v: v + 1e-6),
], ids=["ybar index", "ystar index", "period+1", "pre-period+1", "trig coeff", "trig curve"])
def test_run_rejects(tmp_path, run_job, corrupt):
    out = produce(run_job, tmp_path)
    corrupt(out)
    with pytest.raises(CheckFailed):
        run_job.check(out)


@pytest.fixture
def verify_job():
    return workloads.VerifyJob(MapSpec("ar", (0.3, -0.9)), (0.6, 0.2), 64, 400)


def test_verify_accepts_good(tmp_path, verify_job):
    assert verify_job.check(produce(verify_job, tmp_path)) == 401


@pytest.mark.parametrize("corrupt", [
    lambda out: edit_json(os.path.join(out, "verify.json"), lambda d: d.update(passed=False)),
    lambda out: edit_json(os.path.join(out, "verify.json"), lambda d: d.update(L=d["L"] - 1)),
    lambda out: edit_csv(os.path.join(out, "verify.csv"), 100, 2, lambda v: v * (1 + 1e-6)),
    lambda out: edit_csv(os.path.join(out, "verify.csv"), 100, 1, lambda v: v + 1e-6),
], ids=["flipped passed", "period-1", "bound", "actual"])
def test_verify_rejects(tmp_path, verify_job, corrupt):
    out = produce(verify_job, tmp_path)
    corrupt(out)
    with pytest.raises(CheckFailed):
        verify_job.check(out)


@pytest.fixture(scope="module")
def ladder_job():
    theta = math.pi / 2 - 0.05
    return workloads.LadderJob(workloads.rotation(theta), (0.8, 0.8 * math.cos(theta)),
                               (16, 32, 64), 600, window=0)


def test_ladder_accepts_good(tmp_path, ladder_job):
    out = produce(ladder_job, tmp_path)
    plan = checks.read_json(os.path.join(out, "ladder.json"))["plan"]
    assert ladder_job.check(out) > 3 * 601
    assert plan["lcms"] == [math.lcm(a, b) for a, b in zip(plan["L"], plan["L"][1:])]


@pytest.mark.parametrize("corrupt", [
    lambda d: d["chain_sups"].__setitem__(0, d["chain_sups"][0] * (1 + 1e-6)),
    lambda d: d["orbit_sups"].__setitem__(1, d["orbit_sups"][1] + 1e-9),
    lambda d: d["plan"]["T_prime"].__setitem__(1, d["plan"]["T_prime"][1] + d["plan"]["L"][0]),
    lambda d: d["plan"]["lcms"].__setitem__(0, d["plan"]["lcms"][0] + 1),
    lambda d: d["plan"]["L"].__setitem__(2, d["plan"]["L"][2] + 1),
    lambda d: d.update(consistent=not d["consistent"]),
], ids=["chain sup", "orbit sup", "T' not minimal", "lcm", "period+1", "flipped consistent"])
def test_ladder_rejects(tmp_path, ladder_job, corrupt):
    out = produce(ladder_job, tmp_path)
    edit_json(os.path.join(out, "ladder.json"), corrupt)
    with pytest.raises(CheckFailed):
        ladder_job.check(out)


@pytest.fixture
def ar_job(tmp_path):
    p, z0 = workloads.bounded_recurrence(np.random.default_rng(3), 6, 2, False)
    return workloads.ARJob(p, z0, workloads._spec_file(str(tmp_path), "spec", p, z0))


def test_ar_accepts_good(tmp_path, ar_job):
    assert ar_job.check(produce(ar_job, tmp_path / "out")) == 0


@pytest.mark.parametrize("corrupt", [
    lambda d: d["roots"]["roots"][0].update(re=d["roots"]["roots"][0]["re"] + 1e-5),
    lambda d: d["decomposition"]["terms"][0].update(coeff_re=d["decomposition"]["terms"][0]["coeff_re"] + 1e-6),
    lambda d: d.update(classification="unbounded"),
], ids=["root", "coefficient", "classification"])
def test_ar_rejects(tmp_path, ar_job, corrupt):
    out = produce(ar_job, tmp_path / "out")
    edit_json(os.path.join(out, "ar.json"), corrupt)
    with pytest.raises(CheckFailed):
        ar_job.check(out)


def test_ar_flipped_convergence_flag_is_the_known_fault(tmp_path, ar_job):
    out = produce(ar_job, tmp_path / "out")
    edit_json(os.path.join(out, "ar.json"), lambda d: d["report"].update(convergence_ok=False))
    with pytest.raises(KnownFault):
        ar_job.check(out)


def test_ar_cancelling_remainder_shows_the_known_fault(tmp_path):
    p, z0 = (0.0, 0.25), (0.0, 0.8)  # roots +-0.5, coefficients +-0.2: R(0) = 0
    job = workloads.ARJob(p, z0, workloads._spec_file(str(tmp_path), "spec", p, z0))
    with pytest.raises(KnownFault):
        job.check(produce(job, tmp_path / "out"))


@pytest.mark.parametrize("generator", ["random_map", "random_ar"])
def test_census_accepts_and_rejects(tmp_path, generator):
    job = workloads.CensusJob(2, 3, 20, 11, generator)
    out = produce(job, tmp_path)
    job.check(out)
    edit_csv(os.path.join(out, "census.csv"), 4, 2, lambda v: v + 1)
    with pytest.raises(CheckFailed):
        job.check(out)


def test_census_rejects_histogram(tmp_path):
    job = workloads.CensusJob(2, 3, 20, 11, "random_map")
    out = produce(job, tmp_path)
    edit_json(os.path.join(out, "census.json"),
              lambda d: d["histogram_L"].update({k: v + 1 for k, v in list(d["histogram_L"].items())[:1]}))
    with pytest.raises(CheckFailed):
        job.check(out)


@pytest.mark.parametrize("spec, inside", [(MapSpec("ar", (0.3, 0.4)), True),
                                          (MapSpec("ar", (0.7, 0.6)), False)])
def test_validate_accepts_and_rejects(tmp_path, spec, inside):
    job = workloads.ValidateJob(spec, inside)
    out = produce(job, tmp_path)
    job.check(out)
    edit_json(os.path.join(out, "validate.json"), lambda d: d.update(passed=not d["passed"]))
    with pytest.raises(CheckFailed):
        job.check(out)

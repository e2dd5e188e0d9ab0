"""Golden artifacts: identical config and seed must reproduce every CLI
artifact bit for bit, across refactors of the pipeline.

Each config runs one `aporbit` command and compares the sha256 of every
file it writes with a digest recorded from the per-sample reference
implementation.  The `"out"` line of a JSON artifact's config is dropped
before hashing, because it names the temporary output directory.  Maps
are given inline; `ar` specs are written into the temporary directory
and their `"spec"` line is dropped the same way, so that no other path
reaches an artifact.

An intended output change regenerates the table with
`PYTHONPATH=src python tests/test_golden.py` and says so in CHANGES.md.
"""

import hashlib
import json
import os
import re
import sys

import pytest

from aporbit.cli import main

ROT = '{"kind": "ar", "d": 2, "p": [0.3, -0.9]}'
EXPR = ('{"kind": "expr", "d": 2, "exprs": '
        '["0.95*cos(2.7*x2) - 0.02*x1", "tanh(1.5*x1) / (1.2 + x2*x2)"]}')
DELAY = '{"kind": "delay", "d": 3, "expr": "0.97*sin(2.9*x3) - 0.01*min(x2, abs(x1))"}'
TENT = '{"kind": "builtin", "d": 2, "name": "tent"}'
QUARTER = '{"kind": "ar", "d": 2, "p": [0.0, -1.0]}'
NEG = '{"kind": "expr", "d": 1, "exprs": ["-x1"]}'
NEAR_QUARTER = '{"kind": "ar", "d": 2, "p": [0.1, -1.0]}'
HALF = '{"kind":"ar","d":1,"p":[0.5]}'

CONFIGS = {
    "run_ar": ["run", "--map", ROT, "--y0=0.6,0.2", "--K", "16", "--horizon", "600"],
    "run_expr": ["run", "--map", EXPR, "--y0=0.7,-0.3", "--K", "32", "--horizon", "400"],
    "run_delay": ["run", "--map", DELAY, "--y0=0.7,-0.3,0.2", "--K", "32",
                  "--horizon", "500"],
    # several CSV blocks at d = 3
    "run_delay_long": ["run", "--map", DELAY, "--y0=0.7,-0.3,0.2", "--K", "32",
                       "--horizon", "3000"],
    "run_builtin": ["run", "--map", TENT, "--y0=0.3,-0.71", "--K", "9", "--horizon", "300"],
    # K=1 merges distinct orbit points: a conflicted table
    "run_conflicts": ["run", "--map", QUARTER, "--y0=1,0", "--K", "1", "--horizon", "40"],
    # +-0.25 are exact midpoints of the K=4 grid: every sample is an exact tie
    "run_tie": ["run", "--map", NEG, "--y0=0.25", "--K", "4", "--horizon", "20"],
    # decays through tiny positive values onto 0, the midpoint of the odd K=3 grid
    "run_decay_tie": ["run", "--map", HALF, "--y0=0.3", "--K", "3", "--horizon", "1200"],
    "run_curve": ["run", "--map", ROT, "--y0=-0.5,0.45", "--K", "24", "--horizon", "800",
                  "--emit-curve"],
    # longer than one CSV block of the array writer
    "run_long": ["run", "--map", ROT, "--y0=0.6,0.2", "--K", "64", "--horizon", "9000"],
    "verify_analytic": ["verify", "--map", ROT, "--y0=0.6,0.2", "--K", "32",
                        "--horizon", "5000"],
    "verify_sampled": ["verify", "--map", EXPR, "--y0=0.7,-0.3", "--K", "16",
                       "--horizon", "300", "--samples", "512", "--seed", "5"],
    "ladder": ["ladder", "--map", NEAR_QUARTER, "--y0=0.8,0.1", "--Ks", "4,8,16",
               "--horizon", "300"],
    "census_ar": ["census", "--d", "2", "--K", "5", "--n", "25", "--seed", "3",
                  "--generator", "random_ar"],
    # the default generator: a lazily drawn random map on the grid states
    "census_map": ["census", "--d", "3", "--K", "4", "--n", "40", "--seed", "11"],
    # census.csv longer than one CSV block: the integer path of the writer
    "census_block": ["census", "--d", "2", "--K", "4", "--n", "1100", "--seed", "7"],
    "validate_expr": ["validate-map", "--map", EXPR, "--samples", "300", "--seed", "2"],
    "ar_mixed": ["ar", "--horizon", "300"],
    "ar_unbounded": ["ar"],
}

SPECS = {
    # roots 0.3 +- 0.954i (unit circle), 0.6, -0.3 twice, and 0 (a transient)
    "ar_mixed": {"p": [0.6, -0.73, -0.108, 0.2376, 0.054, 0.0],
                 "z0": [0.5, -0.2, 0.1, 0.3, -0.4, 0.2]},
    # a double root at 1: refused, so ar.json holds only roots and verdict
    "ar_unbounded": {"p": [2.0, -1.0], "z0": [0.5, 0.0]},
}

GOLDEN = {
    'ar_mixed': {
        'ar.json': '04ee20759413b966197c7ae576347ff44e93c43d5a989aa8b1dd34c7d8421201',
        'ar_curve.csv': '531c6c95824c0832db0747ad05f77bc1a368fd1ddc86933c7c630bd2ee39d06d',
    },
    'ar_unbounded': {
        'ar.json': '29126148e41dafa494200afa275b721ba312e72ca7a4bee7a91b08ac9d2740b6',
    },
    'census_ar': {
        'census.csv': '39baab8adcee48fb5767fdd2b43d7a4a688280436d3e13ea351dcf4706f49c8c',
        'census.json': 'd1104d30a21be3ba22e9719620cb690a01e136f25dde64cac69ec29a88324940',
    },
    'census_block': {
        'census.csv': '69eff398b8a151817bbbb68b2cd0275f2b72c2fb9674804a24b290619ae0e668',
        'census.json': 'a4aa745b2502140a1ec7a2762c4a73d92364a9c7490f86339f51dae13daf117d',
    },
    'census_map': {
        'census.csv': 'fdec8fedeb24edf4992cb72e8918baa082d40f1e1aa2a1907793dbfb2ef1ff2a',
        'census.json': 'fe56b9c9e5c0f9f324274d2fa48f8c414a8668bccd55a7506613d6f4d7def02b',
    },
    'ladder': {
        'ladder.json': '37730c66028c9f8edc406341385f41a2ab2d4fdbc1d6145434fb357757f6a72d',
    },
    'run_ar': {
        'chain.json': '1a078cae9106bca103b5a3969557db109f2e7b77f9fd3c1b59de77ef98aaf30e',
        'orbit.csv': '74dbab633f49e19f708025df55f38971ab212dd6d1156a6fc9846c4e0023d621',
        'trig.json': '2eb5fbe456c5efd5489af0cfd0d1a151aac74b9bef526bcc6283cf2567e0a09b',
    },
    'run_builtin': {
        'chain.json': '7dbd52be99a9fe67ad2d1ceda36464ca2a5f15c1b00d4339f89e931bd6f5a5d5',
        'orbit.csv': '3fa46d9d56737f4648e35d5b5624f9ff528f2c4fe4219bac2959bc24155c4002',
        'trig.json': '9352b99292170dcb55e328879c60030e0e3d01474746fdfb697e2632247e5d91',
    },
    'run_conflicts': {
        'chain.json': '00cfcac8ebce1cd9f91c3d3d85f026c0e9fb0bd97dd3c627b90e2634f8f7e4d7',
        'orbit.csv': '8b579f9697c1f2a1bb746a701b5079bda0b1866deeb487c60f3520a8f1dea1fe',
        'trig.json': 'a492918eb3e83695e437e598968e98ded902d22cca7fdda49822a67d23084459',
    },
    'run_curve': {
        'chain.json': 'f9b098fd711d6146a125d6387908f8587ab89669c3e1426448cbb11afaba602b',
        'orbit.csv': '8ca9c5f75a9b18bc362738b0a66c8f5dd95ad803eb0c3cb35b85434afad2eb4c',
        'trig.json': '3bd292d5fa48e1cf387a2ba3448d058484de5f014a5d0f73de93c3ae87189f34',
        'trig_curve.csv': '3c691135f03aac2c32bc761af25fe14a58f9b21d87b9dc1aa59695aa2b90414c',
    },
    'run_decay_tie': {
        'chain.json': 'ab45b771d713662eb12a0c221a406e0312430ec9ca43bb81f036243d91fa3dbb',
        'orbit.csv': 'd1079860448b9c1dd36a78247cfe229f184a442e7de41d8a7fa9ef2cdc923b62',
        'trig.json': 'b428897f5aa6ff9fc2d2ff3618be185a7f5300c090263217dfdcbd5e9832097c',
    },
    'run_delay': {
        'chain.json': '3b24bfa5da3beaf2b7b4d8a2bd676e547333407b297a685a58adb989637c8a44',
        'orbit.csv': '277d591982a52de1b579ff256c0af355c3aab1125c7278f7c5e93f4937e09dd2',
        'trig.json': '32757627c4c1c35d112a6a43047d8dab164d254115df69082c60fed25736df06',
    },
    'run_delay_long': {
        'chain.json': '4a78686f3c84bbc5d85e4a47c07d56c7622f6e5a3e3448951ebb9fc79aaae452',
        'orbit.csv': '143567ced393859862abc825dfd4cd26e373c3486145ac7bb710196e79a2f549',
        'trig.json': 'e28ebe95dbdc56442c5b25e6df2e8869eb3d405f7dc9123a9433e0b37c443d24',
    },
    'run_expr': {
        'chain.json': '7c53f82c82c6a2b4ba585305f9b3b405ed4fb55179b203d05c3b763cbfd98025',
        'orbit.csv': 'ebeb9f629da561dd7f16a498a173f515c329a32f4d854d0df46abf96d5539189',
        'trig.json': '36a2eced24ed791b94dd8eed997d628d9e77fa98684113bf6ecfc12cd748944b',
    },
    'run_long': {
        'chain.json': '3eba164cbe66023c101f6b302afd64b2c7e0951e638d672262597cf29ebaf43a',
        'orbit.csv': 'c73dec1487a135090fea9b6d36de9137d4c473cca53b0f590eb399e6f63c33e8',
        'trig.json': 'd72a4f549313bc01ad6e23ac77885a3bfc132e922fa39ca3418369a46cfeaf18',
    },
    'run_tie': {
        'chain.json': 'a382828d541af9f403e7b7f8fcade3bcf71ca726d2dae8ed0bbe6cb3a5a77ec3',
        'orbit.csv': 'ea79937e4647e17591679ca57c60e8f5e9eff2d675abe0893c34ac259a14283b',
        'trig.json': 'e70c933c36fa991328aacd6f78d384544e4d4d020dd8c940ebc4a97213693f72',
    },
    'validate_expr': {
        'validate.json': '8216d36f4a8d4cd38e9e07477d6fd11043637cd4ce20e601c26e96655b37334f',
    },
    'verify_analytic': {
        'verify.csv': '2fcb30f2ef528293b8b95007fb982bee413b96fedb86d1abd6cbae96fc3ad7df',
        'verify.json': 'c4b550890c475444a53832f466b4bdf052bb60bac6abd5479e23c5c913e9da09',
    },
    'verify_sampled': {
        'verify.csv': '27dc4033b6c7154bc73be203776f2a5852d0a91a2316e3e3396152ad77714533',
        'verify.json': 'aee17cf17af9e4c4d779c4cf36a53ed2f6bb1855af4ea70831c195cb3d188737',
    },
}


def digests(out_dir) -> dict:
    """sha256 per artifact file, JSON `"out"` and `"spec"` config lines removed."""
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            data = re.sub(rb'\n *"(?:out|spec)": "[^"\n]*",?', b"", data)
        found[name] = hashlib.sha256(data).hexdigest()
    return found


def produce(name, out_dir) -> dict:
    argv = CONFIGS[name] + ["--out", str(out_dir)]
    if name in SPECS:
        spec = os.path.join(os.path.dirname(str(out_dir)), f"{name}.spec.json")
        with open(spec, "w") as fh:
            json.dump(SPECS[name], fh)
        argv += ["--spec", spec]
    assert main(argv) == 0
    return digests(out_dir)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_artifacts(tmp_path, capsys, name):
    assert produce(name, tmp_path / name) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null:
        table = {}
        for name in sorted(CONFIGS):
            stdout, sys.stdout = sys.stdout, null
            try:
                table[name] = produce(name, os.path.join(tmp, name))
            finally:
                sys.stdout = stdout
    print("GOLDEN = {")
    for name, files in table.items():
        print(f"    {name!r}: {{")
        for fname, digest in files.items():
            print(f"        {fname!r}: {digest!r},")
        print("    },")
    print("}")

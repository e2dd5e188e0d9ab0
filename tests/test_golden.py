"""Golden artifacts: identical config and seed must reproduce every CLI
artifact bit for bit, across refactors of the pipeline.

Each config runs one `aporbit` command and compares the sha256 of every
file it writes with a digest recorded from the per-sample reference
implementation.  The `"out"` line of a JSON artifact's config is dropped
before hashing, because it names the temporary output directory.  Maps
are given inline so that no other path reaches an artifact.

An intended output change regenerates the table with
`PYTHONPATH=src python tests/test_golden.py` and says so in CHANGES.md.
"""

import hashlib
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

CONFIGS = {
    "run_ar": ["run", "--map", ROT, "--y0=0.6,0.2", "--K", "16", "--horizon", "600"],
    "run_expr": ["run", "--map", EXPR, "--y0=0.7,-0.3", "--K", "32", "--horizon", "400"],
    "run_delay": ["run", "--map", DELAY, "--y0=0.7,-0.3,0.2", "--K", "32",
                  "--horizon", "500"],
    "run_builtin": ["run", "--map", TENT, "--y0=0.3,-0.71", "--K", "9", "--horizon", "300"],
    # K=1 merges distinct orbit points: a conflicted table
    "run_conflicts": ["run", "--map", QUARTER, "--y0=1,0", "--K", "1", "--horizon", "40"],
    # +-0.25 are exact midpoints of the K=4 grid: every sample takes the Fraction path
    "run_tie": ["run", "--map", NEG, "--y0=0.25", "--K", "4", "--horizon", "20"],
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
    "validate_expr": ["validate-map", "--map", EXPR, "--samples", "300", "--seed", "2"],
}

GOLDEN = {
    'census_ar': {
        'census.csv': '39baab8adcee48fb5767fdd2b43d7a4a688280436d3e13ea351dcf4706f49c8c',
        'census.json': 'd1104d30a21be3ba22e9719620cb690a01e136f25dde64cac69ec29a88324940',
    },
    'ladder': {
        'ladder.json': '37730c66028c9f8edc406341385f41a2ab2d4fdbc1d6145434fb357757f6a72d',
    },
    'run_ar': {
        'chain.json': '1a078cae9106bca103b5a3969557db109f2e7b77f9fd3c1b59de77ef98aaf30e',
        'orbit.csv': '74dbab633f49e19f708025df55f38971ab212dd6d1156a6fc9846c4e0023d621',
        'trig.json': '7f2f2b29997762ba2fbd2613ccb34666bab384d3608912b98d22a0c72050b54b',
    },
    'run_builtin': {
        'chain.json': '7dbd52be99a9fe67ad2d1ceda36464ca2a5f15c1b00d4339f89e931bd6f5a5d5',
        'orbit.csv': '3fa46d9d56737f4648e35d5b5624f9ff528f2c4fe4219bac2959bc24155c4002',
        'trig.json': '9cbd72b4f987537dd6cb5368885c8bca9fbc6fd1a8b3690363fbb55627e42990',
    },
    'run_conflicts': {
        'chain.json': '00cfcac8ebce1cd9f91c3d3d85f026c0e9fb0bd97dd3c627b90e2634f8f7e4d7',
        'orbit.csv': '8b579f9697c1f2a1bb746a701b5079bda0b1866deeb487c60f3520a8f1dea1fe',
        'trig.json': 'a492918eb3e83695e437e598968e98ded902d22cca7fdda49822a67d23084459',
    },
    'run_curve': {
        'chain.json': 'f9b098fd711d6146a125d6387908f8587ab89669c3e1426448cbb11afaba602b',
        'orbit.csv': '8ca9c5f75a9b18bc362738b0a66c8f5dd95ad803eb0c3cb35b85434afad2eb4c',
        'trig.json': '543c7a0f6a1b232ecd37d6925954b766c1e5574cb8515656984f9596570bc9dd',
        'trig_curve.csv': 'ac8d027dcc26b2762b04977b0609aa18b86db06601623fac7a02b55fe58dd2cf',
    },
    'run_delay': {
        'chain.json': '3b24bfa5da3beaf2b7b4d8a2bd676e547333407b297a685a58adb989637c8a44',
        'orbit.csv': '277d591982a52de1b579ff256c0af355c3aab1125c7278f7c5e93f4937e09dd2',
        'trig.json': 'ca6eb1b024c26a90b27169041355c057f311be2d6ea91220e298aba136989100',
    },
    'run_expr': {
        'chain.json': '7c53f82c82c6a2b4ba585305f9b3b405ed4fb55179b203d05c3b763cbfd98025',
        'orbit.csv': 'ebeb9f629da561dd7f16a498a173f515c329a32f4d854d0df46abf96d5539189',
        'trig.json': '698bb2032b834f798e7dc26745dfddd447dfd8a9ff720e5f3af2723d205135f6',
    },
    'run_long': {
        'chain.json': '3eba164cbe66023c101f6b302afd64b2c7e0951e638d672262597cf29ebaf43a',
        'orbit.csv': 'c73dec1487a135090fea9b6d36de9137d4c473cca53b0f590eb399e6f63c33e8',
        'trig.json': 'a441e1fc8a08f9ff3f8f91ce45fc092685db2b000e39a97e21613fdb4d9cab9d',
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
        'verify.json': '0124d726509ad68b1fa69c1fa0c75a3fb007800bac8ae96690dc850db4faf950',
    },
    'verify_sampled': {
        'verify.csv': '27dc4033b6c7154bc73be203776f2a5852d0a91a2316e3e3396152ad77714533',
        'verify.json': '78b39d809c904f86ee5a78d8f7a639ecdab2a11c4d827ba949bade02dd7ac644',
    },
}


def digests(out_dir) -> dict:
    """sha256 per artifact file, JSON `"out"` config line removed."""
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            data = re.sub(rb'\n *"out": "[^"\n]*",?', b"", data)
        found[name] = hashlib.sha256(data).hexdigest()
    return found


def produce(name, out_dir) -> dict:
    assert main(CONFIGS[name] + ["--out", str(out_dir)]) == 0
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

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
TURN = '{"kind": "ar", "d": 2, "p": [0.3, -1.0]}'
CONTRACT = ('{"kind": "expr", "d": 2, "exprs": '
            '["0.4*x1 - 0.35*sin(x2)", "0.5*tanh(x1 + 0.3*x2)"]}')

CONFIGS = {
    "run_ar": ["run", "--map", ROT, "--y0=0.6,0.2", "--K", "16", "--horizon", "600"],
    "run_expr": ["run", "--map", EXPR, "--y0=0.7,-0.3", "--K", "32", "--horizon", "400"],
    "run_delay": ["run", "--map", DELAY, "--y0=0.7,-0.3,0.2", "--K", "32",
                  "--horizon", "500"],
    # several CSV blocks at d = 3
    "run_delay_long": ["run", "--map", DELAY, "--y0=0.7,-0.3,0.2", "--K", "32",
                       "--horizon", "3000"],
    "run_builtin": ["run", "--map", TENT, "--y0=0.3,-0.71", "--K", "9", "--horizon", "300"],
    # the orbit sits on the fixed point (-1, -1) from t = 56 and the chain
    # has period 10, so orbit.csv's rows repeat with period 10 across many
    # CSV blocks
    "run_tent_long": ["run", "--map", TENT, "--y0=0.3,-0.71", "--K", "9",
                      "--horizon", "5000"],
    # K=1 merges distinct orbit points: a conflicted table
    "run_conflicts": ["run", "--map", QUARTER, "--y0=1,0", "--K", "1", "--horizon", "40"],
    # +-0.25 are exact midpoints of the K=4 grid: every sample is an exact tie
    "run_tie": ["run", "--map", NEG, "--y0=0.25", "--K", "4", "--horizon", "20"],
    # 0.0, -0.0, 0.0, ...: equal values at lag 1, equal bits only at lag 2
    "run_signed_zero": ["run", "--map", NEG, "--y0=0.0", "--K", "4", "--horizon", "1500"],
    # decays through tiny positive values onto 0, the midpoint of the odd K=3 grid
    "run_decay_tie": ["run", "--map", HALF, "--y0=0.3", "--K", "3", "--horizon", "1200"],
    "run_curve": ["run", "--map", ROT, "--y0=-0.5,0.45", "--K", "24", "--horizon", "800",
                  "--emit-curve"],
    # a rotation whose period L = 699 (T = 436) is longer than one CSV
    # block, so the curve's blocks start at different rows of the period
    "run_curve_long": ["run", "--map", TURN, "--y0=0.6,0.2", "--K", "1024",
                       "--horizon", "2500", "--emit-curve"],
    # longer than one CSV block of the array writer
    "run_long": ["run", "--map", ROT, "--y0=0.6,0.2", "--K", "64", "--horizon", "9000"],
    "verify_analytic": ["verify", "--map", ROT, "--y0=0.6,0.2", "--K", "32",
                        "--horizon", "5000"],
    "verify_sampled": ["verify", "--map", EXPR, "--y0=0.7,-0.3", "--K", "16",
                       "--horizon", "300", "--samples", "512", "--seed", "5"],
    # three blocks of the sampled gamma, the last with an odd sample
    "verify_sampled_blocks": ["verify", "--map", EXPR, "--y0=0.7,-0.3", "--K", "16",
                              "--horizon", "300", "--samples", "2049", "--seed", "5"],
    "ladder": ["ladder", "--map", NEAR_QUARTER, "--y0=0.8,0.1", "--Ks", "4,8,16",
               "--horizon", "300"],
    # odd grids: the chain sups are where a fused multiply-add and the plain
    # sum of squares round apart, so this pins the distance kernel
    "ladder_odd": ["ladder", "--map", NEAR_QUARTER, "--y0=0.8,0.1", "--Ks", "7,21,63",
                   "--horizon", "300"],
    # a contracting map with a call: the ladder's gamma is sampled
    "ladder_sampled": ["ladder", "--map", CONTRACT, "--y0=0.8,-0.6", "--Ks", "7,21,63",
                       "--horizon", "300", "--seed", "2"],
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
        'ladder.json': '9b86136afdcf40185a56a70fcbe06feaaae41a074330b333316021f57ba8baf4',
    },
    'ladder_odd': {
        'ladder.json': 'd512e6e0c5f3b42e7351b0902d0a804dd80eca6feb46e02db1ca8a241ff31486',
    },
    'ladder_sampled': {
        'ladder.json': '82999fc262cb7381ca593ed93ddc874611f5962bb605f86c0e88ec1b6673655f',
    },
    'run_ar': {
        'chain.json': '8b52e7c7736ead6243c2f33102bca8486fbaf1f608fb3dacd2ed1814293350ff',
        'orbit.csv': '74dbab633f49e19f708025df55f38971ab212dd6d1156a6fc9846c4e0023d621',
        'trig.json': '21562c4f9e43213415cb0dc5039c4aef7303c352e7588344061333828f3e2700',
    },
    'run_builtin': {
        'chain.json': '84fb88f98f7279df7d6ee6378a6ae080826215c170b83d55965c681363632fdb',
        'orbit.csv': '3fa46d9d56737f4648e35d5b5624f9ff528f2c4fe4219bac2959bc24155c4002',
        'trig.json': '5f23317534d4d5109dc8c52709bb50800e27899d41aed3f201a16476b8cc37a0',
    },
    'run_conflicts': {
        'chain.json': 'e64c3097ffac62cf132745049ca0d5f0dc353cbcec59b5ba06d13855dec7726f',
        'orbit.csv': '8b579f9697c1f2a1bb746a701b5079bda0b1866deeb487c60f3520a8f1dea1fe',
        'trig.json': '4126c1f1c6cf47c22ce04e48c5fbbe1bb804b9bf8fb931a8a1d7ac78627b6143',
    },
    'run_curve': {
        'chain.json': '435142b00d831d5e83e0f068d386fae8dc9d7b26c41fc18307994e7a2d55e567',
        'orbit.csv': '8ca9c5f75a9b18bc362738b0a66c8f5dd95ad803eb0c3cb35b85434afad2eb4c',
        'trig.json': '4c8c7240261bbbd1c927e0e83e0545e20715265a852c596639226ad5ce4f24f5',
        'trig_curve.csv': '7f4f022c161bf902022c86d0666fda0cc989f4bcca4541870249df969ea2c88a',
    },
    'run_curve_long': {
        'chain.json': 'f788cc09ac02ce408cf2a8c0efaa7efd7d2aae332f7e9edbb65682783b9db36f',
        'orbit.csv': '9378d485df189610d871ff46e9e83277f410f49738ffede3abe109dfa37d3386',
        'trig.json': '6df382f43c5529727033a88e789c47be81ce12ac2113c63c7d89d0b90039dbb4',
        'trig_curve.csv': '3d701adacda3cfb8b3a88ef09008434c10e4b9802bfb025f4a31c1dbac1df1d1',
    },
    'run_decay_tie': {
        'chain.json': '4247f6d08b38d3b5b3d71f849fc10d324115c15b3dea86d25c4de51bca9ce1ca',
        'orbit.csv': 'd1079860448b9c1dd36a78247cfe229f184a442e7de41d8a7fa9ef2cdc923b62',
        'trig.json': '3acd35cbed927383388d11e7686b7ee2b74a049b9179708b10fc5746593f6e42',
    },
    'run_delay': {
        'chain.json': '6f7e5e295a044bf11c559e89299423d3a311528da5ad7cce168e635b143ee23c',
        'orbit.csv': '277d591982a52de1b579ff256c0af355c3aab1125c7278f7c5e93f4937e09dd2',
        'trig.json': 'f71e59a1a68484244fa6fa47a63d8f6515ce66aee9611a58a6f84eb38a1b7479',
    },
    'run_delay_long': {
        'chain.json': '2b9ed9cb58d6dcc3b874d9367acf19e9e51aee4ca0042563669f4bc58711b176',
        'orbit.csv': '143567ced393859862abc825dfd4cd26e373c3486145ac7bb710196e79a2f549',
        'trig.json': '4b283ee2c148eb4be3d9fd5f112ece51d43192b1094a903647279bdb0be5e2d1',
    },
    'run_expr': {
        'chain.json': 'e1648a81f0f0e4cdaff1f14815918242a188d78235c36bf0facd186e1d579a5f',
        'orbit.csv': 'ebeb9f629da561dd7f16a498a173f515c329a32f4d854d0df46abf96d5539189',
        'trig.json': '6f0334f70d278016dabeaebfe0accba02ee4cf2be0fbe3cfb50f9f9a86f314e9',
    },
    'run_long': {
        'chain.json': '9e116c3bbb60f0a06f25b09b6e5396fb38c33e5b232954f2cbae08a44dc59c72',
        'orbit.csv': 'c73dec1487a135090fea9b6d36de9137d4c473cca53b0f590eb399e6f63c33e8',
        'trig.json': '85c3b4e2dd78d07434d7c84c73f8eff0f8af0ed75cc3c36ddf37190b32b3a6df',
    },
    'run_signed_zero': {
        'chain.json': '368339f6084a796b4aaf0c697b16e5cf5e5192dec0e4b7d5e716c1908241b105',
        'orbit.csv': 'cc841b33447fba1c07244bad26c360f79adb0163b5b0a3578683e0f0c9532cb3',
        'trig.json': 'f055cfb117ac6c3a716904b1aa1e7b8e9d61b09959955f74b7d9a04b232ad6ab',
    },
    'run_tent_long': {
        'chain.json': '9d2944b7b5e154e1639aeab962e6915565e5bce5bc3caa542c69d29b8f09f02d',
        'orbit.csv': 'e52d1290ffa55c53b2a530baf6a846e8e7c087ad05c253a56a00806bffb7867b',
        'trig.json': '2309e2718c5626283fc9ed587f3db5ac68fb89717c44ec948449dfc602a78df5',
    },
    'run_tie': {
        'chain.json': 'c2f385c5a42159473b76a6a8f78317193687bd8155b698a6abf141946ff225dc',
        'orbit.csv': 'ea79937e4647e17591679ca57c60e8f5e9eff2d675abe0893c34ac259a14283b',
        'trig.json': '4abf003192f12f772038d345b2ae0185cbca283522c969fb657ace1cba57c580',
    },
    'validate_expr': {
        'validate.json': '8216d36f4a8d4cd38e9e07477d6fd11043637cd4ce20e601c26e96655b37334f',
    },
    'verify_analytic': {
        'verify.csv': '2fcb30f2ef528293b8b95007fb982bee413b96fedb86d1abd6cbae96fc3ad7df',
        'verify.json': '069b1900dcd98b42675407cd5cdb79504c067967bdb32870b039e55bac3ff1fa',
    },
    'verify_sampled': {
        'verify.csv': 'cb4caebd385083d42b97bc0a0f0e4380ecea63b7e4828783cfce36c8a7f68a59',
        'verify.json': '8c625b7648408f9e9c3a599ea90afe5f43b46991f21bf6758bd596364d6c35ac',
    },
    'verify_sampled_blocks': {
        'verify.csv': 'eb820401bc7f3b330cf0bc97533bf9a4d2bbae9769a38f28e6db3d5f0bbebad4',
        'verify.json': '4eb28c597224ebcbfe08a2149cd516ea44583ee277377d6a434f151bdb38a4fe',
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

"""Pinned command outputs: every command on every shipped config, both formats.

Each case runs ``cli.main`` in-process at the config's defaults and compares
the sha256 of its exit code, stdout and stderr with the digest recorded here.
The long tables of ``simulate`` and ``periodic``, and ``verify``, are also
pinned at a scaled horizon (``--periods 40``) and a scaled step
(``--step 2**-10``), where the table emitter and the oracle do the most
work, and ``sweep`` over 300 harvest fractions.  Five scenario files,
written per test, pin ``simulate`` and ``periodic`` where the time column
cannot reuse a cell from one period earlier.  These are plain command
lines, so they run with the argparse parser made unbuildable: each must
take ``cli.main``'s plain path, and give the same bytes through ``--out``
as on stdout.  A corpus of command lines pins what the argument parser
prints and returns: help, usage errors and a few runs.
A refactor must leave all of them unchanged.  A deliberate change to an
output updates that case's digest in the same commit, and CHANGES.md names
the case and says why its bytes moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from impulsive_logistic import cli
from impulsive_logistic.cli import main

REPO = Path(__file__).resolve().parents[1]

# (command, config name, format) -> sha256 of f"{exit code}\0{stdout}\0{stderr}"
DIGESTS = {
    ("constants", "golden_constant", "text"): "c81f77df1c23747aabc848fc3dc742ef398837608c3534b4b9afa5f7fcdd3384",
    ("constants", "golden_constant", "json"): "e52fc67bb54c96df0173dff3306cc4a0427501af0438d1bbed52104c8de8fbd9",
    ("constants", "overharvest", "text"): "7e0a2c68c71291fd2440a0d44b7da9d040ed290a65714e42b758d39530aedcc3",
    ("constants", "overharvest", "json"): "764b5f3279b6b136f5d14d7cb15c6362695c8d5dcaaed52d023e3b9b8729abc4",
    ("constants", "piecewise_mixed", "text"): "73d3ad9b382dc20804e1989b3d8396a5c41aeb4cecfe7b54f003096421768f43",
    ("constants", "piecewise_mixed", "json"): "9541d5e84bb68490ee65326c31e58505d357c29f44543f7a3b4d609820363641",
    ("constants", "sinusoid_r", "text"): "cbdeab03fe44fc4077a01535abdec18820eb81fc58b52c3c748122898bb0aa57",
    ("constants", "sinusoid_r", "json"): "683114cbbfe624eeefef20d1ca72e67b84a1c641ea9104452c636c98ba0bf55a",
    ("simulate", "golden_constant", "csv"): "1da30bc239bc399981fd6d33227233d8feae08265656f60825502a202ecca1fe",
    ("simulate", "golden_constant", "json"): "f9ff39634bb48012b1b9092e271fadbbfe195ba266c2798e4ee264b8f5ed8644",
    ("simulate", "overharvest", "csv"): "dc7f970a433f9cde1677750578e0d48978f27b393fcf5eb365b01d7b95dc4355",
    ("simulate", "overharvest", "json"): "1c32b453a3b1e86300437743382682ec4cb0729e4223649e61a8c37acc6441aa",
    ("simulate", "piecewise_mixed", "csv"): "523b2e3525cce5f03fbd98b043a0944bdf957a42d759d9b29e6161886641f997",
    ("simulate", "piecewise_mixed", "json"): "d9e6f1d8167b28aad56566a10924375640a88d3d78d20d85a8796b76df15c8e7",
    ("simulate", "sinusoid_r", "csv"): "087d3e7cf238653986c32fcf05ab742d6514800688d2ce7cefe57d79e33c0ea9",
    ("simulate", "sinusoid_r", "json"): "1d3f7691262542782c14d9fccf7e49c70d201d2eba7c5844d97622d07051f8f2",
    ("periodic", "golden_constant", "csv"): "3c065edd95a5a534130d96ab8c306e0e01cad7579523b4546f502c91442c76c0",
    ("periodic", "golden_constant", "json"): "16f0e546b2046bb3afb76d016d6c65a93fed88ac1b7398a9483c959d756b884a",
    ("periodic", "overharvest", "csv"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "piecewise_mixed", "csv"): "2c541a2cd3d946b2be692d6e1b24a835e767776c788130e36b82155f0fa09483",
    ("periodic", "piecewise_mixed", "json"): "3f7943433f030ee5e209e1511d37c759df63328ec9eac3adca5201630b2f4710",
    ("periodic", "sinusoid_r", "csv"): "328a8f0cbcfbb83b09cb5f4bdec1fcfb8b3e98ff89f3932a586335df64110788",
    ("periodic", "sinusoid_r", "json"): "239caf45131cdb7bb4c71087906668d9c5ec98fa35b364720d28be01411b7053",
    ("verify", "golden_constant", "json"): "3965f6d2b876859bd7750628f4e805b14b5631163cd6bc9ae1e7a1d667a6f836",
    ("verify", "golden_constant", "text"): "bf49f06f7c760a0d9a2443f68f071c6315ddd282907ee083aa2da831492f1930",
    ("verify", "overharvest", "json"): "67b888374fe2af2886c0c05b8f3707dbab5b7e8cdf1e5a616668ee299691956f",
    ("verify", "overharvest", "text"): "0140e70084179e6100612552431150a77908ff80867de2b87a2fd923e376d308",
    ("verify", "piecewise_mixed", "json"): "2e6a0ca2381ac867811a8c4167eb9df327194f3cded3a389c118a4dff1bf47df",
    ("verify", "piecewise_mixed", "text"): "2fcc0de08c53271df46dbf935f965470a9948b99ab031c0d3160dc06b7aa587d",
    ("verify", "sinusoid_r", "json"): "599fb657fa26014183177ea98a717e3a6b8047655e21ef0aaeccb68dcf6a5761",
    ("verify", "sinusoid_r", "text"): "17cbf306df92c8211b7377f4df1f48d850991f982711a3563fc9cfa05afe675c",
    ("counterexample", "golden_constant", "json"): "a44c5e55c694688f95b497c3ac9d65b32fe87d09d5d7a5274f99cf8bd2420bf9",
    ("counterexample", "golden_constant", "text"): "c6cb717e305d44eb9570a2dac5894431002defa8f82c4eadc0328258f59fbc65",
    ("counterexample", "overharvest", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("counterexample", "overharvest", "text"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("counterexample", "piecewise_mixed", "json"): "42b078ec9a20e853e4502f1f57f57b6c36792a5c2b2c81bacbad0ce9918737a9",
    ("counterexample", "piecewise_mixed", "text"): "420ab3c30c44e54739f1876677db4d1ced96a79b565d30585c119d2d6f30ec0c",
    ("counterexample", "sinusoid_r", "json"): "9829e341c50c4600a2e6ed96da4e79ada754fd2e4a9eca4e5e9c9e0f5f85ae74",
    ("counterexample", "sinusoid_r", "text"): "cd2cfd6b7e080016a990604c5b872e3c134f8428013e0905f8e5ca5bd5aab179",
    ("sweep", "golden_constant", "csv"): "87e2cd2fabed86619ccc3b7565db5bf7141dc64439f09227e4139c0163a25185",
    ("sweep", "golden_constant", "json"): "1f7fa63c54874b650b6bed5670e46c9bcc225948ae94610b7e5260784847f7ec",
    ("sweep", "overharvest", "csv"): "079b44ecec7b01341dd88c83701a7791756bf79e455d918deb14b9fefb2f6f7a",
    ("sweep", "overharvest", "json"): "cb79727457468d449091efd5c989bc4d3e53f9272892e00f0e0beb0e522c2301",
    ("sweep", "piecewise_mixed", "csv"): "bca1e9071e54a2e4a0a5fb713d1f8f67cab81454aa7f0676f2edeb0ecc8f455d",
    ("sweep", "piecewise_mixed", "json"): "bf8c9c54d3b7dc23d5dca991d2a8f60cf9321d0e7d1fa8a6070f14b4e3f3a7bc",
    ("sweep", "sinusoid_r", "csv"): "0413658674618b31eb885b7bc09bfa9fb8a902dd56066783528cfbedae499a15",
    ("sweep", "sinusoid_r", "json"): "c222f5b8353dc97a78f9d33a2d467b47e486099b70751d257f06f8a45b179fc8",
}

# (command, config name, scaling, format) -> digest, as above
SCALINGS = {"periods40": ["--periods", "40"], "step1024": ["--step", "0.0009765625"]}
SCALED_DIGESTS = {
    ("simulate", "golden_constant", "periods40", "csv"): "fee20921922692f1e8b6e4de48be7a804fdecf732c35f1cf13a56ddf683c145c",
    ("simulate", "golden_constant", "periods40", "json"): "b45b3b2b1a9ad9b2de4e12d9a642607cfa8ea613af3a9c25dab527e2a448ac14",
    ("simulate", "golden_constant", "step1024", "csv"): "86c1ed7da2841ee5165a6a625a957411967a889ad1cbd29cca88f589078d2e5b",
    ("simulate", "golden_constant", "step1024", "json"): "2991d47d7a6c506b25191356ec7915a400ea1344b35a85bc5500f93df16c6523",
    ("simulate", "overharvest", "periods40", "csv"): "a1d85e2c89c199b6886dea9c9b45fea9af54a9feda91aa2feebc8916c6aaceaa",
    ("simulate", "overharvest", "periods40", "json"): "11e5bebfa47c75cbcf20b8b5a763d5dbe9ec34e0e1e8ec3640b4397690dc342f",
    ("simulate", "overharvest", "step1024", "csv"): "2b0f75c5cdd551c187be70de56e724dd10f31090cf12a9e1cd8819f82091573c",
    ("simulate", "overharvest", "step1024", "json"): "7f6f109910beb5e8c77d52be3a056eab93d41d73660a76717ef59f2888f9f563",
    ("simulate", "piecewise_mixed", "periods40", "csv"): "557e1a100acdacf9455f263221b3e74249246affb5102c267bf031cbc839555d",
    ("simulate", "piecewise_mixed", "periods40", "json"): "9bd6d473f547454e27b54b3e4ca93eddf75c5f5191825704e1fad4eed802e649",
    ("simulate", "piecewise_mixed", "step1024", "csv"): "c8060629b3741831fd9f6a3324dedf7a193dc96bdf395a13d527ef4b853b3122",
    ("simulate", "piecewise_mixed", "step1024", "json"): "18064dd3d87afdc0edb3b3919ae92db413fd11993cbdcfb4e8862e7256fcd6a2",
    ("simulate", "sinusoid_r", "periods40", "csv"): "ffcb916e8b6b5a9238c85c1d7d5a4221dcbf274a394af6329c835bcb133fae83",
    ("simulate", "sinusoid_r", "periods40", "json"): "362c209a496e9cd4535955a1337589ad08da16c88da93fda34048283a45ba229",
    ("simulate", "sinusoid_r", "step1024", "csv"): "15220f534e8f6af89fc12a72f3f53f4079e9a5224ce6b18bf44ed07c2b94bd5b",
    ("simulate", "sinusoid_r", "step1024", "json"): "cc6cc9a944ffe1f11827b0b52c00a296196f96ed135ccea85802cb3157d64deb",
    ("periodic", "golden_constant", "periods40", "csv"): "0ce1fed8583793b09631156161039aa87c999f99e01e173d55fb48c774559c87",
    ("periodic", "golden_constant", "periods40", "json"): "952b3e1f0690ba09a2e003893338037e1f376ef5b0ce998625bda94db2f2a27f",
    ("periodic", "golden_constant", "step1024", "csv"): "428e60d4bde5026d2cd200d6b191e31896b955d367418876fdb65d378a95cff5",
    ("periodic", "golden_constant", "step1024", "json"): "3f190c5ccfdc460d2ff6ccb907a9509ed0ab7e59c3ceef1b2044d5b08862d628",
    ("periodic", "overharvest", "periods40", "csv"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "periods40", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "step1024", "csv"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "step1024", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "piecewise_mixed", "periods40", "csv"): "c5bf93bec37fe8cb90bc104225f19139b655e1f5c5b479b4ab6d4a726ea9b9ac",
    ("periodic", "piecewise_mixed", "periods40", "json"): "228e93c1117c74a26a462496c2b859887c8733afb939d43c216e1ad28844a0ce",
    ("periodic", "piecewise_mixed", "step1024", "csv"): "073a3dcf8bacbdc3e010ac010e15cd8bc14db05c7073aac4e4a63248810ac14f",
    ("periodic", "piecewise_mixed", "step1024", "json"): "710a114ac6f5d9f7d9f1b9c66d499a55e28d6d87ad0259d6e14a88269fa7f48f",
    ("periodic", "sinusoid_r", "periods40", "csv"): "df55fa538beacad3e18ff6d6ed77fe6e811c01fb10729e104b2b10fb855f6de8",
    ("periodic", "sinusoid_r", "periods40", "json"): "af79efd7281673156f87984183c24c594ce522a11d4fd113fbbfc5a4eeec688f",
    ("periodic", "sinusoid_r", "step1024", "csv"): "a8595e92f215d5e8295096a8e3704e1bf5137b75aa73d4884438b13c8a0adf70",
    ("periodic", "sinusoid_r", "step1024", "json"): "57322d1b82f4baf61e1ea9915c76deb8a3074b98150001b215729bfe409e0243",
    ("verify", "golden_constant", "periods40", "json"): "1817da65fb7eb0ade1ac76b28105a422de00bdc7032d2187b96a76d0e2b1290f",
    ("verify", "golden_constant", "periods40", "text"): "514ec1df0673277dcbc8bb16b271c1b335d81ab677ceaf54dbee99c25ee1051e",
    ("verify", "golden_constant", "step1024", "json"): "90980abf45b14926bba3e25fa4d79eee7f80d4c5deaab9f3274cb7d33edfb589",
    ("verify", "golden_constant", "step1024", "text"): "68eb14c39ee813f8055263082018a9e1e71ec6813bf27408ca401600fd47408c",
    ("verify", "overharvest", "periods40", "json"): "ae97c9c0c70fe1f3cae6b35e27d0f889348cb0a43d02b7b17a2f4dbd3e4fd299",
    ("verify", "overharvest", "periods40", "text"): "426219f478b335ffccc47d693d7403b19cf67b700e0513bb7013326e2ad3e885",
    ("verify", "overharvest", "step1024", "json"): "fcc966885d41267cf52c75a64d18ef16c7e31803bae8fa40954a7a673f9d2b01",
    ("verify", "overharvest", "step1024", "text"): "9aac637ebcffbac73060bdeafa62e5ea7a6efd3e00fcb9523f81e076b0d8bce8",
    ("verify", "piecewise_mixed", "periods40", "json"): "b22cd3a8a39ea31298948f7bbdbcb45a119f89d770d49aa86dd13e2c96c50f4f",
    ("verify", "piecewise_mixed", "periods40", "text"): "48773e553536edd47f104e67493dfdbf9a262ec983278a33aafe6fe2601bbb78",
    ("verify", "piecewise_mixed", "step1024", "json"): "154e9a146e347eebe951f0bf6412d5a16d2e9e78dfae57736e7b299ccad7f1a1",
    ("verify", "piecewise_mixed", "step1024", "text"): "e827ae77b735280666381170be5c193a763709253098156df87845fc728acb97",
    ("verify", "sinusoid_r", "periods40", "json"): "e244ad9c9c28f80354f147795f12c19c94751f7e52c67b56a651da6e8b2d79e0",
    ("verify", "sinusoid_r", "periods40", "text"): "5953845da3b2b3c0211c856f4d4aedb49521bf62645c4059e77c911f69e8e6b7",
    ("verify", "sinusoid_r", "step1024", "json"): "ea1151220ab85a71383cf6e072d83f32401a6cd2eca7439e3ba0e541def40891",
    ("verify", "sinusoid_r", "step1024", "text"): "87964da6afee425cc5d7629b00a4be27f08184732b2f491608ffe995b3ed1194",
}

# scenarios whose time column takes each path of the time-cell rule: times
# below 1, a run up to 2**52 where one ulp is 1/2, a large t0 at a fine step,
# jumps of K off the step grid (simulate samples them) and a step that is not
# a power of two, whose offsets mostly do not add exactly to k
_FALLBACK_BASE = {
    "r": {"kind": "constant", "value": 0.6931471805599453},
    "K": {"kind": "constant", "value": 100.0},
    "E": 0.25,
    "x0": 50.0,
    "horizon_periods": 12,
}
FALLBACK_SCENARIOS = {
    "t0-below-1": ({**_FALLBACK_BASE, "t0": 0.05}, ()),
    "t0-near-2**52": ({**_FALLBACK_BASE, "t0": 4503599627370000.5}, ("--periods", "200")),
    "t0-large-fine-step": (
        {**_FALLBACK_BASE, "t0": 37000000.123456789},
        ("--step", "0.001953125"),
    ),
    "jumps-off-grid": (
        {
            **_FALLBACK_BASE,
            "t0": 1.37,
            "K": {
                "kind": "piecewise",
                "breakpoints": [0.0, 0.3, 0.71, 1.0],
                "values": [80.0, 120.0, 100.0],
            },
        },
        (),
    ),
    "step-0.01": ({**_FALLBACK_BASE, "t0": 0.5}, ("--step", "0.01")),
}
# (command, scenario name, format) -> digest, as above
FALLBACK_DIGESTS = {
    ("periodic", "t0-below-1", "csv"): "545d31b91383b35675d36e7d1704303eae70caaf5b57922ce4f8e55bb19ef75b",
    ("periodic", "t0-below-1", "json"): "e2875b2b399c2ac57c7cb802a7d9d43ff1dc51e40d10d2ab50b63ca4911245e6",
    ("simulate", "t0-below-1", "csv"): "911adef2fe3ee07852dbde20ed432aca6cd669a4a3123a480719ab5e94089a61",
    ("simulate", "t0-below-1", "json"): "778193e50ce9d2f82631f5e81bd718a59e360e25e2e10cf633c091867526bd5a",
    ("periodic", "t0-near-2**52", "csv"): "29b48b333aca2e46e9b20ed0d6b4fbf5dd446a69553d522f81fb7328d4127646",
    ("periodic", "t0-near-2**52", "json"): "8aeca647ed42bea8a83e958768496fa1cf4a00694b9d3535df25bdfa0f68a851",
    ("simulate", "t0-near-2**52", "csv"): "33aa0bf5f173b99a013c0e001dfbe58a43095c773e01df1ff3af5c14379e715a",
    ("simulate", "t0-near-2**52", "json"): "46d45b46de009a242edf93351292e9eeb0b9a2dbee2bec711b18c58afad18334",
    ("periodic", "t0-large-fine-step", "csv"): "301baa36588c8271aefcac5d4fd26f1ed2557de170ea68d4a283f53b7b2bd0fd",
    ("periodic", "t0-large-fine-step", "json"): "c8631a808c33072fae0233bb8a2edaa28072c8f22b1850118a4ebb6329751d4c",
    ("simulate", "t0-large-fine-step", "csv"): "8fda96094b9481c5fe669cbe2d0f7f58f0a8a849c09b7a4c121dd97ca623863b",
    ("simulate", "t0-large-fine-step", "json"): "f24b04ae02a14a7beed6d83826d8735ce3f05247f6ef2e3218482c19dd0d7d37",
    ("periodic", "jumps-off-grid", "csv"): "7ce1465402431c70690182c38eee3dfa8e00b3d612cacc6d26a931fe56bfdcf4",
    ("periodic", "jumps-off-grid", "json"): "0f60a13658d248724825e7782cb179a2abb585dbea29a4a933e27597999de771",
    ("simulate", "jumps-off-grid", "csv"): "21a471a8cdc229daacb5fa540792c9e273ba043a90c79de7405b215956519ddc",
    ("simulate", "jumps-off-grid", "json"): "03820f5812787aa37335632bd0118a8283b16881bb2a046748249e0afc30a3da",
    ("periodic", "step-0.01", "csv"): "4b7a83d16c05499d5d448c6b3bded1af641a50be6b2c5de349bdfcb42b08a4cf",
    ("periodic", "step-0.01", "json"): "bd8784533a3f685a99377b50c1f6be49ca345da1dc9d0877db89b1e931a7b49b",
    ("simulate", "step-0.01", "csv"): "239305416c6a5d98fccc2e3e7a16abc7e222f86f54a248df5941f6634adb5c2b",
    ("simulate", "step-0.01", "json"): "b44fef36796f988a94a3b249dc622e1b56acdd54f0f5e35af8f2a07d6e7533c6",
}

# (config name, format) -> digest of a 300-fraction sweep, E = 0, 0.002, ...,
# 0.598: more fractions than a 256-entry cache per parameter set could hold,
# on both sides of each config's critical harvest
SWEEP_FRACTIONS = ",".join(repr(j / 500) for j in range(300))
SWEEP_DIGESTS = {
    ("sinusoid_r", "csv"): "125201cd1fab047777a263aace247ccf97e2e896713541370e745b155f1709a0",
    ("sinusoid_r", "json"): "eaddedb6813a56872e7f8e9b27175a8dfa228c2bea4de3d9627acef57c0d7e5d",
    ("piecewise_mixed", "csv"): "2c9c069588ff43f692ef041e7a192d9b37b659b7c5d0fb37a9f014037b55d545",
    ("piecewise_mixed", "json"): "856c7aa8de4cc537886b9a4a9a5a81fc342b3db99b31968879ae894ba4a46af7",
}


def _no_parser():
    raise AssertionError("a plain command line reached argparse")


def _digest(monkeypatch, capsys, command, config, fmt, *flags, out_file=None) -> str:
    """Digest of one plain command line, run without argparse; with ``out_file``,
    the report is written there and read back in place of stdout.  ``config``
    names a shipped config, or is the path of a scenario file."""
    # a relative config path, so that no message depends on the checkout's location
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(cli, "_build_parser", _no_parser)
    if isinstance(config, str):
        config = f"configs/{config}.json"
    argv = [command, "--config", str(config), "--format", fmt, *flags]
    code = main(argv if out_file is None else [*argv, "--out", str(out_file)])
    out, err = capsys.readouterr()
    if out_file is not None and out_file.exists():
        assert out == ""
        out = out_file.read_text(encoding="utf-8")
        out_file.unlink()
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


@pytest.mark.parametrize(
    "command, config, fmt", list(DIGESTS), ids=["-".join(key) for key in DIGESTS]
)
def test_output_is_unchanged(monkeypatch, capsys, tmp_path, command, config, fmt):
    digest = _digest(monkeypatch, capsys, command, config, fmt)
    assert digest == DIGESTS[command, config, fmt]
    out_file = tmp_path / "report"
    assert _digest(monkeypatch, capsys, command, config, fmt, out_file=out_file) == digest


@pytest.mark.parametrize(
    "command, config, scaling, fmt",
    list(SCALED_DIGESTS),
    ids=["-".join(key) for key in SCALED_DIGESTS],
)
def test_scaled_table_is_unchanged(monkeypatch, capsys, command, config, scaling, fmt):
    digest = _digest(monkeypatch, capsys, command, config, fmt, *SCALINGS[scaling])
    assert digest == SCALED_DIGESTS[command, config, scaling, fmt]


@pytest.mark.parametrize(
    "config, fmt", list(SWEEP_DIGESTS), ids=["-".join(key) for key in SWEEP_DIGESTS]
)
def test_long_sweep_is_unchanged(monkeypatch, capsys, config, fmt):
    digest = _digest(monkeypatch, capsys, "sweep", config, fmt, "--e-values", SWEEP_FRACTIONS)
    assert digest == SWEEP_DIGESTS[config, fmt]


@pytest.mark.parametrize(
    "command, name, fmt", list(FALLBACK_DIGESTS), ids=["-".join(key) for key in FALLBACK_DIGESTS]
)
def test_time_fallback_is_unchanged(monkeypatch, capsys, tmp_path, command, name, fmt):
    scenario, flags = FALLBACK_SCENARIOS[name]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    digest = _digest(monkeypatch, capsys, command, path, fmt, *flags)
    assert digest == FALLBACK_DIGESTS[command, name, fmt]


# name -> argv; every run reads configs/ relative to the repository root
G = "configs/golden_constant.json"
ARGV_CASES = {
    "no-arguments": [],
    "top-help": ["-h"],
    "top-help-long": ["--help"],
    "help-constants": ["constants", "-h"],
    "help-simulate": ["simulate", "-h"],
    "help-periodic": ["periodic", "--help"],
    "help-verify": ["verify", "-h"],
    "help-counterexample": ["counterexample", "-h"],
    "help-sweep": ["sweep", "-h"],
    "help-after-options": ["verify", "--config", G, "--help"],
    "invalid-command": ["bogus"],
    "invalid-command-case": ["Verify", "--config", G],
    "missing-config": ["verify"],
    "config-without-value": ["verify", "--config"],
    "unknown-option": ["verify", "--config", G, "--bogus"],
    "unknown-option-before-command": ["--bogus", "verify", "--config", G],
    "options-before-command": ["--config", G, "verify"],
    "e-values-on-simulate": ["simulate", "--config", G, "--e-values", "0.1"],
    "e-values-on-sweep": ["sweep", "--config", G, "--e-values", "0.1,0.2"],
    "abbreviated-options": ["sweep", "--conf", G, "--e", "0.1"],
    "bad-format-choice": ["verify", "--config", G, "--format", "xml"],
    "format-unsupported": ["periodic", "--config", G, "--format", "text"],
    "bad-periods": ["simulate", "--config", G, "--periods", "ten"],
    "bad-tol": ["verify", "--config", G, "--tol", "tight"],
    "double-dash-first": ["--", "verify", "--config", G],
    "double-dash-after-command": ["verify", "--", "--config", G],
    "double-dash-at-end": ["constants", "--config", G, "--"],
    "extra-positional": ["constants", "--config", G, "extra"],
    "two-commands": ["constants", "verify", "--config", G],
    "negative-number-first": ["-1", "verify", "--config", G],
    "lone-dash-first": ["-", "constants", "--config", G],
    "option-equals": ["constants", f"--config={G}", "--format=json"],
    "repeated-option": ["constants", "--config", "missing.json", "--config", G],
    "run-constants": ["constants", "--config", G],
    "run-verify-overrides": ["verify", "--config", G, "--periods", "2", "--tol", "1e-3",
                             "--format", "text"],
    "format-is-a-command": ["constants", "--config", G, "--format", "verify"],
    "periods-with-a-space": ["counterexample", "--config", G, "--periods", " 2"],
    "tol-nan": ["verify", "--config", G, "--tol", "nan"],
}

# name -> digest of exit code, stdout and stderr at an 80-column terminal;
# help and usage errors exit through SystemExit, whose code counts
ARGV_DIGESTS = {
    "no-arguments": "b006be3dc6429a824a29f8cc841eac4da87ae026bfe68e0c43d44c46aeef5597",
    "top-help": "5edd04707d1fdfe023786ee6852bafde902cf057703086ab780295d7e302250f",
    "top-help-long": "5edd04707d1fdfe023786ee6852bafde902cf057703086ab780295d7e302250f",
    "help-constants": "35638b2d292c7e9340c977b03f0e00fae11a0f607ba56a3f5b07e5851e74e80c",
    "help-simulate": "720824868e01ffd8a931291bd218ba93b301cbb8c88e7aae9c542250d856d4a1",
    "help-periodic": "817f14d325c1660a4c155e7f0c53684a471a9f334f01f475e891c18a8843ec7f",
    "help-verify": "469eae8c923bc944c490f1849e5d72e3868dcc7d548faa20501697abd97b87d5",
    "help-counterexample": "172566c4372e0c391234f358e7cb04c3a1615e67fb11dca9d209fe02a2fb3384",
    "help-sweep": "a711e9f210a26ca063fcc1f9bf4f17564677e6c0883f1bd006e4c614b5f19392",
    "help-after-options": "469eae8c923bc944c490f1849e5d72e3868dcc7d548faa20501697abd97b87d5",
    "invalid-command": "cca95f82173962709fb2401ea9cd90baeaac796f606ecdcfdb0ae2e447c13c8c",
    "invalid-command-case": "02294c5f9778cfa23e6c01133a7402c2f3e9e2c9cdd68c35ec811dd395b23fbb",
    "missing-config": "aff8acb8ad569285ab0fa57d8f295c60d1784b67bb5f69d20ea50bd675e02a02",
    "config-without-value": "f13f873e39cb070a16b537c0f442b2f010917046880fca1f2a2532f07cbbc3fc",
    "unknown-option": "577018f736056e1a098d0a0ab54806d38daa8a996036f2b8b726048274e4850e",
    "unknown-option-before-command": "577018f736056e1a098d0a0ab54806d38daa8a996036f2b8b726048274e4850e",
    "options-before-command": "625e0a97ba332f998ea748a7d93b8d6bea187cb0810ab29ea64a08c5098ee9b0",
    "e-values-on-simulate": "b91fa9e15d90725e4f625561a593621193eda09911495e6d4001323691eb9575",
    "e-values-on-sweep": "7cfc8c52ede9225eeb2479e5ea852dc9253fa35bce0fdbb703fc0008d8c28db4",
    "abbreviated-options": "109b7725f9c7b1e9e027a2faab366e64adde9372a77448f88952c9f0c0363051",
    "bad-format-choice": "409ddfb3f07be2ae2fc49051e5a8c35653fd22f504ef65170156bf0e801cba1e",
    "format-unsupported": "9ae8d7332d773dc781287250aa365707b024382baeec32b10595ebf961de0c04",
    "bad-periods": "2b8a852dc002c4f6f284b2f61f1b4abb4ddc35097d6e035559cd86ad6a9b878e",
    "bad-tol": "92e8df187e9b0c225ee4f898ee5de52bd46011d628a8b7d2b0b7b51b4113ebd8",
    "double-dash-first": "7017bdfed86ba06659f4befabffbcd793aaf54d5e2630cc335dc1180d81c13e4",
    "double-dash-after-command": "aff8acb8ad569285ab0fa57d8f295c60d1784b67bb5f69d20ea50bd675e02a02",
    "double-dash-at-end": "45f02be5f6d676f45b3633fc59a6f357aae2ef6bfc61bd369409bd18b4f3fdf9",
    "extra-positional": "bf79cf25c8a330ad3028825951543b930518b739202cbd76644a75b32076a86c",
    "two-commands": "90d6818094c4536af795ad215ea1362b21795a4bda1d5bb1fab0f816b6df661f",
    "negative-number-first": "c330e0454b3a7d9d27c60d6d27762e72eff402fd9412cd6eb1ce40eeada51419",
    "lone-dash-first": "2766d4b19ea6f7cf6dd7be161adfb70152d3f64e213eee6132edadb2bcb66c8e",
    "option-equals": "e52fc67bb54c96df0173dff3306cc4a0427501af0438d1bbed52104c8de8fbd9",
    "repeated-option": "c81f77df1c23747aabc848fc3dc742ef398837608c3534b4b9afa5f7fcdd3384",
    "run-constants": "c81f77df1c23747aabc848fc3dc742ef398837608c3534b4b9afa5f7fcdd3384",
    "run-verify-overrides": "c664eb92c8d764b95c79a91ae92af527db9344330b98f14f600730e0f39f1ccb",
    "format-is-a-command": "cc70f7b44c9a86fef7fcbd8374a9dcb90e01e1efbda7d1d7f6d343e7ea3b9d00",
    "periods-with-a-space": "336a34feedd081d12fb8ca36fa44e4a33eb57e17ecc5265a1804a6d2b22cf5dd",
    "tol-nan": "d37bede097bbc2ca393e760377fe1854a4a8d74c28be64d0f069a08def5a0864",
}


@pytest.mark.parametrize("name", list(ARGV_CASES))
def test_command_line_is_unchanged(monkeypatch, capsys, name):
    monkeypatch.chdir(REPO)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        code = main(list(ARGV_CASES[name]))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
    assert digest == ARGV_DIGESTS[name]

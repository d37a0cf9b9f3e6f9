"""Pinned command outputs: every command on every shipped config, both formats.

Each case runs ``cli.main`` in-process at the config's defaults and compares
the sha256 of its exit code, stdout and stderr with the digest recorded here.
The long tables of ``simulate`` and ``periodic``, and ``verify``, are also
pinned at a scaled horizon (``--periods 40``) and a scaled step
(``--step 2**-10``), where the table emitter and the oracle do the most
work, and ``sweep`` over 300 harvest fractions.  These are plain command
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
    ("constants", "piecewise_mixed", "text"): "6f6ad1b7bba2c10cdfc55e294cfff85ff233abcbd2e8c2f8bd0c0892bbcd5ec7",
    ("constants", "piecewise_mixed", "json"): "3a33964f6b16e2ddfd3df958b8082fca0e6d91fffa3e274aae191c799e4ada7b",
    ("constants", "sinusoid_r", "text"): "d529b4721bc41903a88aff12b3505a25d30e857bc3725e0ba1c746e7a2fbbc7f",
    ("constants", "sinusoid_r", "json"): "308dead02dd3477ad34cdbe5d7c436ba6cd56e51688e0fbc27e9d238efe97a30",
    ("simulate", "golden_constant", "csv"): "1da30bc239bc399981fd6d33227233d8feae08265656f60825502a202ecca1fe",
    ("simulate", "golden_constant", "json"): "f9ff39634bb48012b1b9092e271fadbbfe195ba266c2798e4ee264b8f5ed8644",
    ("simulate", "overharvest", "csv"): "dc7f970a433f9cde1677750578e0d48978f27b393fcf5eb365b01d7b95dc4355",
    ("simulate", "overharvest", "json"): "1c32b453a3b1e86300437743382682ec4cb0729e4223649e61a8c37acc6441aa",
    ("simulate", "piecewise_mixed", "csv"): "6e34173e18b8601797f6fbe32b2f75d4731d6f8ccfd46de421e64f5239baea74",
    ("simulate", "piecewise_mixed", "json"): "caf66279650d1de1c128f3c8ece6fe83986e18fb33d88ed932b9cc877d0fa656",
    ("simulate", "sinusoid_r", "csv"): "645c9d31b6630f3a5cad766cb4931e0c553b647f646faa7abb45ad7bc2653438",
    ("simulate", "sinusoid_r", "json"): "045f8d2cfdc32ff141972a5f7269a2cc7b9f119f6a07d20d81434a5d1f1f96ff",
    ("periodic", "golden_constant", "csv"): "3c065edd95a5a534130d96ab8c306e0e01cad7579523b4546f502c91442c76c0",
    ("periodic", "golden_constant", "json"): "16f0e546b2046bb3afb76d016d6c65a93fed88ac1b7398a9483c959d756b884a",
    ("periodic", "overharvest", "csv"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "piecewise_mixed", "csv"): "96afc01d17b071ba0228b396143feb488c4a1dcd1e879a23253c935e3f3ee4b9",
    ("periodic", "piecewise_mixed", "json"): "9929db24f2bf5121c6a5a1023f42af50943e25bf064f6baa30b990438535a7ef",
    ("periodic", "sinusoid_r", "csv"): "5d201be9bac660a37e3eeeef62fd07209b96bc1507599fcbc23214e6b2994f97",
    ("periodic", "sinusoid_r", "json"): "aaeb96ace5d85ba033dc134df9b7c86844e1597c19acbfd81ab2c7d0a645368c",
    ("verify", "golden_constant", "json"): "a2027b0c180b4490c2daa20dcee245fe89d244fe0cfa49427082a198d502d931",
    ("verify", "golden_constant", "text"): "7b1f7f295a96ade362b8e5e834a9663a22d452a09deb132d9b8ca16ab597f582",
    ("verify", "overharvest", "json"): "67b888374fe2af2886c0c05b8f3707dbab5b7e8cdf1e5a616668ee299691956f",
    ("verify", "overharvest", "text"): "0140e70084179e6100612552431150a77908ff80867de2b87a2fd923e376d308",
    ("verify", "piecewise_mixed", "json"): "448fdef9ae0ee72d995ebd9523be0e8c7c2d770b18ac74cb39c8e1571647dfa4",
    ("verify", "piecewise_mixed", "text"): "3d08aa72100fad7443c9b1051cccb6a045b1ad66678cc1f791f35ab973d000ce",
    ("verify", "sinusoid_r", "json"): "70665558be982a919ce8b89ba41ef311c28fc2e22840de84eebf1ef39a5c3345",
    ("verify", "sinusoid_r", "text"): "8537b2aeb0bf40ae7a09bae7e95698c5367a5f2cc4f665dd34e646299c2e6df7",
    ("counterexample", "golden_constant", "json"): "88e399df1b88c7d43378b32cc097906c285c32d917cb10790ffe72d42072a71d",
    ("counterexample", "golden_constant", "text"): "41b8647e51770c96c9d95104b5aeb04d95d9d899307dcfcbdcbe9e138f5859a1",
    ("counterexample", "overharvest", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("counterexample", "overharvest", "text"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("counterexample", "piecewise_mixed", "json"): "156f0712ae237481f5f38919e457292ecf984473d8a2a349feed18c5c460415a",
    ("counterexample", "piecewise_mixed", "text"): "a307af2277cedfa5990ee8e6e133b397465326fdd75ade7fdd69a57299d28d41",
    ("counterexample", "sinusoid_r", "json"): "1f86f8706dca7d00386ef0b879b7c3fb06200e58c67ba2cf4f15d74f6a3bf6fe",
    ("counterexample", "sinusoid_r", "text"): "168acbb303605e29ba570b5f58f7584b15aaf9bd02272143cebbe0dd168f57c9",
    ("sweep", "golden_constant", "csv"): "2d66d8a41722681d1c50acd1083fb7a594ec009ab55fedfc626fe0c5a54a5f10",
    ("sweep", "golden_constant", "json"): "0035b69da18ff6218af8579cf514dd173d91a6004197c049b217b16b203aff43",
    ("sweep", "overharvest", "csv"): "079b44ecec7b01341dd88c83701a7791756bf79e455d918deb14b9fefb2f6f7a",
    ("sweep", "overharvest", "json"): "cb79727457468d449091efd5c989bc4d3e53f9272892e00f0e0beb0e522c2301",
    ("sweep", "piecewise_mixed", "csv"): "ee6f7d078ea9e7462c7fe60047b64f10455231e3650108db9c719fa56bb1f60c",
    ("sweep", "piecewise_mixed", "json"): "98be5823bf7f52c349becb4b6733e44e5129c8a83f5cb5281792f35aeaa325f7",
    ("sweep", "sinusoid_r", "csv"): "64c598ca4fdf0779c2a7e046ac47b6cf27d8ced2a9e421202ac95991a1872995",
    ("sweep", "sinusoid_r", "json"): "41332ea3b0ebbf27b02c44dc017d3f4b1298a53b093de5b5744eec825f8833e0",
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
    ("simulate", "piecewise_mixed", "periods40", "csv"): "c88ac9476dfd90a9ddc96dc2fb6c24aa08a77ec82e0539dbf195a239c6fee697",
    ("simulate", "piecewise_mixed", "periods40", "json"): "582edbff2e5401df18b224f570cab659bb52b8f4023215aef5c1460390785dd5",
    ("simulate", "piecewise_mixed", "step1024", "csv"): "cea2f1d43b0b16880262bdcec15a2637f47e18ba0cf45a8157074a1519fbf1bb",
    ("simulate", "piecewise_mixed", "step1024", "json"): "f098a68d8d3dd00f6afa9d597a08e85c44e6e280d6537410c1884bb3e71b895f",
    ("simulate", "sinusoid_r", "periods40", "csv"): "2616d6f65bc9f5e9289e6b9e96e0aacb7fde8e286e68ae80dbb56173991362c9",
    ("simulate", "sinusoid_r", "periods40", "json"): "4eb778afb069f06dca142405360ea6d44422799bd9315ff5ab353a9562de0482",
    ("simulate", "sinusoid_r", "step1024", "csv"): "003701b31cac5911f8d9178508fd28cd522437552859487dd6d67638c44ed68b",
    ("simulate", "sinusoid_r", "step1024", "json"): "bba238d2ff317db3c697096e93f4b902ae76d4f38428e242e142c495c1308b7d",
    ("periodic", "golden_constant", "periods40", "csv"): "0ce1fed8583793b09631156161039aa87c999f99e01e173d55fb48c774559c87",
    ("periodic", "golden_constant", "periods40", "json"): "952b3e1f0690ba09a2e003893338037e1f376ef5b0ce998625bda94db2f2a27f",
    ("periodic", "golden_constant", "step1024", "csv"): "428e60d4bde5026d2cd200d6b191e31896b955d367418876fdb65d378a95cff5",
    ("periodic", "golden_constant", "step1024", "json"): "3f190c5ccfdc460d2ff6ccb907a9509ed0ab7e59c3ceef1b2044d5b08862d628",
    ("periodic", "overharvest", "periods40", "csv"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "periods40", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "step1024", "csv"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "step1024", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "piecewise_mixed", "periods40", "csv"): "68cb423e3c0df974eb2e7bfc45d9ae7ccdbe8db83b8c668440be7caeda0807ab",
    ("periodic", "piecewise_mixed", "periods40", "json"): "ff153c76ec0ff1a3b62173bf3498da5ea7b7026646f44fd29539bcf4559fb039",
    ("periodic", "piecewise_mixed", "step1024", "csv"): "376bbdc42db87337aafae7ab4301a8e7217a5f1d8e6d54404a0131dd161091d5",
    ("periodic", "piecewise_mixed", "step1024", "json"): "d9516dda2f1cbfeaa5bce1b285a592cb7f146b5a186b11571abfba8d2bd35a9c",
    ("periodic", "sinusoid_r", "periods40", "csv"): "e226eaad788f4407e6ab943558ab3f0369b2d2686c77a46f1c69dbe9cbe19154",
    ("periodic", "sinusoid_r", "periods40", "json"): "e292e8ceb4afc2e54351c35f9ef7a81eb32f1f12a0ee97b953838b9b66639049",
    ("periodic", "sinusoid_r", "step1024", "csv"): "23f199ff24de5accb641aa6227d0ab8500a8186ec9437a0a200b14abc14b144c",
    ("periodic", "sinusoid_r", "step1024", "json"): "59eeca0a5034260d87e4f26f59a690f4744f9ab8cca12476246162ca3ff3efc4",
    ("verify", "golden_constant", "periods40", "json"): "0a5e415d439048a3c0f1cdbe664168123094060bf6839719953230f9ad37027f",
    ("verify", "golden_constant", "periods40", "text"): "eb761e70e85a3941902b37a785876e6813488dbc9fe88d085f5d272270c67820",
    ("verify", "golden_constant", "step1024", "json"): "d2809e00e28b45f53994c7fad17b94c00fbca58fa8b9b9752f043286edf533a4",
    ("verify", "golden_constant", "step1024", "text"): "a8e8cdffdb829093d57ca07584f13368e31488671528f1004c82db043c10a48e",
    ("verify", "overharvest", "periods40", "json"): "ae97c9c0c70fe1f3cae6b35e27d0f889348cb0a43d02b7b17a2f4dbd3e4fd299",
    ("verify", "overharvest", "periods40", "text"): "426219f478b335ffccc47d693d7403b19cf67b700e0513bb7013326e2ad3e885",
    ("verify", "overharvest", "step1024", "json"): "fcc966885d41267cf52c75a64d18ef16c7e31803bae8fa40954a7a673f9d2b01",
    ("verify", "overharvest", "step1024", "text"): "9aac637ebcffbac73060bdeafa62e5ea7a6efd3e00fcb9523f81e076b0d8bce8",
    ("verify", "piecewise_mixed", "periods40", "json"): "6e041199abb482e7ee05d80063250e61e217a92c2b97227a9d3b5cad8c710ed5",
    ("verify", "piecewise_mixed", "periods40", "text"): "fe205dcabb9a45ea4432d1a8b78cb2ff8b120717427c970133b535e91231f7d1",
    ("verify", "piecewise_mixed", "step1024", "json"): "69d7e5d9345afed3235bcbb1a413ce8ca3e74c01f3ab7e3747102f1a8b393dcb",
    ("verify", "piecewise_mixed", "step1024", "text"): "619fe0cd648c58b63a7363c980da53af1cbf142b01fe1475ea8d82371fc6474c",
    ("verify", "sinusoid_r", "periods40", "json"): "a4dd47991b9ec3a2e3cba6d3a952dfabe994f5ff3d9d209ed83599a33ac3f764",
    ("verify", "sinusoid_r", "periods40", "text"): "8b7d4316122431ec1b11c37f751637541f91ae77e60a52887b2c85fb67b6361f",
    ("verify", "sinusoid_r", "step1024", "json"): "a1e84923531721333bcf89da9b394e84944cee423e0f191cd2f0a32674cd6f96",
    ("verify", "sinusoid_r", "step1024", "text"): "dfbba02cdc67570f76755259ba0372a3711f3ad41994e941d169ffb94fef763a",
}

# (config name, format) -> digest of a 300-fraction sweep, E = 0, 0.002, ...,
# 0.598: more fractions than a 256-entry cache per parameter set could hold,
# on both sides of each config's critical harvest
SWEEP_FRACTIONS = ",".join(repr(j / 500) for j in range(300))
SWEEP_DIGESTS = {
    ("sinusoid_r", "csv"): "fdcffb702bc21fc9469bee742419ddedccdf323f0647bb43129e6b8a24da6ddc",
    ("sinusoid_r", "json"): "a9f5808b23fc51d024b687c7f53350ec073dff2f92e254dff50d12bcfd321b10",
    ("piecewise_mixed", "csv"): "944af4718a31a4e47d79549674547087575c8f15c7b8808b8d453fbec2a7265d",
    ("piecewise_mixed", "json"): "8029b8d5f6242d620f661464a61afa54870198630586126ff0ec3a67b911fe01",
}


def _no_parser():
    raise AssertionError("a plain command line reached argparse")


def _digest(monkeypatch, capsys, command, config, fmt, *flags, out_file=None) -> str:
    """Digest of one plain command line, run without argparse; with ``out_file``,
    the report is written there and read back in place of stdout."""
    # a relative config path, so that no message depends on the checkout's location
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(cli, "_build_parser", _no_parser)
    argv = [command, "--config", f"configs/{config}.json", "--format", fmt, *flags]
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
    "e-values-on-sweep": "77b07dd61651d2183c32268f131527bdb03b0b197384043940e7b16771d3397a",
    "abbreviated-options": "dec48e0db32df447265a86a9868c0402621689663ac3728cafefac00329d3a9c",
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
    "run-verify-overrides": "26130af0cd06a81449c5976689e60aeabc21f603a00b24fad4a0fe022506e0bb",
    "format-is-a-command": "cc70f7b44c9a86fef7fcbd8374a9dcb90e01e1efbda7d1d7f6d343e7ea3b9d00",
    "periods-with-a-space": "b16a1535fee3fc794a84e0427314389622bbe06f8b466ad831ecdafcb889103d",
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

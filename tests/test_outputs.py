"""Pinned command outputs: every command on every shipped config, both formats.

Each case runs ``cli.main`` in-process at the config's defaults and compares
the sha256 of its exit code, stdout and stderr with the digest recorded here.
The long tables of ``simulate`` and ``periodic`` are also pinned at a
scaled horizon (``--periods 40``) and a scaled step (``--step 2**-10``),
where the table emitter does the most work.
A refactor must leave all of them unchanged.  A deliberate change to an
output updates that case's digest in the same commit, and CHANGES.md names
the case and says why its bytes moved.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from impulsive_logistic.cli import main

REPO = Path(__file__).resolve().parents[1]

# (command, config name, format) -> sha256 of f"{exit code}\0{stdout}\0{stderr}"
DIGESTS = {
    ("constants", "golden_constant", "text"): "c81f77df1c23747aabc848fc3dc742ef398837608c3534b4b9afa5f7fcdd3384",
    ("constants", "golden_constant", "json"): "e52fc67bb54c96df0173dff3306cc4a0427501af0438d1bbed52104c8de8fbd9",
    ("constants", "overharvest", "text"): "7e0a2c68c71291fd2440a0d44b7da9d040ed290a65714e42b758d39530aedcc3",
    ("constants", "overharvest", "json"): "764b5f3279b6b136f5d14d7cb15c6362695c8d5dcaaed52d023e3b9b8729abc4",
    ("constants", "piecewise_mixed", "text"): "aab5763a2fad62a3408ea298837707ba31b40646ef7c8af872473e0261269979",
    ("constants", "piecewise_mixed", "json"): "e466423a7dbd47c92113473a29676bccf8ff90c91b81feea2875009800fcb70f",
    ("constants", "sinusoid_r", "text"): "480b02ccad1a30d1877c83d33c58486c64b8d8752c48bf5dddaf7b0cee98c8a4",
    ("constants", "sinusoid_r", "json"): "e4965e539f762a308bdc4cab3714715695642bf7f21647788ecbad749a484f82",
    ("simulate", "golden_constant", "csv"): "785735f9fda27eed7933bbe8d30887c1b842bb748d800654f8f852de91610aba",
    ("simulate", "golden_constant", "json"): "c61cfec3d7d07eac1f7032976c022c38b9c1c6e4905d26b690ae3a7eae2dd604",
    ("simulate", "overharvest", "csv"): "f5407238e80bfc486f8972b3a9f4a5a24e747270f0f20d927985029738f800d5",
    ("simulate", "overharvest", "json"): "9deaab08d86727fb4c5be9ccc0516f3d554b10d620e48bc296bf76f2333b0bbd",
    ("simulate", "piecewise_mixed", "csv"): "5c6fd498d7510c2bf390f75c85c166a4d974241cba69c07802eabacbc7f085ae",
    ("simulate", "piecewise_mixed", "json"): "9ae4e8d46a42393d7d04398cf6a3c79fa5a99533638bb9e588b447f549c95986",
    ("simulate", "sinusoid_r", "csv"): "8d86a41b4cee2b01a41d66e68eb9b3a404c64e22b06996db3416d4251376b7b2",
    ("simulate", "sinusoid_r", "json"): "2967e24b2f44169a9ce083c544c2669d406048c60964671e9f6a53cfbf526858",
    ("periodic", "golden_constant", "csv"): "3c065edd95a5a534130d96ab8c306e0e01cad7579523b4546f502c91442c76c0",
    ("periodic", "golden_constant", "json"): "16f0e546b2046bb3afb76d016d6c65a93fed88ac1b7398a9483c959d756b884a",
    ("periodic", "overharvest", "csv"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "piecewise_mixed", "csv"): "8f4ba1582c571ee16657e703c7a4eb30cc40b6c1776f4382b7d1b4a2908ebebb",
    ("periodic", "piecewise_mixed", "json"): "30f1a5f5fa92b574fb385febafbc994bf8e243cbf89f60a04b6cac8d4b6fb22d",
    ("periodic", "sinusoid_r", "csv"): "fdd8efe737b4811091c7044a6942cf62019652fbb39adc1b2bd5142dfd151aa5",
    ("periodic", "sinusoid_r", "json"): "78f72b177dd34306991d5e4ab45550e4af84bb53795c8716ea0a7a22e8e09ac1",
    ("verify", "golden_constant", "json"): "92969c2b4d39d770d628a52f311919e0664c5a93d635e5aaaf9a90d63b0efbf2",
    ("verify", "golden_constant", "text"): "555262f7f312c1d0853e9a38d140ce78f15243522b02e9b44c9b7e08129c8262",
    ("verify", "overharvest", "json"): "c016a85b354c625f67286eabe5e2ee46ee16a52a2fcf58e86c33ec65a6e4f5e0",
    ("verify", "overharvest", "text"): "b96c9bd533ed3187201ec6316f38b83ab2449e5bbd2a1417ffe3d390429d7abd",
    ("verify", "piecewise_mixed", "json"): "6fe25900a1d3cacd62d149e860a00e184a5688331a889e6069dd30de8cb24e5c",
    ("verify", "piecewise_mixed", "text"): "a36a6ad6c6003289cc213fe932fa05c06f188ff4f5a7d93fd5917a1458710908",
    ("verify", "sinusoid_r", "json"): "1d06afb6cbe890d0cbbc7b3ab2e0072fe0c2a4f71000d482b8780858d8642705",
    ("verify", "sinusoid_r", "text"): "255e70cc2fe0b90a8df49f646833b0893232977326795b528862adde130b5687",
    ("counterexample", "golden_constant", "json"): "9e63575108353e8e9d21105fea53b61f6722d14278415c814358467d0d9ecb59",
    ("counterexample", "golden_constant", "text"): "e8d9e02e6f8ade51c2286b403f714e5844fb8d6ca6074e3a33cb2c02b39fcda5",
    ("counterexample", "overharvest", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("counterexample", "overharvest", "text"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("counterexample", "piecewise_mixed", "json"): "3be1347df4cd9989ade5030092c011cd12893b39a6d051e5557e935cc0eb2c97",
    ("counterexample", "piecewise_mixed", "text"): "ec189eb30697225b2a0e2c7b579a192bb819114d44726c4d2a9dad284138b5b6",
    ("counterexample", "sinusoid_r", "json"): "9d65082af3f3c9ff635a2653d9725de3dd23e80adff73ed3e7bd171c82d32383",
    ("counterexample", "sinusoid_r", "text"): "c9a0ce9c6d8e6de47a93d801924f9822b2104a9065f28595ca55ec7c7d3d2e1e",
    ("sweep", "golden_constant", "csv"): "2d66d8a41722681d1c50acd1083fb7a594ec009ab55fedfc626fe0c5a54a5f10",
    ("sweep", "golden_constant", "json"): "0035b69da18ff6218af8579cf514dd173d91a6004197c049b217b16b203aff43",
    ("sweep", "overharvest", "csv"): "079b44ecec7b01341dd88c83701a7791756bf79e455d918deb14b9fefb2f6f7a",
    ("sweep", "overharvest", "json"): "cb79727457468d449091efd5c989bc4d3e53f9272892e00f0e0beb0e522c2301",
    ("sweep", "piecewise_mixed", "csv"): "468ef9ffafaa3e5f5f1b1db24bacfda11db642210307b45b95869d57c9d3c55b",
    ("sweep", "piecewise_mixed", "json"): "4c7a9a90c518df1fa6f05f744358993a25e0cc5c954cbd19db527674b30f96a6",
    ("sweep", "sinusoid_r", "csv"): "14465674f32ae2b21aae993b06a19bb84c14218f25f836236833a5141b39c0df",
    ("sweep", "sinusoid_r", "json"): "fd6cb900df4f23efb58280533ee5ce23ac88dcd3adf5f06965f19f664fc0e616",
}

# (command, config name, scaling, format) -> digest, as above
SCALINGS = {"periods40": ["--periods", "40"], "step1024": ["--step", "0.0009765625"]}
SCALED_DIGESTS = {
    ("simulate", "golden_constant", "periods40", "csv"): "824abbe2db54b8c1a1af446a02909f7dd8165b7beeeaca0fb37a3cb463400755",
    ("simulate", "golden_constant", "periods40", "json"): "b4dca95befbb9596835442994061d852eedd594825c4c0f7bde94855ce50c642",
    ("simulate", "golden_constant", "step1024", "csv"): "789ae59657c1acc5de8ddb69dac71421945c74612054387505f83772b13ef554",
    ("simulate", "golden_constant", "step1024", "json"): "c693e197f3369dc1103fa91bf2b6a769345e71dbcaffd308fe503bde11b9da48",
    ("simulate", "overharvest", "periods40", "csv"): "18dea74af59a0a5892ecadcd6c7baa51cb586192ab5459390bb5358791054ada",
    ("simulate", "overharvest", "periods40", "json"): "ed784560a89cc70e29e0ec426c09fc87379cd2fbbbced1abfda258ae692cf0a6",
    ("simulate", "overharvest", "step1024", "csv"): "69869a6ddb6d7aec368757cbe0f4e95afd6fd8deefb09dfb83e5818f4e032141",
    ("simulate", "overharvest", "step1024", "json"): "6599123fd031801eebb15f0fed57a2a02ac3cfa1e368209279c7d18b8d3ccf9f",
    ("simulate", "piecewise_mixed", "periods40", "csv"): "94361bdcbdb8440c73f7167d06090610c42424326c9ecc7ee0d74d0e05b3f1e9",
    ("simulate", "piecewise_mixed", "periods40", "json"): "5cf71fb690a12b1c0ea626f22fd66086d66799baf395dbc01942242fc45bd9b3",
    ("simulate", "piecewise_mixed", "step1024", "csv"): "d79ec990eb284260d3db3111ebce23f26d1c31f0347f329d2d5f8d66a0424aa3",
    ("simulate", "piecewise_mixed", "step1024", "json"): "8fe2b3ac0f27f9c433134b1b75e5c484df9cabb6c67eba49f7876cff776f7d60",
    ("simulate", "sinusoid_r", "periods40", "csv"): "8e5dc3b240552916c240b5228e7bac746a43af9001a33952fd6c846dce58ec78",
    ("simulate", "sinusoid_r", "periods40", "json"): "0b63e3afed7432c81137388618cfdf693edde008159a3d6b888d877d3db04876",
    ("simulate", "sinusoid_r", "step1024", "csv"): "5a8a31d62a9cad249dfad7e935a0c28f4d6aa9ced3413c6adb38dc58e209ac5c",
    ("simulate", "sinusoid_r", "step1024", "json"): "fd1d4e1eaac7878c830a1069ca6f90d4a10ba37f2221ac94473050d2f7b0b547",
    ("periodic", "golden_constant", "periods40", "csv"): "0ce1fed8583793b09631156161039aa87c999f99e01e173d55fb48c774559c87",
    ("periodic", "golden_constant", "periods40", "json"): "952b3e1f0690ba09a2e003893338037e1f376ef5b0ce998625bda94db2f2a27f",
    ("periodic", "golden_constant", "step1024", "csv"): "428e60d4bde5026d2cd200d6b191e31896b955d367418876fdb65d378a95cff5",
    ("periodic", "golden_constant", "step1024", "json"): "3f190c5ccfdc460d2ff6ccb907a9509ed0ab7e59c3ceef1b2044d5b08862d628",
    ("periodic", "overharvest", "periods40", "csv"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "periods40", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "step1024", "csv"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "step1024", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "piecewise_mixed", "periods40", "csv"): "8929b333f74fc5794efc8bc54b0101f3cc06a216da6c2712a80a838cf466186b",
    ("periodic", "piecewise_mixed", "periods40", "json"): "973d05ce07d626c2765c289157d292ab8e4a36eff84b3cc0b36c83fcee135a48",
    ("periodic", "piecewise_mixed", "step1024", "csv"): "fa118628b606ad3d9c3fb5833ddd10e2fc598025675c7991391aa93837f4e63a",
    ("periodic", "piecewise_mixed", "step1024", "json"): "c25bd8e7a4f3055d653cd61acd17b9339e2333e0ccf5bba64558039b1635bf2c",
    ("periodic", "sinusoid_r", "periods40", "csv"): "e2f472de1d24f4759623c18dec5bc80127d4b1c458bdf7e7728be1bc7ffff0d8",
    ("periodic", "sinusoid_r", "periods40", "json"): "51a95a74fc1b02d0f28ed6b5a248cacff3d5cfb9f6f5436f9a70c6e73d25269b",
    ("periodic", "sinusoid_r", "step1024", "csv"): "76a9a7b9ede0ca3c4efb18d44d6a568c6015b64740298b38f14e367f28bd50cb",
    ("periodic", "sinusoid_r", "step1024", "json"): "67a0b4de644b6ede0f8d493801f24b8280b030acf0c9939c57ab699337419baf",
}


def _digest(monkeypatch, capsys, command, config, fmt, *flags) -> str:
    # a relative config path, so that no message depends on the checkout's location
    monkeypatch.chdir(REPO)
    code = main([command, "--config", f"configs/{config}.json", "--format", fmt, *flags])
    out, err = capsys.readouterr()
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


@pytest.mark.parametrize(
    "command, config, fmt", list(DIGESTS), ids=["-".join(key) for key in DIGESTS]
)
def test_output_is_unchanged(monkeypatch, capsys, command, config, fmt):
    digest = _digest(monkeypatch, capsys, command, config, fmt)
    assert digest == DIGESTS[command, config, fmt]


@pytest.mark.parametrize(
    "command, config, scaling, fmt",
    list(SCALED_DIGESTS),
    ids=["-".join(key) for key in SCALED_DIGESTS],
)
def test_scaled_table_is_unchanged(monkeypatch, capsys, command, config, scaling, fmt):
    digest = _digest(monkeypatch, capsys, command, config, fmt, *SCALINGS[scaling])
    assert digest == SCALED_DIGESTS[command, config, scaling, fmt]

"""Pinned command outputs: every command on every shipped config, both formats.

Each case runs ``cli.main`` in-process at the config's defaults and compares
the sha256 of its exit code, stdout and stderr with the digest recorded here.
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


@pytest.mark.parametrize(
    "command, config, fmt", list(DIGESTS), ids=["-".join(key) for key in DIGESTS]
)
def test_output_is_unchanged(monkeypatch, capsys, command, config, fmt):
    # a relative config path, so that no message depends on the checkout's location
    monkeypatch.chdir(REPO)
    code = main([command, "--config", f"configs/{config}.json", "--format", fmt])
    out, err = capsys.readouterr()
    digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
    assert digest == DIGESTS[command, config, fmt]

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
    ("constants", "sinusoid_r", "text"): "d529b4721bc41903a88aff12b3505a25d30e857bc3725e0ba1c746e7a2fbbc7f",
    ("constants", "sinusoid_r", "json"): "308dead02dd3477ad34cdbe5d7c436ba6cd56e51688e0fbc27e9d238efe97a30",
    ("simulate", "golden_constant", "csv"): "a10005ca74949efc4562d33207f6f5563efca3b2f2b7b5b18d467ecc4e062773",
    ("simulate", "golden_constant", "json"): "6f3fb6db80e22187ee094fef2bb3ad7f7629d56720721b03cbd22b2e8331a81e",
    ("simulate", "overharvest", "csv"): "2141e20ec40c763c73cfbdfb62e3906ddb5c5095cba097cda24b71e15416c0bf",
    ("simulate", "overharvest", "json"): "df878c0b64e85d8da6957d3351e078f8e3b3791fd44b7e946e83c58eb467de03",
    ("simulate", "piecewise_mixed", "csv"): "e4813988319dc270d2739362bd648cb2a6c2f2e3ffdeee4ed660f05f98cd545a",
    ("simulate", "piecewise_mixed", "json"): "0d023c7aac312fe18730b5fadce73e5cc21e3a4b2dd9792b66a73c59ee764537",
    ("simulate", "sinusoid_r", "csv"): "14647954e28517b4343231319f4f0f7796b58e4a12ad6464e813e8162cb8d4b0",
    ("simulate", "sinusoid_r", "json"): "96c156db5bddd4675e7fa786e5c040a71b6ddd462a7a720815dd9ce954b727f0",
    ("periodic", "golden_constant", "csv"): "2cdb4ce4c0281c3dd3b65d9d3d8223c656db823f8ce1e73bb2437d253925d253",
    ("periodic", "golden_constant", "json"): "a9a74f6eef6e2baa4bd47b64d196911800fe4dc79646125b68fb66f300cd883c",
    ("periodic", "overharvest", "csv"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "piecewise_mixed", "csv"): "0cd555bf80c729d9031fdeaf701c08573bd01d1b8d2db835798f3c03c8440454",
    ("periodic", "piecewise_mixed", "json"): "7c5eec4eedd2c62f8110b45da959c719d0378dc2edebe08418449d0ce7477874",
    ("periodic", "sinusoid_r", "csv"): "b15abbfcf9a3a12fb38b1febf18833d1e34f1a8c4c4869761aeee383ce518487",
    ("periodic", "sinusoid_r", "json"): "60fc74f97633906b8ccd69448517b1ec42891b4c1f7ca8d846f9cc6f00f47752",
    ("verify", "golden_constant", "json"): "99706b6e28da3794eccec3b543b1f66593636dadef457c492d4d771c8edef172",
    ("verify", "golden_constant", "text"): "d8474f6422ff6ab61c06e1d1d438674cedcd3cb37f21c300b8dae2c5bf208f53",
    ("verify", "overharvest", "json"): "99ae6716377106a03d27ae72b6f06cc0da86fa0efbbf8b5f4653067abc911df7",
    ("verify", "overharvest", "text"): "468533a3107dd85af665020aa2e2c65650c0d56be0ec7422d518d8de4f630c28",
    ("verify", "piecewise_mixed", "json"): "29f4915f23bccdae35d63728c23562e9289cba0b70fdfc457a630f0d0f4155a0",
    ("verify", "piecewise_mixed", "text"): "6187b7fb48f333978ff72b53bdd0c6429b468ab97a56524f20a3a40ada81557b",
    ("verify", "sinusoid_r", "json"): "5a4099285ec479c4ad74645f0fe8d65b84f966bf0e4e8ed4745d48a35644f9df",
    ("verify", "sinusoid_r", "text"): "2fbdddf305b0d22e24cf70ee8695d23916ae802585a0542da0531856b4c5aab8",
    ("counterexample", "golden_constant", "json"): "64e064e1029b8cbc0ee4db692af92ac814f6e11965821e954985df849b067364",
    ("counterexample", "golden_constant", "text"): "168acbb303605e29ba570b5f58f7584b15aaf9bd02272143cebbe0dd168f57c9",
    ("counterexample", "overharvest", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("counterexample", "overharvest", "text"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("counterexample", "piecewise_mixed", "json"): "0649a354c18f520325e5df40adccabf5d877a0ccd4c7b56e7d670447a154fc60",
    ("counterexample", "piecewise_mixed", "text"): "f83c4a8df73fb9b840a1314adfe0d49ca8c4e3ace6b7f35e8ba099644625aa5d",
    ("counterexample", "sinusoid_r", "json"): "c058d39aedc38c700c69c9871db152608875795427636675768ddfa1544538b9",
    ("counterexample", "sinusoid_r", "text"): "168acbb303605e29ba570b5f58f7584b15aaf9bd02272143cebbe0dd168f57c9",
    ("sweep", "golden_constant", "csv"): "ad308e35d5835aa22951dcd91a55f517e35f0bf7237da4e73fba83f72ac01c62",
    ("sweep", "golden_constant", "json"): "96b4d30d6039ba87c0d0db8c2371549bec6919572ca479d1b71bd47958a862cb",
    ("sweep", "overharvest", "csv"): "c8141cf7160836d2f03a56514afb354860a8435b832f148635767d6045428f2b",
    ("sweep", "overharvest", "json"): "92a686069813545f833b7d9645e4a74c14f05a947f9a187316d1e69add60e850",
    ("sweep", "piecewise_mixed", "csv"): "bca1e9071e54a2e4a0a5fb713d1f8f67cab81454aa7f0676f2edeb0ecc8f455d",
    ("sweep", "piecewise_mixed", "json"): "bf8c9c54d3b7dc23d5dca991d2a8f60cf9321d0e7d1fa8a6070f14b4e3f3a7bc",
    ("sweep", "sinusoid_r", "csv"): "64c598ca4fdf0779c2a7e046ac47b6cf27d8ced2a9e421202ac95991a1872995",
    ("sweep", "sinusoid_r", "json"): "41332ea3b0ebbf27b02c44dc017d3f4b1298a53b093de5b5744eec825f8833e0",
}

# (command, config name, scaling, format) -> digest, as above
SCALINGS = {"periods40": ["--periods", "40"], "step1024": ["--step", "0.0009765625"]}
SCALED_DIGESTS = {
    ("simulate", "golden_constant", "periods40", "csv"): "aee7fdffef8bdb6825f3f12e938cafc8d34e35f0a526be731956786142087ce6",
    ("simulate", "golden_constant", "periods40", "json"): "f5f8b952428c5451d4f473d1dfb869ec7e9fead8970a099196c19acd51586d69",
    ("simulate", "golden_constant", "step1024", "csv"): "bfe616b6ad23adcfcc643d9fe894ec7c6be0fcd01ad8c51252ef3b033ca7c2d3",
    ("simulate", "golden_constant", "step1024", "json"): "684a898238fab398ba451a89771940d9a28b4bb03838a32babdc1c219d12b801",
    ("simulate", "overharvest", "periods40", "csv"): "ddb55c099c27e08567421188b47e9c664cbb524545d458ee6ebeffbb4cd08025",
    ("simulate", "overharvest", "periods40", "json"): "d152c53005f006fd75dc9a2d19d111decd13b2c9c986c3ccb495f02748303f48",
    ("simulate", "overharvest", "step1024", "csv"): "7384bbf22667beb21d22b76e1c80ed75b031cf3df71ca32d252804fda1847a9b",
    ("simulate", "overharvest", "step1024", "json"): "ac6cc9e625bb499b56d9654474819e92be183e131473e9d6f61e3bcd85ced2cf",
    ("simulate", "piecewise_mixed", "periods40", "csv"): "a722653e04e5a730ba7a46b88d10f0d964363e6c3d294b8670a2f9a71c096b76",
    ("simulate", "piecewise_mixed", "periods40", "json"): "5f11ec5ed8c423e9f69dd8b183f90068bbb63f33cc82c32575726173eb452125",
    ("simulate", "piecewise_mixed", "step1024", "csv"): "e06eea8067eeef436750187c1c0b25bd9e5915fc6c9106d94e1b1c1b6a9bbedd",
    ("simulate", "piecewise_mixed", "step1024", "json"): "9330bc25745bfcd6525a5135a4f39d97f7bbe6986ebf9df10860d05e77ab6759",
    ("simulate", "sinusoid_r", "periods40", "csv"): "d86b9b19658860b2d5c1de7ed876440d32d2509f6059f9c53a345e6f5c9107ec",
    ("simulate", "sinusoid_r", "periods40", "json"): "063bdd6411cdfb02193467053380a47ca2f165d869cb08f2add34c6244b8d71d",
    ("simulate", "sinusoid_r", "step1024", "csv"): "635d6c28b1addc35db0ce847e64480e4e3c94a0edeb9ca70dc1146b6f4cd54a0",
    ("simulate", "sinusoid_r", "step1024", "json"): "943f281c7175c8c84b4c21abb934ae1c9ea954304f3c7a0f8d3d7e2a897a555a",
    ("periodic", "golden_constant", "periods40", "csv"): "443e21355273940f22eaede5c664e689b8b40c36c8bf33a5a87034005b7055b6",
    ("periodic", "golden_constant", "periods40", "json"): "96e3a70addf473666c77dd8b6e82e05f4c350b057a954021106616d91c5f42e4",
    ("periodic", "golden_constant", "step1024", "csv"): "8777ed7a7bbf8f89e610eb6b1e9b200963f4b26267bb4da4770392222c4bcb70",
    ("periodic", "golden_constant", "step1024", "json"): "c2443d3d174a608c0513661e3f169ed9f6307e8c1f7d57cd9b74cb2a72bc84f9",
    ("periodic", "overharvest", "periods40", "csv"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "periods40", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "step1024", "csv"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "overharvest", "step1024", "json"): "4d159b150ab0aeff72cc6a767f8591e2ef146b920c0c89609901c1bc966f272d",
    ("periodic", "piecewise_mixed", "periods40", "csv"): "e3b5d9fb8c552d0154f48835aafa77ddd8bd817abe298eaee8a1f63aba168e3b",
    ("periodic", "piecewise_mixed", "periods40", "json"): "cdc14c8080e9e876215f91c33c555597c09441f2d47383f010c2ab9e5ee90f7c",
    ("periodic", "piecewise_mixed", "step1024", "csv"): "cee3a850513cdfaea69e156f44f588f406eafdd936af6956e27fd4c489a38c1d",
    ("periodic", "piecewise_mixed", "step1024", "json"): "403afa8943f05aa5e34838432c5d3f76431ccbd669c996e1f8042c59376d42c2",
    ("periodic", "sinusoid_r", "periods40", "csv"): "0b498d0f6c0b857733c60588268d7c5fb28b4429a9bc022650af92891d4ccca7",
    ("periodic", "sinusoid_r", "periods40", "json"): "f64455bba42012dd61bf04dd81b4d495a4581793e28ed6134defe5548d74d179",
    ("periodic", "sinusoid_r", "step1024", "csv"): "3fc0d328b597c6b92508900c128e5e48af02f6514257538b291c17affbae2306",
    ("periodic", "sinusoid_r", "step1024", "json"): "20d9003b2dc65dca1fa3a7ec981616faf11c7f79a0aaa27a5d9cc5387d615c83",
    ("verify", "golden_constant", "periods40", "json"): "4f562527447b8ae5757921932423807c2d35256781409997fe8d1f46a8239c60",
    ("verify", "golden_constant", "periods40", "text"): "4139daa35ae86ee6acfaf56d1814b2817a73c42efa603fc5f050b98ede28f94e",
    ("verify", "golden_constant", "step1024", "json"): "048f61e332a7e8ba4c6dfa4e9f5023c8ef619da3f257a98d5c73e75b3ca6a4a8",
    ("verify", "golden_constant", "step1024", "text"): "f3e5eb679cfdf5384f59a224f321146c3815607a8813a995abf370710c496aa4",
    ("verify", "overharvest", "periods40", "json"): "0dc04286b2e3ba1075c32b03919ec833b4c58b1d87d516d5f8d973625287267f",
    ("verify", "overharvest", "periods40", "text"): "426219f478b335ffccc47d693d7403b19cf67b700e0513bb7013326e2ad3e885",
    ("verify", "overharvest", "step1024", "json"): "d48cf864281c036c08e09ad036a8350bb7999d81716e55d5169b72d697fe0afe",
    ("verify", "overharvest", "step1024", "text"): "4644c47ad8691e65b44f92346609733a9ef0170ced49f531471f89772b342f6f",
    ("verify", "piecewise_mixed", "periods40", "json"): "7025fd37cbb0fecb36f54fad4edf6b700e70aaa033b2ad88276dbbf1134a0358",
    ("verify", "piecewise_mixed", "periods40", "text"): "c15a1229d446f4ecddd86ce494184e67358599efaefb6bdecb39a776f1cf5a19",
    ("verify", "piecewise_mixed", "step1024", "json"): "3e535c869e26be2f99e20b0e0202f2a3f00bc05197962ed8964ec0a7e33ff9d4",
    ("verify", "piecewise_mixed", "step1024", "text"): "ecfc0e04b52147cab6e7fd354ce0abbb9458f2b24bdbbc6a9ff291e5ec40423e",
    ("verify", "sinusoid_r", "periods40", "json"): "0411d0a66803c5ba9b083cfe42ebcc39447e156e4371d9ee5c73be39ea67123e",
    ("verify", "sinusoid_r", "periods40", "text"): "297b2850a2626a279072d13b84e4e7e7ab700b335a28d1d504130c09d65f7bab",
    ("verify", "sinusoid_r", "step1024", "json"): "0305ce1abcb78294396a200437869f7b98d46213e5c970752fb7fb3a0b46e371",
    ("verify", "sinusoid_r", "step1024", "text"): "e31854fc45983f72335b7f07f55c514d7330fb62da2818048dfd03d2f5d5f0f4",
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
    ("periodic", "t0-below-1", "csv"): "f36e83246da5f7edbc5f883bc04e177a1731e720a11a8e3327eea5fa84856e17",
    ("periodic", "t0-below-1", "json"): "7f95ba92d1ae03d274a081dfa4ed12eedd00937eb0c5faac96f921845d240ba1",
    ("simulate", "t0-below-1", "csv"): "54c51fffc4294c9e29fa74283e8d6f6fe6298354cc4bebe123fecfcc38745ebe",
    ("simulate", "t0-below-1", "json"): "0cebc20392d1b34cd72fd4b5ac64993f8d85b7b88eff834a654d04d4fc25b26e",
    ("periodic", "t0-near-2**52", "csv"): "1d815c9dd10742b7c726682e1142d425ce6bc1021f3fd16acfc8e9aaae4c396f",
    ("periodic", "t0-near-2**52", "json"): "c200f055e8c2f250c37c6f850d62f24c0538ebc61a4e0374aef5151855f80486",
    ("simulate", "t0-near-2**52", "csv"): "075f94f3602516a672d50c77feb6e780607090fa633a41590a50196f672d624a",
    ("simulate", "t0-near-2**52", "json"): "5b7ae0296196070e934f50a5d6f708682803528582d00772868b1781ae269c44",
    ("periodic", "t0-large-fine-step", "csv"): "364d681eed0a1d1a84f14e7539f97f2faaca69ca41261756db538c18d70393cc",
    ("periodic", "t0-large-fine-step", "json"): "ceed14a1549480aac615720b1ad9947ef15e7a15183c28e17dec49bdf013ed96",
    ("simulate", "t0-large-fine-step", "csv"): "aa772e36a4173fb153863746e6f6e1d784be0ec3af6ada0a996a97e5542e820c",
    ("simulate", "t0-large-fine-step", "json"): "e49700299022dc54101e894e64014583ace6e10957915e5597ad50d2c3b0e1a6",
    ("periodic", "jumps-off-grid", "csv"): "8d85a12693d54b0e913b95674fbbaf1fe08677bd704fb0ef798cf21ea9fa6009",
    ("periodic", "jumps-off-grid", "json"): "31bf52ec1c10c23cad7755e0ced8d35758e63d71de8afc1103c52b32f8a8747d",
    ("simulate", "jumps-off-grid", "csv"): "715358e76d5f39baa4254f1c2135b6ef5d55b49eb0679dfa1d2abec2b5f66f74",
    ("simulate", "jumps-off-grid", "json"): "e213c26cb371f707e669190798e49626afd6c918fa667c7d66aff3f72f0df833",
    ("periodic", "step-0.01", "csv"): "eb7cc27f465ee57052081b5eacbd662aed95e7faad7b283edc0571b5e00b7bbb",
    ("periodic", "step-0.01", "json"): "51c9c1640bc08de73bba87b7501ca8047d48fa7f120e3e48874e34843d1aa438",
    ("simulate", "step-0.01", "csv"): "555a6cd0b848c5898c383f724fc7db9a6b8c427bf4d9504bcce3ae20efd2f1cc",
    ("simulate", "step-0.01", "json"): "bbd33f4f9ebec058703fcaaf443b0a7339f07fe4c4786af0e422c3904f0f027c",
}

# (config name, format) -> digest of a 300-fraction sweep, E = 0, 0.002, ...,
# 0.598: more fractions than a 256-entry cache per parameter set could hold,
# on both sides of each config's critical harvest
SWEEP_FRACTIONS = ",".join(repr(j / 500) for j in range(300))
SWEEP_DIGESTS = {
    ("sinusoid_r", "csv"): "8848fc7c1f8558c5ec6f3401fd4ea3c87bb85faad08958db23054168040d8ba2",
    ("sinusoid_r", "json"): "131bee2439720621161240d26d8ef3cfbe268eba0add4883371ad8b88e8f9fa7",
    ("piecewise_mixed", "csv"): "af9983a3ff82147f7e5bd19cbb9685dffa28f5cdff59b0302dc252073abeb2ed",
    ("piecewise_mixed", "json"): "297e54175327a0ca1a1c9372f9c4b9bbb16b0eb005197bbcf7f5d3ca10c0baba",
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
    "e-values-on-sweep": "fa68d6331d394b7d8b5f779553d4301667d59dd85f2b7922eb51a16f6426f80e",
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
    "run-verify-overrides": "3b8a8be63f20519868f6b35026cbc23fab66119424f747f965db052d736a718f",
    "format-is-a-command": "cc70f7b44c9a86fef7fcbd8374a9dcb90e01e1efbda7d1d7f6d343e7ea3b9d00",
    "periods-with-a-space": "4005c6b1d249f8dcfd05bda844c3174dc83c1dd5537d9279fd48bca007959547",
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

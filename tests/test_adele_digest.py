"""SHA-256 digest of the named adele constants over the window [3, 1000]:
gamma_W, gamma_M, gamma_G, gamma_L, gamma_AG, gamma_Kp, gamma_Q(2),
log_A(2), ell_A(2), and G_A(k) and Z_A(k) for k = 2, 3, 4. A line per
(constant, p) holds the residue, or "undefined" where p is in the element's
undefined set. One digest covers every line; beside it each (constant, p)
keeps the first 2 hex digits of its own, in the same order, so on a
mismatch the test names the first (constant, p) whose short digest
differs. A changed residue keeps its short digest with chance 1/256, so the
case named may come after the first one that changed; the whole digest
still fails.

Regenerate them only when a residue is meant to change:
`PYTHONPATH=src python tests/test_adele_digest.py` prints them (tests/golden.py).
"""

from functools import partial

import pytest

import golden
from kurepa import _memo
from kurepa import adele as A
from kurepa.modmath import PrimeRange

WINDOW = PrimeRange(3, 1000)
WIDTH = 2  # hex digits per residue

# (constant, its element over a window), in digest order within each prime
CONSTANTS = (
    *((name, getattr(A, name)) for name in (
        "gamma_W", "gamma_M", "gamma_G", "gamma_L", "gamma_AG", "gamma_Kp")),
    ("gamma_Q(2)", partial(A.gamma_Q, 2)),
    ("log_A(2)", partial(A.log_A, 2)),
    ("ell_A(2)", partial(A.ell_A, 2)),
    *((f"{name}({k})", partial(getattr(A, name), k)) for name in ("G_A", "Z_A") for k in (2, 3, 4)),
)


def elements() -> dict:
    return {name: build(WINDOW) for name, build in CONSTANTS}


def cases() -> list[tuple[str, int]]:
    """(constant, p) in digest order: p ascending, then the constants in order."""
    return [(name, p) for p in WINDOW for name, _ in CONSTANTS]


def lines(els) -> list[str]:
    return [repr((name, p, "undefined" if p in els[name].undefined_at
                  else els[name].residues[p])) + "\n" for name, p in cases()]


def first_difference(els) -> str | None:
    """None, or the first (constant, p) whose short digest differs."""
    return golden.first_difference(cases(), lines(els), DIGEST, EACH,
                                   "first case whose short digest differs: ({}, {})", WIDTH)


@pytest.fixture(scope="module")
def els():
    _memo.clear_all()
    return elements()


def test_constants_match_digest(els):
    assert first_difference(els) is None


def test_a_planted_residue_is_named(els):
    g = els["gamma_G"]
    planted = dict(els, gamma_G=A.AdeleElement(
        g.window, {**g.residues, 503: (g.residues[503] + 1) % 503}, g.undefined_at))
    assert first_difference(planted) == "first case whose short digest differs: (gamma_G, 503)"


if __name__ == "__main__":
    found = lines(elements())
    golden.show("DIGEST", golden.sha(found))
    golden.show("EACH", golden.each(found, WIDTH))


DIGEST = "ea277efe56ace0543a9d334bd95788de220e38b45c5ded1b2c462e01e36c4845"
EACH = [
    "6b5e2803aa1b4ca80a75f4a9e29bf9750227e3db855e41803e5d94133e4c2ed9",
    "ac5f523e1f0444eb7b0e80cb58d11af860cde6e49136375070718348c9a4ab08",
    "c588ba8562dd2590c73abe6b16b4d1e30c9b5ddc890877935b4e8bf9ef758c6e",
    "3c9e9eab4b2032dd035b35d8d1866abf5d14b3d957462c0386ded87496fb1a2e",
    "975c8f9dd3f31acf813a223a4e1082236cd75467906d9523eef47717fee7764b",
    "38a7b7826a82043527757eb5bb081ffe9e2a44f9a0d28f9e5af967758a578630",
    "be344e0b84331c5f2403e5fe04ce991b2f79b7d1cd4721760ae7fbc62d8af931",
    "7bbead93b6f40d2e72295ac039d9fd22eb9ce8bb0a0d8b11a03456f84c1ddc6c",
    "b43674c32728cd22d74998639870c6cd669c8b5d92d6429af15117f28bc30863",
    "1cb33388d8d60afaa546f7870e4cc26e9cb0ff3af3aec6e3b569c322d41ade14",
    "d73b3f8d1dfa0c784b6e592c82eb354dc51a51265a366d374436199bc4483c10",
    "1bf2ee62e306cf088b48464a0d19d1a82a82413a96b55fdb32cf29513ad919fb",
    "d2668c50aa434ce3446c4d2d13a70e0fcaece70a9ce781c9b5ad4c2d658e83a1",
    "fa85b8d404ec7a85de18282727f8e40aa7909ed9d5bb011930babbdd74dd693d",
    "1702ea8133814ed0a3eb627e8f36bbcfaefcd8902163c03456e5b7eb8d459e43",
    "33b7bb7be83e2751499c9c67c96757bdb8bfd27d6750adb9966af7215ea856df",
    "970c1c1a202d49a85416095f42f589b122b53e166b3ee23ea0c2efa48c2a8b94",
    "0df1b094c5f4d23f2dc0e166f7f04099727b21b6829c208ebce3c579c49be904",
    "c268387f9cd7f12b73598a05274384d23824c62c02518722236da2229b93da90",
    "19e270ce646854a50053c65aaca04c7ad484acc291e1437c9c5d7d3516c10ced",
    "f8bae86b73b65a028c3220dc4b449fc34aedaf6ac5e848b3921aa2f6b5bdca09",
    "80ccd14f0a9e89963717cc85269e024a4603c46aa7ce3a6f1f947fdda5cbd0b0",
    "d0e144d6e15a78f37d132d832871e90ee9652918127a6348a153f267cda0621b",
    "7778dd109c987c58dfbde4afcf08de84241aae4d5378e1f98d57913e46eef7a6",
    "badb7ab78a87b0d0f27ff25147cecb7e280490ca0bfa51b2168de5ed3f910bfc",
    "69f1febc9a31cd536a657e4b5b7e09b87aee853ee81c2b5100be2f70ca3465b3",
    "7afffc8437948290bd6a77696b7a41c34498e3592b8b28438b4104e356ae5c57",
    "b88b915fe6dd6ec2a366d079af945ff4860f13f406c70f5529ee71e9753906f6",
    "afbb7b9d4ae6aa74e30b7374504a6e17b26133b5e258a5dc29eb3ff93e9c915c",
    "3585786de752f1335e4479838600999b0869c613d34c4d428244035d909c3193",
    "a433a8f0bcec68deba904285b7f25aa493ceeae5c8c4192a342b39fe1073feef",
    "cfbae5bcf97711bdcccda253f62edefff36d2a9c17d441eed57f5a3128ece6c0",
    "5e0d3b7a6a71aad8796d8a9f57ca1d4ad30984130415b17db61b718cd4f1a75b",
    "f314bd80d68f082370393963a35efe75bcf7070cbda8f8dffb2de2cb2710aa0c",
    "93af1e4f3e6fac1e54422ba3ddb79f371b1ee78143fe45bcb34eb940cd41c5c2",
    "ca2c6aa83de3f6b33c55f2e8c51bbdef7cc7a671b7d38d471f14918c29bbafa0",
    "904e03ea3dddad205c5d43f9acb33db0e630eb71ee2db005f7c59ae08fb19586",
    "788ac3b2ba6727173677646157383034e7452e0b5a8436ccbc711013c5683e0f",
    "744701a780c5461e70463ac01672171a89171545ce1def6f68a0135d5bdfa1ed",
    "f6585c9d5522e7f69ac95950139df08b6d51aeb4e1f45d62072fb5e771914e93",
    "c9d9ba7be9d1c9682e734ee6606faa5b556f9fdefb12a43b6126dfc2a221c25f",
    "5bdd2a874e4776c3934eba1b8fa1adb68407030acd82df350e247155a4f0ff01",
    "e69da1d9bd719a913e8cf76d1d117dc3c19bef6624403980c6ec87e93def7a2f",
    "b62d6a72704a3c78e520ca0307b31e5bb289f01aa64f78d1220a66594e04abe9",
    "12a8e3fbaad1ea125947a4caadb2a5a5e26dba397bb10fd2d5801e43e8e73a2f",
    "9ea35ebe355c078b801d7b1b2947f16f36f646bc2716e0cdf9fc0af36b622691",
    "52534a63e89e05da44026707b5b5903b6e25c2bb81ed349d7587f6baf21fb419",
    "0339a2ce45888ca660f8930316d583ca489ee3f246c501242a09d1a04e0372f8",
    "e8c349e94887cebe9afb758156bc8c67f1f7b353bab876d7c221fbf9d95e2cec",
    "0b46b885e71fb2fcbb985dd801fe0ffb1a87fb5082ca6fa2aadfff99dc0c9e91",
    "a4ae4afc696467472b439c0535d68c4eb91198cd658bde56add74b39d4ddbac7",
    "bec1a627bd855e97f21f2caba438d2beca6ed9235e5c40bef9bb25aa8066d8a8",
    "32e8f91a614ed37997a4263a5b95cdcdff147a44e46aa2b68b48610fc34808c8",
    "73a99c419888f54485369e5fc1fc5e2c9b404585478dae772d3181a703691292",
    "a208acc9a13ed8391c2c043ad43dea7b4de1157aba54baf1c390cfb6693098a4",
    "071ba82926a8583994c5af906c5a5f28849bcc013310e80df5673d85e88bd43c",
    "325c000228a22a437956eae2a81154ead8a01aa5c9e5dd24033edb88ae5875cd",
    "de7fccbaba9a152de382fabe4792b117610de868e5841a9d6c7b8de5daa06b34",
    "fa8b47595431adba9bff9ea85a3050e3e2235ba50284deca5b69bd7282f086ac",
    "34fc056c95ef612f3da383a535d9d6ad128407163733056df30637a2c93d8a6b",
    "f7a387a909f609cbec1f6d75865598476653177fb3add4abe9a777be21254389",
    "a3f44d8f4a68aad04ff0eed267fb3c914dd95d01b1107bc68f72377588afdbc0",
    "fd3ef1b9531bf525d75f0c03d41fad5a163f536181ad0fe3e02a371e0fe8a44c",
    "451a64f540dce8a8450b9de406ee6f3a257bd7620f702b8298b45be962a3627a",
    "5bc95b5ee81cee4b514dad0ea4b8fab1919a8514e8b8d132db97ec9fee54c260",
    "95d3fe1e5c1edd1c4b39ef28a506a1223930eca3f51a3c25a9ac0223155d327e",
    "346be75f6ddff1fc9b81dd0776b2dfd978bafa5b06746a14dec69ea322d9d6b2",
    "b397b58ead22e98ba32c03d63cea7a12ef3c31ca216127a9c7bbb53321d0d5d6",
    "6436f3bc73880e7b33ee8253f60c67814bcd74a9c1661644c511de8b7cefaf2b",
    "d104befc64641d30a0a703bbf9266dc508a23e4a41a499604b3ff5d7275cfaf2",
    "ee5a881b8278e4358b5c0126d1d2f799c2ca28de9f2d564fa274497d03ff5f2f",
    "a9d89a508fe78e41821fee6177adf6b58f76bff591e698298fba0600690a7fe7",
    "9a95bd914b365eda936ca780f0036a5ee53daab1c971b4f29181aa07e78ea87b",
    "7273ff3f391e902a9117f7b1d8dc88254f8d53ed2e9fb8bb3b1a110e64c03d88",
    "bff49607536606728de27b62a38173d651b5a3b004f113df70b7ab9880d15e53",
    "b00695022a205affb5d6b2a1a5bc6676ad27fa5376c94ff3c9de4eabd0e0cda7",
    "156faa0e1a0584ffa58b428f8bbbf846bf9d585e8d897d825d78a73a2aed772f",
    "9376f7d41e3c46fe8ce739fe2bb1413ec352cca0b76820b8dafd34a7fbf0e50d",
    "e3b3169bd8ff8587e2",
]

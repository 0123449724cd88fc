"""SHA-256 digest of the four mod-p tables and the Bell values at every odd
prime up to 600 and at 10 seeded primes in (600, 3040]: the Bernoulli and
Gregory tables, the Stirling row S(p, .) mod p, the Bell row
Bell_0..Bell_{p+5} mod p and Bell_{p-1} mod p^e for e = 1, 2, 3. One digest
covers every cell; beside it each (family, p) keeps the first 8 hex digits
of its own, in the same order, so on a mismatch the test names the first
differing (family, p).

Regenerate them only when a value is meant to change:
`PYTHONPATH=src python tests/test_table_digest.py` prints them (tests/golden.py).
"""

import random

import pytest

import golden
from kurepa import _memo
from kurepa import residues as R
from kurepa.modmath import iter_primes

SEED, EXTRA = 40, 10

# (family, the cell at p), in digest order within each prime
FAMILIES = (
    ("bernoulli", lambda p: R.bernoulli_mod_table(p).values),
    ("gregory", lambda p: R.gregory_mod_table(p).values),
    ("stirling", lambda p: R.stirling2_row_mod(p, p)),
    ("bell_row", lambda p: R.bell_sequence_mod(p + 5, p)),
    ("bell_e1", lambda p: int(R.bell_mod(p - 1, p))),
    ("bell_e2", lambda p: int(R.bell_mod(p - 1, p ** 2))),
    ("bell_e3", lambda p: int(R.bell_mod(p - 1, p ** 3))),
)


def primes() -> list[int]:
    large = list(iter_primes(601, 3040))
    return [*iter_primes(3, 600), *sorted(random.Random(SEED).sample(large, EXTRA))]


def cases() -> list[tuple[str, int]]:
    """(family, p) in digest order: p ascending, then the families in order."""
    return [(name, p) for p in primes() for name, _ in FAMILIES]


def _line(case, cell) -> str:
    return repr((*case, tuple(cell) if isinstance(cell, (list, tuple)) else cell)) + "\n"


def first_difference(cells) -> str | None:
    """None, or the first (family, p) whose cell differs from the digests."""
    return golden.first_difference(cases(), map(_line, cases(), cells), DIGEST, EACH,
                                   "first differing cell: ({}, {})")


def compute() -> list:
    fns = dict(FAMILIES)
    return [fns[name](p) for name, p in cases()]


@pytest.fixture(scope="module")
def cells():
    _memo.clear_all()
    return compute()


def test_tables_match_digest(cells):
    assert first_difference(cells) is None


def test_a_planted_cell_is_named(cells):
    at = cases().index(("stirling", 503))
    planted = list(cells)
    row = list(planted[at])
    row[7] = (row[7] + 1) % 503
    planted[at] = row
    assert first_difference(planted) == "first differing cell: (stirling, 503)"


if __name__ == "__main__":
    lines = list(map(_line, cases(), compute()))
    golden.show("DIGEST", golden.sha(lines))
    golden.show("EACH", golden.each(lines))


DIGEST = "60c6e182cb6cfbf366db55806cf7f08640ad3b9dd854c138b085ce2ff1ceef6e"
EACH = [
    "70415c61a671a23cd67e6fe1781b02c550bf643d584ffd0b254973dad7577946",
    "f100f049259470422425447a8f1b94c7cb3f47365acc4789ef5122d0538e7893",
    "5fe07ffe6e05119d4ef204156d4823df08e7a6479e3f7beec138e9fb84c15636",
    "66ce4cfeba21a119676e28dbe3c7844d1ddcc83134c083653df8cb09a90f8fea",
    "8a76d498f4cd069076e71bd6e1e8b52972d5eea281200e5f8abaa1d17d3c8bcd",
    "1a9f78ba86750fe06b62e3f5a74db29d19b99b0881ac97930737cbbd176d8429",
    "e59e98749892e27ffc785541522635617779b3e885ac68027f1919ed99973f26",
    "0696fa13c6b8f708b74fc40cae603bdef62efa3bc04f3ec01f48b95e4e97c91c",
    "b978d61149ec088d03756e20f3efa40a64578918256193b5e321f0f8a5a087f7",
    "f72c1a50a31dd66e20cd3b0f8f65e8e8eca81082a8c8921a064638ff3de91ea8",
    "bc071902d064c0484b5467a1a30ac1dfad7efc294a8c42ecb6c7a69584d5457e",
    "fe4532844c74d6ea1651a30307552660dd93bb4394a5c4e61dbb0a4c8f096fb0",
    "0096fc68425206e23f5e5453457407f725da8aadc228ffe500771db0ceca7b72",
    "0610680bb4a36e2b0f59243582e2238acefb59e1a9679854497d0862efcbcc1f",
    "a1eb15a52059193cd86129615b7d610ec3486e6dcd3e23e89010eefb1c9d3e64",
    "1c63750af9210105201c8d8c61b3679b06aadf75f017cae24aa4a4d3739169e3",
    "94828be10e0747d00c254ae078c915c6693737bc0b668fa59080e6b19aa0a560",
    "d5c25b250bed23d582ae7350e2bba26b01739a17bf083c48c715a3923f3ee563",
    "e4451a24fd1945fa933b7020513f950d1c4e9eb90a67bf4277280449e02ab3e6",
    "aa8a9daa38a1e2ca021e462e93b0d819c39c4df073cd72e8b1f418c3e9127da3",
    "9c2de9d273ea869c62ce5c1b70c76c30d364cf641bac21dae27f8262732f196f",
    "0aa5c7cd285bc2779593ba1b4d8b5a52598ad0212bfc8a9c6e5197e49c137503",
    "912629385038d610f10751fad9534472ef2b8bec6f53b81b9c2f7b4d4e89a208",
    "a3fa1f3d85eca59bc138d7a80a1dbd72a3d7edce95b15fc7cda18ffd5597e8de",
    "f12a40af2fc841e43708a45090e9b71e311e4d7d553ee1b90bc9dd055522f0b6",
    "7c348e83f75ac3769c691fb5089d65ce2686cd7769f50ac55b6f22948d9c2638",
    "f10c2ca3d54faed2a78f1f0d513484aa2ae0b9b447b319dfa4f7e5bc455add69",
    "855f25717a38da6a6e51f9bc125bd08e939a8b61344e231e06cb4675835de5bc",
    "39314a18e3773bba249bd5723e73882ce9377cd2aeb0191b07ead084ad86d04e",
    "c42e9944ef8604dbdd3c253bd725bfaa332007db4b823a58827fa937d1a7345e",
    "d3e4a8f335144ddb98cc33e01f3d8daa61eb942e4a5b1d3111e7dc0982c42dab",
    "0bce2070d14b7e70fa278a8d34f3e6126b5d1d525b70bc817e2b947f287c96e8",
    "cbeb8c82293828f49d1f5dc17d74209e3934b714cc90962082ed208ab42fd69d",
    "36a321771340ce4f45ba2f5a952c8c1f26876c2305e0c9dfd5d706f002958f73",
    "a9598ee3e1cb4797ec120b49cd0bd6d1884ae4b9b766972a4dc89dead7b0607f",
    "b9daaf114c1052386e2e5d67d989819c7ce40b269f98066b3eb19620bd9dc60c",
    "3a64c9ce3fbd627365d3d5809d613e551f7266ee1fffffb0a897d8df6ed28146",
    "a2e0c46fce1fb7f9d31a5f428f8d70f0b8359cfb9078edb0e366d03fdb6de5d8",
    "645f22f6683f60fe8eb0056690493230dedbfcf1ff5b5f3c1af8f28c2b71dba2",
    "3ecf613dcdfc738f24ddf595c10e1ab206479b101c7dcea0212a37fd07c50dbe",
    "ab7eee07fdec4cd61aa5d0cec0e973d30dd7adcbff3d55a5b343043f90f533b8",
    "03c0f94f8850c48b0adba2fe1810b28229a082753878c0c7835811834d0fdefa",
    "bc7a1af336612106823fc21ceec869467d531c2626d6304ed625083832d231c0",
    "1501392995c7738b87c26d19a788056b92c809d05510a5fc121acbbf91793a70",
    "2de7a3e7a1f2140fe43f979243ace78a762e9d0c462fe905029eb37261097137",
    "9a396bb8997b6a019480fdd522b06763ff175c0d5a4953fea525047b149b8ba0",
    "83f1df161d8fcd5970c2ae854b3407c8bd9cafc4f9fb6401ad6e0622070975e6",
    "56e6c9bff3d29315cb2549400b2012c870bcaec2b9f21c662cec3f1579343356",
    "800db4f9ba2b7d64ccf9664c6a2e82c57eaf2d998e66399d623b0d003aec8310",
    "eb746812a5a44a4ed25a0769cdee9a51a928df61c6342700a954f56c6d66505f",
    "5d0299e3382a9bb36e7c2e808147540f45ea1710092f345d8feb0bfe60518da5",
    "7987aac80a33e4c2c626baad0f6aa8b497c3da86cd60d977ee631b0047ae22ef",
    "5e1baaaf0a4cf5ff4ff884af875671f20d490401016a67ccf3828e7a6ba99676",
    "57875d106644b8c5e11bdc4586c9d7be885147c683bf0d427715228ee1a9c2c9",
    "65fcb8e0a0ac78c5219794c1ca8d941d31366d158441cfb25afd71729da1224d",
    "d79f70653fbcd91fde82936cd790643dd4657e77d829073191c0c68380347ad6",
    "524c1446ae66cc6885fcd53970ee2f9bec2d38d7f3737d5f15c881d6d53e2b1c",
    "242b5c591d1eed64ab0c8135cf27f0038f5fb760417d92520913fd6dd7a1a517",
    "5354fc656da04eac9b132d949386553d2bee54696e177eb7b72914b15483fe53",
    "57c7c2fde15eb6798ea97fa1121dcd9b927694a3be10f8311f33702ac8168433",
    "58cb1b126a3c8b011c915b96b3c7b43115c439af65eef5876f0afdc71c8a8b11",
    "b913b8f6d25ad0755882be4446dbaae2fd9c57d698b578ffcb5b1041c251bfcc",
    "7ce88415fd92ebea5aefecf12be237b883ae755690d64eb9d1c221a9a35c602a",
    "a32e4f508e8320c599bc34c8bcd61d770a144a89e90a3a76f69ae21d16d8e1e2",
    "29b2f51027daf0e04e1127d32230372cb1ad39e0814de533990eafda6ba065a5",
    "65d9612bfd556116e68acbe350e8cfaff9b0279c7e50e250474497316c267253",
    "332878de381abda59a98133c3bbc3252fb7f66bfcfd081fceade5860acd2967b",
    "fc8245f4dc439a9b364f0ee5a47c8f24486dfff20af5e970ce7c38f95d0ed8f0",
    "755d9fe198b390e6dc35cdd842ad55caea655d89bacd152a29d677b8188a169a",
    "428b5d73bd6b4d12890cf83a783bfac5f722ee25fa23294f3a2227b457d5a104",
    "7c579ce3496ba6c2e07a78eb98e58ac54b2b7568117d9661613468964bac5034",
    "f36199e7a7218caabdc17c5b57b9d1f9a245815d8b8c1c936b85844e9b5655ab",
    "9bde83b26169ea95793be3d3f82dc4eb2b38eaa4093983bda7471d4250505d2e",
    "8c60e467728b6152cb1a607a5ad5e53cd4379006202d6e681f5bd70734495cd6",
    "2292450c352f9d7420838804cb530247f17acdffa98ac6d59f7d937237f45c6f",
    "4fa87db3ae5ded8ee2711a4be1f7784de1c3f72f5fdfffee8499c78bc0cd5753",
    "eece39c1df369babcf782856f163938755be9127329d2e03c511a55bbebcd9b2",
    "93b6cd274c46682ee931ce6202a18ba060d154da03879d4ca859d4c519536a03",
    "666ed89ab6fb4f98dfb73ac84bc7ca998fe4d2ee62e0461e848b7ca25193a14d",
    "9eb1fdc97742c64499571cfa8e9ef04a190a37fa9b6f975a0aca1da1e48921d5",
    "822b8a51bdb9502eff03865fb516ac0db5248b73313f839f3fc6a20cf765a013",
    "3734154dd629be228bf9e867246098db52f85ac8cffc4403e0e3b41a31c4a0a2",
    "1c05849171a453a392e6ebed52638593524520e884d28d844882fc6931494784",
    "3d8d222fb9980595c2b509efd52d11f5d50a900b2cc98993362671ddc990577d",
    "f8d905be415a23ecc2c215c2bd0713e8b18afe1445ee715b79921b84f6b76e89",
    "a1da99fb784731621c4fbdebd208a2ab9217139318e070181c0d908046505401",
    "3f9d33f8677da1bf5c88ed5d4dee731af48fcf9b586466f5b2cadcf872679250",
    "b1d15a07058f001f7a19a12fdd7c18b5de4d0e25a0c7a761d4c2ad09cdab4fd2",
    "618555e39901f1ee01171d4976ac4086f85fea1e3b1631af6a903a7833bfd2a2",
    "9fb3e26fd1298cf2713b0ca88be4773bf628abf15d212d084beff8e398ad9daf",
    "7655f03f8efbb5e5f582fc9a1a69da150fd438cdb15c1dad1c40f5cdd8adf54c",
    "4d49362dbbd600c0674f48c5efebf723aa9fe375ee652e31a61262fb7df896b9",
    "b69e54b44c7f5d16cb20d44b7566de9b61191d78559de362e0e3b0d222b42208",
    "7059fc0c085aba8be77a0da7e054351b936f48409f592115796bf31278744e54",
    "fb85c4a29925046cb6ae6783a6399cb100dd349b26ea88f8be6cb2fa6447211f",
    "6429ec274dfd18335ae4a8567b39479fd2d8495513bf280516a9b898a5740854",
    "34063c9dd74a3e94d46540b88e14c686543fa8bc84ac4a14fde1a570abee05d3",
    "87d76ec17b402575797b5d4bff4007ff075a749db5cd75ec8e0d4abedb09217d",
    "cad08cca9bfe3cdf5afe5ab502cd10362ffb1104a34e9e4730e89cd85f3b45f2",
    "3a469bb4f3ade2c1788914af34fb81e33a5a6cab7604a51055c548a0987b68f3",
    "d1cc94433e83a02628b0b123dcf6c096cc6366e4506e58189f0a656ca39e7e0f",
    "a617c4f5d8e6bb11fe819a424dd6f27692a4410ced650bb938bd5664cf42b5ea",
    "749fd678a0fba6d86d741d20ab2fdbbc54cea2bb3658a2b1ca5b8da4334587e5",
    "73bfa6f91e78242e",
]

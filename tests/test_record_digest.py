"""SHA-256 digest of the p^2 values a residue record reads off its power
table and Bell_{p-1}: qsum, lerch, gertsch, bell(2) and bell_wilson_sum of a
fresh `PrimeContext(p)`, read in that order, at every prime in [1021, 1600],
at 10 seeded primes in (1600, 32768) and at 32749, 32771 and 99991. The
primes straddle 1021 < p, where p^3 no longer fits in one digit of a CPython
int, and 2^15, where p^2 no longer does. One digest covers every record;
beside it each prime keeps the first 8 hex digits of its own, in the same
order, so on a mismatch the test names the first differing prime.

Regenerate them only when a residue is meant to change:
`PYTHONPATH=src python tests/test_record_digest.py` prints them (tests/golden.py).
"""

import random

import pytest

import golden
from kurepa import _memo
from kurepa.modmath import iter_primes
from kurepa.residues import PrimeContext

SEED, EXTRA = 43, 10


def cases() -> list[tuple[int]]:
    """(p,) in digest order, p ascending."""
    seeded = random.Random(SEED).sample(list(iter_primes(1601, 32767)), EXTRA)
    return [(p,) for p in (*iter_primes(1021, 1600), *sorted(seeded), 32749, 32771, 99991)]


def values(p: int) -> tuple:
    ctx = PrimeContext(p)
    return p, ctx.qsum, ctx.lerch, ctx.gertsch, ctx.bell(2), ctx.bell_wilson_sum


def _line(row) -> str:
    return repr(row) + "\n"


def first_difference(rows) -> str | None:
    """None, or the first p whose record values differ from the digests."""
    return golden.first_difference(cases(), map(_line, rows), DIGEST, EACH,
                                   "first differing record: p = {}")


@pytest.fixture(scope="module")
def rows():
    _memo.clear_all()
    return [values(p) for p, in cases()]


def test_records_match_digest(rows):
    assert first_difference(rows) is None


def test_a_planted_value_is_named(rows):
    at = cases().index((1031,))
    planted = list(rows)
    p, qsum, lerch, gertsch, b2, bws = planted[at]
    planted[at] = p, qsum, lerch, (gertsch + 1) % p, b2, bws
    assert first_difference(planted) == "first differing record: p = 1031"


DIGEST = "c6250eb60476eefd3f4f6a31c2a203a73f2c991c0355df2f67ea50eb0b8a4cb6"
EACH = [
    "a0735148c8f5c8eb66cf9ad758658fb070ae13aa40b17496e60426a72f8280a8",
    "087e25885f40546af6e4f29e4b5792dcb63f5f2c612039bbf7362a4d7214d61f",
    "9bfe60b5842c0a5d64695f6fd23e93409db911ec70c4f1a80c823a0e1341d2e1",
    "fb7dc1c4c1c287f6e9c2e7caaf977f85681e8ff7effd51657bbea25a37c1adab",
    "6cdf1b519e6c249a5d932ca60c8d90f01d2fe9cf0b2d7e660237d7089ccedc15",
    "d561ce13fc1e9a24494f3ee1ea3c764c6ea830708322e54d52ba21b24a6e4f13",
    "65314208e14c4dbe22b5dde20ca959e29ccb44052d17c4a24304237caa741eb7",
    "0eae17ac8362a6f63ea46b7c52804ed2d7023435636f8b4b58a037e1526af63e",
    "2fc565a749e80dedd7695f885fa0547277f3ad49eb4ca2905d1e537c087ef274",
    "34b084914ab850c9844b880924e2db2f5beb6c722b0af068673ab0a4e57fdd23",
    "f6a2ff6588a2c34ed81a19ae02e5a51c55c6dad6d8f2bf65d707272c71dc83a2",
    "000cf6a34f426d3e374bccee16cbd95d4d086e80",
]


if __name__ == "__main__":
    _memo.clear_all()
    lines = [_line(values(p)) for p, in cases()]
    golden.show("DIGEST", golden.sha(lines))
    golden.show("EACH", golden.each(lines))

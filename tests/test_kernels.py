"""Kernel tests: every table kernel agrees with the exact big-integer oracle
reduced mod m, and each numba twin with its pure-Python reference; the block
kernel behind the (p-1)! and !p columns agrees with the per-prime O(p) loops."""

import math
import random

import pytest

from kurepa import _kernels as K
from kurepa import exact
from kurepa.errors import InvariantViolation
from kurepa.modmath import rational_residue, sieve_primes

FAST_MODES = [False] + ([None] if K.HAVE_NUMBA else [])

PRIMES = [3, 5, 7, 11, 13, 17, 31, 97, 101, 563]


def test_factorial_mod():
    for k in (0, 1, 2, 5, 20, 96):
        for m in (7, 97, 563 * 563):
            assert K.factorial_mod(k, m) == math.factorial(k) % m


def test_kurepa_mod():
    for p in PRIMES:
        for e in (1, 2):
            m = p ** e
            assert (K.kurepa_mod_py(p, m)
                    == exact.left_factorial(p) % m)


def test_kurepa_gf():
    for p in PRIMES:
        assert (K.kurepa_gf_mod(p)
                == exact.left_factorial(p) % p)


def test_bell_mod():
    for n in (0, 1, 4, 16, 60, 96):
        for m in (2, 11, 97, 101 * 101):
            assert K.bell_mod(n, m) == exact.bell_exact(n) % m


def test_inverse_table():
    for p in (3, 7, 101):
        inv = K.inverse_table(p)
        for a in range(1, p):
            assert inv[a] * a % p == 1


@pytest.mark.parametrize("fast", FAST_MODES)
class TestAgainstExact:
    def test_bell_seq(self, fast):
        seq = K.bell_seq_mod(40, 101, fast=fast)
        want = [b % 101 for b in exact.bell_sequence_exact(40)]
        assert seq == want

    def test_bernoulli_table(self, fast):
        for p in (5, 13, 31, 97):
            table = K.bernoulli_table_mod(p, fast=fast)
            assert len(table) == p - 1
            for k in range(p - 1):
                want = rational_residue(exact.bernoulli_exact(k).numerator,
                                        exact.bernoulli_exact(k).denominator, p)
                assert table[k] == int(want)

    def test_gregory_table(self, fast):
        for p in (3, 11, 31, 97):
            table = K.gregory_table_mod(p, fast=fast)
            assert len(table) == p - 1
            for n in range(p - 1):
                g = exact.gregory_exact(n)
                assert table[n] == int(rational_residue(g.numerator, g.denominator, p))

    def test_stirling_row(self, fast):
        for n in (1, 2, 5, 9):
            for m in (7, 101):
                row = K.stirling2_row_mod(n, m, fast=fast)
                assert row == [s % m for s in exact.stirling2_row(n)]


def test_wilson_scan_values():
    primes = [3, 5, 7, 11, 563]
    ws = K.wilson_scan(primes)
    want = [exact.wilson_quotient_exact(p) % p for p in primes]
    assert ws == want


def test_gertsch_wilson_scan_values():
    primes = [3, 5, 7, 11, 13]
    gs, ws = K.gertsch_wilson_scan(primes)
    assert gs == [exact.gertsch_quotient_exact(p) % p for p in primes]
    assert ws == [exact.wilson_quotient_exact(p) % p for p in primes]


# Bell_{p-1} mod p^e: the O(p) explicit-Stirling route against the triangle.

@pytest.mark.parametrize("e", [1, 2, 3])
def test_bell_mod_matches_triangle_small_primes(e):
    for p in sieve_primes(2, 400):
        assert K.bell_mod(p - 1, p ** e) == K.bell_mod_py(p - 1, p ** e), p


@pytest.mark.parametrize("e", [2, 3])
def test_bell_mod_matches_triangle_random_window(e):
    rng = random.Random(20260409 + e)
    pool = sieve_primes(1000, 5000)
    start = rng.randrange(len(pool) - 20)
    for p in pool[start:start + 20]:
        assert K.bell_mod(p - 1, p ** e) == K.bell_mod_py(p - 1, p ** e), p


def test_bell_mod_matches_exact_small_primes():
    for p in sieve_primes(2, 101):
        b = exact.bell_exact(p - 1)
        for e in (1, 2, 3):
            assert K.bell_mod(p - 1, p ** e) == b % p ** e, (p, e)


def test_bell_mod_non_unit_factorial_uses_triangle():
    # (n! shares a factor with m): composite "p" and its powers
    for c in (4, 9, 15, 25):
        for m in (c, c * c):
            assert K.bell_mod(c - 1, m) == exact.bell_exact(c - 1) % m


@pytest.mark.parametrize("c", [4, 9, 15, 21, 25])
def test_gertsch_wilson_scan_rejects_composite(c):
    with pytest.raises(InvariantViolation):
        K.gertsch_wilson_scan([c])


# ((p-1)! mod p^e, !p mod p^e) by the block remainder tree, against the
# per-prime O(p) loops and the exact left factorial.

def _columns_oracle(primes, e):
    return ([K.factorial_mod(p - 1, p ** e) for p in primes],
            [K.kurepa_mod_py(p, p ** e) for p in primes])


@pytest.mark.parametrize("e", [1, 2, 3])
def test_factorial_columns_match_loops_in_blocks(e):
    primes = sieve_primes(2, 3000)
    want = _columns_oracle(primes, e)
    for size in (1, 2, 7, 128, 431):
        fs, ks = [], []
        for i in range(0, len(primes), size):
            f, k = K._factorial_columns(primes[i:i + size], e)
            fs += f
            ks += k
        assert (fs, ks) == want, size


@pytest.mark.parametrize("e", [1, 2])
def test_factorial_columns_match_loops_random_window(e):
    rng = random.Random(20261018 + e)
    pool = sieve_primes(10_000, 50_000)
    start = rng.randrange(len(pool) - 200)
    window = pool[start:start + 200]
    assert K._factorial_columns(window, e) == _columns_oracle(window, e)


def test_factorial_columns_input_order_and_edges():
    assert K._factorial_columns([], 2) == ([], [])
    assert K._factorial_columns([2], 1) == ([1], [0])
    assert K._factorial_columns([2], 3) == ([1], [2])
    primes = [101, 7, 3, 101, 2, 7, 53]
    assert K._factorial_columns(primes, 2) == _columns_oracle(primes, 2)


def test_factorial_columns_match_exact_left_factorial():
    primes = sieve_primes(2, 200)
    for e in (1, 2, 3):
        fs, ks = K._factorial_columns(primes, e)
        assert ks == [exact.left_factorial(p) % p ** e for p in primes]
        assert fs == [math.factorial(p - 1) % p ** e for p in primes]


@pytest.mark.parametrize("block", [[4], [9], [15], [21], [25], [7, 9, 11]])
def test_wilson_scan_rejects_composite(block):
    with pytest.raises(InvariantViolation):
        K.wilson_scan(block)


def test_gertsch_scan_matches_gertsch_wilson_scan():
    primes = sieve_primes(3, 400)
    assert K.gertsch_scan(primes) == K.gertsch_wilson_scan(primes)[0]

"""Dual-path tests: every numba kernel must agree with its pure-Python twin,
and both must agree with the exact big-integer oracle reduced mod m."""

import random

import pytest

from kurepa import _kernels as K
from kurepa import exact
from kurepa.errors import InvariantViolation
from kurepa.modmath import rational_residue, sieve_primes

FAST_MODES = [False] + ([None] if K.HAVE_NUMBA else [])

PRIMES = [3, 5, 7, 11, 13, 17, 31, 97, 101, 563]


@pytest.mark.parametrize("fast", FAST_MODES)
class TestAgainstExact:
    def test_factorial_mod(self, fast):
        import math
        for k in (0, 1, 2, 5, 20, 96):
            for m in (7, 97, 563 * 563):
                assert K.factorial_mod(k, m, fast=fast) == math.factorial(k) % m

    def test_kurepa_mod(self, fast):
        for p in PRIMES:
            for e in (1, 2):
                m = p ** e
                assert (K.kurepa_mod(p, m, fast=fast)
                        == exact.left_factorial(p) % m)

    def test_kurepa_gf(self, fast):
        for p in PRIMES:
            assert (K.kurepa_gf_mod(p, fast=fast)
                    == exact.left_factorial(p) % p)

    def test_bell_mod(self, fast):
        for n in (0, 1, 4, 16, 60, 96):
            for m in (2, 11, 97, 101 * 101):
                assert K.bell_mod(n, m, fast=fast) == exact.bell_exact(n) % m

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

    def test_inverse_table(self, fast):
        for p in (3, 7, 101):
            inv = K.inverse_table(p, fast=fast)
            for a in range(1, p):
                assert inv[a] * a % p == 1


@pytest.mark.skipif(not K.HAVE_NUMBA, reason="numba not installed")
class TestFastEqualsPython:
    def test_scans(self):
        primes = sieve_primes(3, 2000)
        assert K.kurepa_scan(primes, fast=None) == K.kurepa_scan(primes, fast=False)
        assert K.wilson_scan(primes, fast=None) == K.wilson_scan(primes, fast=False)
        g1, w1 = K.gertsch_wilson_scan(primes[:40], fast=None)
        g2, w2 = K.gertsch_wilson_scan(primes[:40], fast=False)
        assert (g1, w1) == (g2, w2)

    def test_big_modulus_falls_back(self):
        # p^3 weights beyond the u64-safe region must still be correct
        p = 2_100_001  # above the mod-p^2 safety bound for factorial loops
        # (not prime; we only exercise the dispatcher bound logic on small k)
        assert K.factorial_mod(10, p * p, fast=None) == K.factorial_mod(10, p * p, fast=False)


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

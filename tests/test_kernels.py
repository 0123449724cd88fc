"""Kernel tests: every table kernel agrees with the exact big-integer oracle
reduced mod m, and each power-series table with its O(p^2) triangle or
recurrence; the run tree behind the (p-1)!, !p and Der_{p-1} columns agrees
block by block with the per-prime O(p) loops, and so do the column
campaigns' hits; its recursive division `_rem` agrees with `%`; every
production Fermat quotient reads one helper."""

import math
import operator
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kurepa import _kernels as K
from kurepa import adele as A
from kurepa import exact, search
from kurepa import residues as R
from kurepa.errors import InvariantViolation
from kurepa.modmath import PrimeRange, fraction_residue, rational_residue, sieve_primes
from oracles import (bell_seq_mod_py, bernoulli_table_mod_py, derangement_mod_py,
                     factorials_py, gregory_table_mod_py, inverse_table,
                     kurepa_gf_mod_py, kurepa_mod_py, unit_top_py)

PRIMES = [3, 5, 7, 11, 13, 17, 31, 97, 101, 563]


def _facts(p: int) -> tuple:
    """The k!, 1/k! mod p pair the table kernels read, as the record builds it."""
    return K._factorials(p - 1, p)


def test_factorial_mod():
    for k in (0, 1, 2, 5, 20, 96):
        for m in (7, 97, 563 * 563):
            assert K.factorial_mod(k, m) == math.factorial(k) % m


def test_kurepa_mod():
    for p in PRIMES:
        for e in (1, 2):
            m = p ** e
            assert (kurepa_mod_py(p, m)
                    == exact.left_factorial(p) % m)


def test_kurepa_gf():
    for p in PRIMES:
        assert kurepa_gf_mod_py(p) == exact.left_factorial(p) % p


def test_bell_mod():
    for n in (0, 1, 4, 16, 60, 96):
        for m in (2, 11, 97, 101 * 101):
            assert K.bell_mod(n, m) == exact.bell_exact(n) % m


def test_inverse_table():
    for p in (3, 7, 101):
        inv = inverse_table(p)
        for a in range(1, p):
            assert inv[a] * a % p == 1


class TestAgainstExact:
    def test_bell_seq(self):
        seq = K.bell_seq_mod(40, 101)
        want = [b % 101 for b in exact.bell_sequence_exact(40)]
        assert seq == want

    def test_bernoulli_table(self):
        for p in (5, 13, 31, 97):
            table = K.bernoulli_table_mod(p, _facts(p))
            assert len(table) == p - 1
            for k in range(p - 1):
                want = rational_residue(exact.bernoulli_exact(k).numerator,
                                        exact.bernoulli_exact(k).denominator, p)
                assert table[k] == int(want)

    def test_gregory_table(self):
        for p in (3, 11, 31, 97):
            table = K.gregory_table_mod(p, _facts(p))
            assert len(table) == p - 1
            for n in range(p - 1):
                g = exact.gregory_exact(n)
                assert table[n] == int(rational_residue(g.numerator, g.denominator, p))

    def test_stirling_row(self):
        for n in (1, 2, 5, 9):
            for m in (7, 101):
                row = K.stirling2_row_mod(n, m)
                assert row == [s % m for s in exact.stirling2_row(n)]


# The W_p and Gertsch_p columns the campaigns read, from one run-tree block.

def test_wilson_column_values():
    primes = [3, 5, 7, 11, 563]
    ws = K.wilson_column(primes, next(K.run_columns([primes], 2))[0])
    want = [exact.wilson_quotient_exact(p) % p for p in primes]
    assert ws == want


def test_gertsch_wilson_column_values():
    primes = [3, 5, 7, 11, 13]
    fs, ks, ds = next(K.run_columns([primes], 2, 3))
    assert K.gertsch_column(primes, fs, ks, ds) == [
        exact.gertsch_quotient_exact(p) % p for p in primes]
    assert K.wilson_column(primes, fs) == [exact.wilson_quotient_exact(p) % p
                                           for p in primes]


# Bell_{p-1} mod p^e: the O(p) explicit-Stirling route against the triangle,
# building (p-1)! itself and reading it from the run tree's column.

def _assert_bell_mod_matches_triangle(primes, e):
    fs = next(K.run_columns([primes], e))[0]
    for p, f in zip(primes, fs):
        want = bell_seq_mod_py(p - 1, p ** e)[p - 1]
        assert K.bell_mod(p - 1, p ** e) == want, p
        assert K.bell_mod(p - 1, p ** e, f) == want, p


@pytest.mark.parametrize("e", [1, 2, 3])
def test_bell_mod_matches_triangle_small_primes(e):
    _assert_bell_mod_matches_triangle(sieve_primes(2, 400), e)


@pytest.mark.parametrize("e", [2, 3])
def test_bell_mod_matches_triangle_random_window(e):
    rng = random.Random(20260409 + e)
    pool = sieve_primes(1000, 5000)
    start = rng.randrange(len(pool) - 20)
    _assert_bell_mod_matches_triangle(pool[start:start + 20], e)


def test_bell_mod_matches_exact_small_primes():
    for p in sieve_primes(2, 101):
        b = exact.bell_exact(p - 1)
        for e in (1, 2, 3):
            assert K.bell_mod(p - 1, p ** e) == b % p ** e, (p, e)


def test_bell_mod_non_unit_factorial_uses_triangle():
    # (n! shares a factor with m): composite "p" and its powers; the value
    # is read from the Bell row past its last unit index
    for c in (4, 9, 15, 25):
        for m in (c, c * c):
            want = exact.bell_exact(c - 1) % m
            assert K.bell_mod(c - 1, m) == want
            assert K.bell_mod(c - 1, m, math.factorial(c - 1) % m) == want


@pytest.mark.parametrize("c", [4, 9, 15, 21, 25])
def test_gertsch_wilson_column_rejects_composite(c):
    fs, ks, ds = next(K.run_columns([[c]], 2, 3))
    with pytest.raises(InvariantViolation):
        K.gertsch_column([c], fs, ks, ds)


@pytest.mark.parametrize("p", [3, 1511, 32771])
def test_gertsch_column_rejects_a_wrong_column(p):
    (f,), (k,), (d,) = next(K.run_columns([[p]], 2, 3))
    for cols in (([f + 1], [k], [d]), ([f], [k + 1], [d]), ([f], [k], [d + 1])):
        with pytest.raises(InvariantViolation):
            K.gertsch_column([p], *cols)


# Gertsch_p mod p by the column route, one loop mod p and the Fermat-quotient
# slice sums with no power table, against Bell_{p-1} mod p^2 by the explicit
# sum over a power table and by the triangle, on both sides of p^2 = 2^30,
# where residues mod p^2 take a second 30-bit digit.

def _not_called(*args):
    raise AssertionError(f"called with {args}")


def _bell_by_table(p: int, f: int) -> int:
    m = p * p
    return K.bell_mod(p - 1, m, f, tuple(K._powers(p - 1, p - 1, m)))


def _loop_columns(primes) -> tuple[list[int], list[int], list[int]]:
    """((p-1)!, !p, Der_{p-1}) mod p^2 for each p in primes, by the loops."""
    return (*_columns_oracle(primes, 2),
            [derangement_mod_py(p - 1, p * p) for p in primes])


def test_bell_split_matches_the_table_route(monkeypatch):
    rng = random.Random(20261019)
    primes = (sieve_primes(3, 3000) + rng.sample(sieve_primes(3000, 1 << 15), 4)
              + [32749, 32771] + rng.sample(sieve_primes(1 << 15, 200_000), 4) + [199_999])
    fs, ks, ds = _loop_columns(primes)
    want = [K.gertsch_quotient(p, k, _bell_by_table(p, f)) for p, f, k in zip(primes, fs, ks)]
    monkeypatch.setattr(K, "_powers", _not_called)
    for p, g, w in zip(primes, K.gertsch_column(primes, fs, ks, ds), want):
        assert g == w, p


def test_bell_split_matches_triangle(monkeypatch):
    monkeypatch.setattr(K, "_powers", _not_called)
    rng = random.Random(20261020)
    primes = sieve_primes(3, 600) + rng.sample(sieve_primes(600, 3000), 3)
    fs, ks, ds = _loop_columns(primes)
    for p, k, g in zip(primes, ks, K.gertsch_column(primes, fs, ks, ds)):
        assert g == K.gertsch_quotient(p, k, bell_seq_mod_py(p - 1, p * p)[p - 1]), p


def test_gertsch_campaigns_build_no_power_table(monkeypatch):
    primes = sieve_primes(1500, 1700)
    fs, ks, ds = _loop_columns(primes)
    gs = [K.gertsch_quotient(p, k, _bell_by_table(p, f)) for p, f, k in zip(primes, fs, ks)]
    ws = [(f + 1) // p % p for p, f in zip(primes, fs)]
    want = {"gertsch_wilson": [p for p, g, w in zip(primes, gs, ws) if g == w],
            "gertsch_zero": [p for p, g in zip(primes, gs) if g == 0]}
    monkeypatch.setattr(K, "_powers", _not_called)
    assert K.gertsch_column(primes, fs, ks, ds) == gs
    for name, hits in want.items():
        for stride in (1, 7):
            assert search.run_campaign(name, 1500, 1700, stride=stride).hits == hits, (name, stride)


def test_gertsch_column_matches_the_record():
    primes = sieve_primes(3, 3000) + sieve_primes(32_700, 32_800)
    got = K.gertsch_column(primes, *_loop_columns(primes))
    for p, g in zip(primes, got):
        assert g == R.PrimeContext(p).gertsch, p


def test_record_bell_keeps_the_explicit_sum(monkeypatch):
    p = 3001
    b3 = K.bell_seq_mod(p - 1, p ** 3)[p - 1]
    (g,) = K.gertsch_column([p], *_loop_columns([p]))
    monkeypatch.setattr(K, "_fermat_sum", _not_called)
    assert R.PrimeContext(p).bell(2) == b3 % p ** 2
    assert R.PrimeContext(p).bell3 == b3
    assert R.PrimeContext(p).gertsch == g


def test_gertsch_run_builds_no_composite_table():
    # in a fresh process, so no earlier reader has filled either memo
    code = ("from kurepa import _kernels as K, search\n"
            "assert search.run_campaign('gertsch_wilson', 19_000, 20_000).hits == []\n"
            "print(list(K._factorization), *K._primes)")
    src = os.path.dirname(os.path.dirname(K.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    held, bound = out.split()
    assert held == "[]" and int(bound) >= 19_996, out


# ((p-1)! mod p^e, !p mod p^e) by the one-block case of the run tree, against
# the per-prime O(p) loops and the exact left factorial.

def _columns_oracle(primes, e):
    return ([K.factorial_mod(p - 1, p ** e) for p in primes],
            [kurepa_mod_py(p, p ** e) for p in primes])


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


# The tree's one composition rule: `_then` joins adjacent spans into the
# span over both, and its reduced form is the exact result reduced.

# span lengths around _LEAF_STEPS, and up to a few thousand steps
_GAPS = st.one_of(st.sampled_from([0, 1, 31, 32, 33]), st.integers(0, 3000))
_PRIME_POWERS = st.builds(pow, st.sampled_from(sieve_primes(3, 20_000)),
                          st.integers(1, 3))
_MODULI = st.one_of(_PRIME_POWERS,
                    st.lists(_PRIME_POWERS, min_size=2, max_size=8).map(math.prod))
_SPANS = st.tuples(st.integers(0, 1 << 3000), st.integers(0, 1 << 3000))


@settings(max_examples=60, deadline=None)
@given(a=st.integers(1, 5000), g1=_GAPS, g2=_GAPS)
def test_then_joins_adjacent_step_spans(a, g1, g2):
    b, c = a + g1, a + g1 + g2
    assert K._then(K._steps(a, b), K._steps(b, c)) == K._steps(a, c)


@settings(max_examples=100, deadline=None)
@given(x=_SPANS, y=_SPANS, m=_MODULI)
def test_then_reduced_is_exact_reduced(x, y, m):
    p, q = K._then(x, y)
    assert K._then(x, y, m) == (p % m, q % m)


@settings(max_examples=50, deadline=None)
@given(x=_SPANS)
def test_then_no_steps_is_identity(x):
    assert K._then((1, 0), x) == x
    assert K._then(x, (1, 0)) == x


# Width 1 carries P alone: its spans are the pair's first component, and
# `_then` and `_mod` on them are the exact results reduced.

@settings(max_examples=60, deadline=None)
@given(a=st.integers(1, 5000), g1=_GAPS, g2=_GAPS)
def test_width_one_spans_are_the_pairs_first_component(a, g1, g2):
    b, c = a + g1, a + g1 + g2
    assert K._steps(a, c, 1) == K._steps(a, c)[:1]
    assert K._then(K._steps(a, b, 1), K._steps(b, c, 1)) == K._steps(a, c, 1)


@settings(max_examples=100, deadline=None)
@given(x=_SPANS, y=_SPANS, m=_MODULI)
def test_width_one_then_and_mod_are_exact_reduced(x, y, m):
    (p,) = K._then(x[:1], y[:1])
    assert p == x[0] * y[0]
    assert K._then(x[:1], y[:1], m) == (p % m,)
    assert K._mod(x[:1], m) == (x[0] % m,)
    assert K._mod(x, m) == (x[0] % m, x[1] % m)


# Width 3 adds R, the span of Der_n, to the pair: its first two components
# are the pair's, it carries Der_{a-1} to Der_{b-1} as d -> P*d + R, and
# `_then` and `_mod` on it are the exact results reduced.

@settings(max_examples=40, deadline=None)
@given(a=st.integers(1, 3000), g1=_GAPS, g2=_GAPS)
def test_width_three_spans_carry_derangements(a, g1, g2):
    b, c = a + g1, a + g1 + g2
    x, y, whole = K._steps(a, b, 3), K._steps(b, c, 3), K._steps(a, c, 3)
    assert whole[:2] == K._steps(a, c)
    assert K._then(x, y) == whole
    assert x[0] * exact.derangement_exact(a - 1) + x[2] == exact.derangement_exact(b - 1)


@settings(max_examples=100, deadline=None)
@given(x=_SPANS, y=_SPANS, r=st.tuples(st.integers(0, 1 << 3000), st.integers(0, 1 << 3000)),
       m=_MODULI)
def test_width_three_then_and_mod_are_exact_reduced(x, y, r, m):
    x3, y3 = (*x, r[0]), (*y, r[1])
    whole = K._then(x3, y3)
    assert whole == (*K._then(x, y), y[0] * r[0] + r[1])
    assert K._then(x3, y3, m) == K._mod(whole, m) == tuple(v % m for v in whole)


# `_rem`, the recursive division that `_then` and `_mod` reduce by from
# `_DIV_BITS`-bit moduli on, against `%` and divmod: dividends below M^2 and
# far above it, negative ones, the edges, and moduli of odd and even bit
# length on both sides of the leaf and of the crossover.

_REM_BITS = sorted({K._DIV_LEAF_BITS - 1, K._DIV_LEAF_BITS, K._DIV_LEAF_BITS + 1,
                    K._DIV_BITS - 1, K._DIV_BITS, K._DIV_BITS + 1,
                    4 * K._DIV_BITS + 1, 4 * K._DIV_BITS + 2})


def _assert_rem_matches_mod(m, rng):
    n = m.bit_length()
    xs = [0, 1, m - 1, m, m + 1, m * m - 1, m * m, 2 * m * m - 1]
    xs += [rng.randrange(m * m) for _ in range(4)]
    xs += [rng.getrandbits(b) for b in (n // 2, n + 1, 2 * n - 1, 2 * n, 2 * n + 1,
                                        3 * n - 1, 5 * n + 3)]
    for x in xs + [-x for x in xs] + [-x - 1 for x in xs]:
        assert K._rem(x, m) == x % m == divmod(x, m)[1], (n, x.bit_length(), x < 0)


@pytest.mark.parametrize("bits", _REM_BITS)
def test_rem_matches_mod(bits):
    rng = random.Random(20261020 + bits)
    for _ in range(3):
        _assert_rem_matches_mod(rng.getrandbits(bits) | 1 << (bits - 1), rng)
    _assert_rem_matches_mod((1 << bits) - 1, rng)
    _assert_rem_matches_mod(1 << (bits - 1), rng)


@pytest.mark.parametrize("e", [1, 2, 3])
def test_rem_matches_mod_at_run_tree_roots(e):
    # the moduli the run tree reduces by: products of p^e over seeded windows
    rng = random.Random(20261021 + e)
    pool = sieve_primes(10_000, 400_000)
    for length in (300, 700, 1500):
        start = rng.randrange(len(pool) - length)
        m = math.prod(p ** e for p in pool[start:start + length])
        _assert_rem_matches_mod(m, rng)


@pytest.mark.parametrize("bits", _REM_BITS)
def test_div21_is_divmod(bits):
    rng = random.Random(20261022 + bits)
    for b in (rng.getrandbits(bits) | 1 << (bits - 1), (1 << bits) - 1, 1 << (bits - 1)):
        for a in (0, b - 1, b, (b << bits) - 1, rng.randrange(b << bits),
                  rng.randrange(b << (bits // 2))):
            assert K._div21(a, b, bits) == divmod(a, b), (bits, a.bit_length())


def _quotient_estimate(a12, b1, h):
    """`_div32`'s first quotient, from the top halves alone."""
    return (1 << h) - 1 if a12 >> h == b1 else a12 // b1


def test_div32_corrects_at_most_twice():
    # Burnikel and Ziegler's Lemma 2: with b1's top bit set the estimate is
    # at most two too large; find seeded divisions that need 0, 1 and 2
    # corrections, and check each against divmod
    rng = random.Random(20261023)
    seen = Counter()
    for _ in range(3000):
        h = rng.randrange(2, 12)
        b1 = rng.randrange(1 << (h - 1), 1 << h)
        b2 = rng.choice([rng.randrange(1 << h), (1 << h) - 1])
        b = b1 << h | b2
        a = rng.randrange(b << h)
        a12, a3 = a >> h, a & ((1 << h) - 1)
        q, r = divmod(a, b)
        assert K._div32(a12, a3, b, b1, b2, h) == (q, r)
        seen[_quotient_estimate(a12, b1, h) - q] += 1
    assert set(seen) == {0, 1, 2}, seen
    # the smallest normalized b1 against the largest b2: two corrections
    h, b1, b2 = 8, 1 << 7, (1 << 8) - 1
    b = b1 << h | b2
    a12 = ((1 << h) - 1) * b1
    assert _quotient_estimate(a12, b1, h) - (a12 << h) // b == 2
    assert K._div32(a12, 0, b, b1, b2, h) == divmod(a12 << h, b)
    # the largest dividend, b * 2^h - 1, whose top half equals b1: the
    # estimate is 2^h - 1 without a division
    a = (b << h) - 1
    assert a >> 2 * h == b1
    assert K._div32(a >> h, a & ((1 << h) - 1), b, b1, b2, h) == divmod(a, b)


def test_div32_rejects_a_third_correction():
    # b1 without its top bit breaks the lemma's bound, which is checked
    h, b1, b2 = 8, 1, (1 << 8) - 1
    b = b1 << h | b2
    assert _quotient_estimate(255, b1, h) - (255 << h) // b > 2
    with pytest.raises(InvariantViolation):
        K._div32(255, 0, b, b1, b2, h)


def test_then_and_mod_reduce_past_the_crossover(monkeypatch):
    # past `_DIV_BITS` both reduce by `_rem`, below it by `%` alone
    calls, rem = [], K._rem
    monkeypatch.setattr(K, "_rem", lambda x, m: calls.append(m) or rem(x, m))
    rng = random.Random(20261024)
    for bits in (K._DIV_BITS - 1, K._DIV_BITS):
        m = rng.getrandbits(bits) | 1 << (bits - 1)
        for width in (1, 2, 3):
            x = tuple(rng.randrange(-m * m, m * m) for _ in range(width))
            y = tuple(rng.randrange(-m * m, m * m) for _ in range(width))
            assert K._then(x, y, m) == tuple(v % m for v in K._then(x, y))
            assert K._mod(x, m) == tuple(v % m for v in x)
        assert bool(calls) == (bits >= K._DIV_BITS), (bits, len(calls))


# The run-level tree: every block's columns from `run_columns` against the
# per-prime loops, and every column campaign's hits against hits computed
# per prime from those loops.

def _blocks(primes, size):
    return [primes[i:i + size] for i in range(0, len(primes), size)]


def _assert_run_matches_loops(blocks, e):
    # the pair route against the loops, the width-1 route, which carries
    # (p-1)! alone, against both, and the width-3 route, which adds
    # Der_{p-1}, against the pair and the derangement loop
    got, facts = list(K.run_columns(blocks, e)), list(K.run_columns(blocks, e, 1))
    triples = list(K.run_columns(blocks, e, 3))
    assert len(got) == len(facts) == len(triples) == len(blocks)
    for block, cols, fs, cols3 in zip(blocks, got, facts, triples):
        want = _columns_oracle(block, e)
        assert cols == want, (block[0], len(block))
        assert fs == (want[0],) == cols[:1], (block[0], len(block))
        ders = [derangement_mod_py(p - 1, p ** e) for p in block]
        assert cols3 == (*want, ders), (block[0], len(block))


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 2, 7, 128, 431])
def test_run_columns_match_loops(e, size):
    # 429 odd primes below 3000: every size but 1 leaves a short last block,
    # and 431 makes the run a single block
    _assert_run_matches_loops(_blocks(sieve_primes(3, 3000), size), e)


@pytest.mark.parametrize("e", [1, 2, 3])
def test_run_columns_match_loops_seeded_windows(e):
    # runs that start above 3, as a resumed run or a shard does
    rng = random.Random(20261018 - e)
    pool = sieve_primes(3000, 12_000)
    for _ in range(3):
        start = rng.randrange(len(pool) - 60)
        window = pool[start:start + rng.randint(2, 60)]
        _assert_run_matches_loops(_blocks(window, rng.choice([1, 2, 7, 128, 431])), e)


@pytest.mark.parametrize("e", [1, 2, 3])
def test_run_columns_single_prime_runs(e):
    for p in (3, 5, 7919):
        _assert_run_matches_loops([[p]], e)
    assert (list(K.run_columns([], e)) == list(K.run_columns([], e, 1))
            == list(K.run_columns([], e, 3)) == [])


def test_run_columns_late_start_through_recursive_division(monkeypatch):
    # a run past 2e5 whose root has at least `_DIV_BITS` bits at e = 1, so
    # the fold and the top of the walk reduce by `_rem`; its columns at 10
    # seeded primes against the loops, at e = 1, 2, 3, widths 1-3 and
    # strides 1, 7 and 128, so that the walk's generators and `_fill`'s
    # plain recursion each meet the big nodes
    calls, rem = Counter(), K._rem
    monkeypatch.setattr(K, "_rem", lambda x, m: calls.update([m.bit_length()]) or rem(x, m))
    rng = random.Random(20261025)
    pool = sieve_primes(200_000, 400_000)
    start = rng.randrange(len(pool) - 600)
    window = pool[start:start + 600]
    root = math.prod(window)
    assert root.bit_length() >= K._DIV_BITS
    picks = sorted(rng.sample(range(len(window)), 10))
    ps = [window[i] for i in picks]
    for e in (1, 2, 3):
        fs = [K.factorial_mod(p - 1, p ** e) for p in ps]
        ks = [kurepa_mod_py(p, p ** e) for p in ps]
        ds = [derangement_mod_py(p - 1, p ** e) for p in ps]
        for width, want in ((1, [fs]), (2, [fs, ks]), (3, [fs, ks, ds])):
            for stride in (1, 7, 128):
                calls.clear()
                blocks = _blocks(window, stride)
                cols = [sum(c, []) for c in zip(*K.run_columns(blocks, e, width))]
                assert [[c[i] for i in picks] for c in cols] == want, (e, width, stride)
                assert max(calls) == (root ** e).bit_length(), (e, width, stride, calls)


def test_run_columns_compute_one_block_per_step(monkeypatch):
    # a block's columns are computed when they are asked for, not before:
    # its own gaps are stepped, and none from the next block's first on
    starts, steps = [], K._steps

    def counted(a, b, width=2):
        starts.append(a)
        return steps(a, b, width)

    monkeypatch.setattr(K, "_steps", counted)
    blocks = _blocks(sieve_primes(3, 400), 10)
    run = K.run_columns(blocks, 2)
    for ps, after in zip(blocks, [ps[0] for ps in blocks[1:]] + [math.inf]):
        next(run)
        assert ps[0] <= max(starts) < after


@pytest.mark.parametrize("e", [1, 2, 3])
def test_run_columns_work_does_not_depend_on_the_stride(monkeypatch, e):
    # the blocks only mark where columns are handed out: every stride, and
    # one block, makes the same compositions and the same exact spans
    calls, then, steps = Counter(), K._then, K._steps
    monkeypatch.setattr(K, "_then", lambda *a: calls.update(["_then"]) or then(*a))
    monkeypatch.setattr(K, "_steps", lambda *a: calls.update(["_steps"]) or steps(*a))
    primes = sieve_primes(3, 3000)
    for width in (1, 2, 3):
        work = []
        for size in (1, 7, 128, len(primes)):
            calls.clear()
            list(K.run_columns(_blocks(primes, size), e, width))
            work.append(dict(calls))
        assert all(w == work[0] for w in work), (width, work)


def test_run_columns_build_each_tree_node_once(monkeypatch):
    built, tree = [], K._product_tree
    monkeypatch.setattr(K, "_product_tree",
                        lambda nodes, i, j: built.append((i, j)) or tree(nodes, i, j))
    primes = sieve_primes(3, 3000)
    list(K.run_columns(_blocks(primes, 7), 2))
    assert len(built) == len(set(built)) == 2 * len(primes) - 1


# The walk's node math, shared by `_walk` and `_fill`: the readers' product
# a left span is reduced by, and the state at a right child. The runs are
# those of `kurepa_zero`, `wilson_zero` and the Gertsch campaigns over
# [3, 2e4] at stride 128, whose top nodes pass `_DIV_BITS`.

_NODE_RUNS = [(1, 2), (2, 1), (2, 3)]  # (e, width)


def test_right_child_products_read_operands_reduced_mod_the_child(monkeypatch):
    # from `_DIV_BITS` on, the product that makes a right child's state
    # takes a state and a span each no longer than the child's modulus
    inside, big, then, right = [], Counter(), K._then, K._right_state

    def checked(x, y, m=None):
        if inside and m is not None and m.bit_length() >= K._DIV_BITS:
            big[m.bit_length()] += 1
            assert max(v.bit_length() for v in x + y) <= m.bit_length()
        return then(x, y, m)

    def tracked(x, span, m):
        inside.append(m)
        try:
            return right(x, span, m)
        finally:
            inside.pop()

    monkeypatch.setattr(K, "_then", checked)
    monkeypatch.setattr(K, "_right_state", tracked)
    blocks = _blocks(sieve_primes(3, 20_000), 128)
    for e, width in _NODE_RUNS:
        big.clear()
        list(K.run_columns(blocks, e, width))
        assert big, (e, width)


def test_readers_product_kept_exactly_when_shorter_than_the_exact_span(monkeypatch):
    # the reader decision against the full product R*c, recomputed here:
    # None exactly where it has at least the exact span's estimated bits
    kept, readers = Counter(), K._readers

    def checked(m, c, ns, i, mid):
        r = readers(m, c, ns, i, mid)
        if c is None:
            assert r is None
        else:
            full = m * c
            short = full.bit_length() < (ns[mid] - ns[i]) * ns[mid].bit_length()
            assert r == (full if short else None), (i, mid)
        kept[r is not None] += 1
        return r

    monkeypatch.setattr(K, "_readers", checked)
    primes = sieve_primes(3, 20_000)
    for e, width in _NODE_RUNS:
        kept.clear()
        list(K.run_columns(_blocks(primes, 128), e, width))
        # one decision per internal node, and both outcomes occur
        assert kept[True] and kept[False], (e, width, kept)
        assert kept[True] + kept[False] == len(primes) - 1, (e, width)


@pytest.mark.parametrize("m, c", [(2 ** 19, 2 ** 20), (2 ** 19 - 1, 3 * 2 ** 19),
                                  (2 ** 19 - 1, 2 ** 20), (2 ** 19 - 1, 2 ** 20 - 1),
                                  (3, 5), (2 ** 40, 1), (7, None)])
def test_readers_decide_at_the_estimate(m, c):
    # the estimate for ns = [0, 10] is 10 * bits(10) = 40 bits: a product
    # of 40 bits, with or without the guard's multiply-free reading, is
    # dropped, and one of 39 bits kept
    full = None if c is None else m * c
    want = full if full is not None and full.bit_length() < 40 else None
    assert K._readers(m, c, [0, 10], 0, 1) == want


# The half routes: width 1 at e <= 3 and width 2 at e = 1 step to
# n = (p+1)/2 alone, and read (p-1)! mod p^e off h! by Morley's congruence
# and !p mod p off (h!, !(h+1), Der_h) by Wilson's reflection.

_HALF_ROUTES = [(1, 1), (2, 1), (3, 1), (1, 2)]  # (e, width)


@pytest.mark.parametrize("e", [1, 2, 3])
def test_morley_congruence_below_3000(e):
    # (-1)^h C(p-1, h) = 4^(p-1) (mod p^e), h = (p-1)/2, at every odd prime
    # below 3000 but p = 3 at e = 3, which the run tree sets directly; the
    # width-1 columns meet the loops in test_run_columns_match_loops
    for p in sieve_primes(3, 3000):
        h, m = (p - 1) // 2, p ** e
        holds = (-1) ** h * math.comb(p - 1, h) % m == pow(4, p - 1, m)
        assert holds == ((p, e) != (3, 3)), p


@pytest.mark.parametrize("block, composite", [([4], 4), ([6], 6), ([9], 9), ([15], 15),
                                              ([21], 21), ([25], 25), ([7, 9, 11], 9)])
@pytest.mark.parametrize("e, width", [(2, 1), (1, 2)])
def test_half_routes_reject_composite(block, composite, e, width):
    with pytest.raises(InvariantViolation, match=rf"\b{composite}$"):
        next(K.run_columns([block], e, width))


@pytest.mark.parametrize("e, width", _HALF_ROUTES)
def test_half_routes_name_a_prime_with_a_wrong_half_factorial(monkeypatch, e, width):
    # h! + 1 in place of h! at q = 211, planted in the states the walk
    # yields; the blocks before q's come out, and q's raises naming q
    primes, q, walk = sieve_primes(3, 400), 211, K._walk
    at = primes.index(q)

    def planted(node, ns, i, j, *rest):
        if (i, j) != (0, len(ns)):  # the walk's own recursion
            return (yield from walk(node, ns, i, j, *rest))
        done = 0
        for cols in walk(node, ns, i, j, *rest):
            if 0 <= at - done < len(cols[0]):
                cols[0][at - done] += 1
            done += len(cols[0])
            yield cols

    monkeypatch.setattr(K, "_walk", planted)
    got = []
    with pytest.raises(InvariantViolation, match=rf"\b{q}$"):
        got.extend(K.run_columns(_blocks(primes, 7), e, width))
    assert len(got) == at // 7


def test_half_routes_step_to_half_the_largest_prime(monkeypatch):
    # a silent fallback to the full walk would step to p_max
    ends, steps = [], K._steps
    monkeypatch.setattr(K, "_steps", lambda a, b, width=2: ends.append(b) or steps(a, b, width))
    primes = sieve_primes(3, 3000)
    top = primes[-1]
    for e, width in _HALF_ROUTES + [(1, 3), (2, 2), (2, 3), (3, 3)]:
        ends.clear()
        list(K.run_columns(_blocks(primes, 7), e, width))
        assert max(ends) == ((top + 1) // 2 if (e, width) in _HALF_ROUTES else top), (e, width)


# the exponent e of the columns each campaign reads; None: no columns
_COLUMN_E = {"kurepa_zero": 1, "wilson_zero": 2, "wilson_plus_two": 2,
             "wilson_plus_half": 2, "qpm_zero": 2, "gertsch_wilson": 2,
             "gertsch_zero": 2, "wieferich": None, "mirimanoff": None}


def _oracle_hits(name, p, f, k):
    """The campaign's hits at p, from the loops' f = (p-1)! and k = !p mod p^2,
    W_p = (f + 1)/p and q_p(m) = (m^(p-1) - 1)/p."""
    w = (f + 1) // p % p
    if name == "qpm_zero":
        return [(m, p) for m in range(2, 21)
                if m % p and (w + 1 + (pow(m, p - 1, p * p) - 1) // p) % p == 0]
    if name.startswith("gertsch"):
        g = K.gertsch_quotient(p, k, K.bell_mod(p - 1, p * p))
        hit = g == (w if name == "gertsch_wilson" else 0)
    else:
        hit = {"wilson_zero": w == 0, "wilson_plus_two": (w + 2) % p == 0,
               "wilson_plus_half": (2 * w + 1) % p == 0,
               "kurepa_zero": k % p == 0}[name]
    return [p] if hit else []


# the widths of the column campaigns that read the !p column, 3 where they
# read Der_{p-1} too; the other column campaigns read (p-1)! alone, at
# width 1, and their runs carry no !p
_WIDTH = {"kurepa_zero": 2, "gertsch_wilson": 3, "gertsch_zero": 3}


def test_campaigns_declare_their_column_exponent():
    assert {name: c.e for name, c in search.CAMPAIGNS.items()} == _COLUMN_E


def test_campaigns_declare_whether_they_read_left_factorials():
    assert {name: c.width for name, c in search.CAMPAIGNS.items()
            if c.e is not None} == {name: _WIDTH.get(name, 1)
                                    for name, e in _COLUMN_E.items() if e}


@pytest.mark.parametrize("name", sorted(n for n, e in _COLUMN_E.items() if e))
def test_column_campaign_runs_carry_the_columns_they_read(monkeypatch, name):
    calls, columns = [], K.run_columns

    def recorded(blocks, e, width=2):
        calls.append((e, width))
        for cols in columns(blocks, e, width):
            assert len(cols) == width
            yield cols

    monkeypatch.setattr(K, "run_columns", recorded)
    search.run_campaign(name, 3, 200, stride=7)
    assert calls == [(_COLUMN_E[name], _WIDTH.get(name, 1))]


@pytest.mark.parametrize("name", sorted(n for n, e in _COLUMN_E.items() if e))
def test_column_campaign_hits_match_loops(name):
    primes = sieve_primes(3, 3000)
    want = [h for p, f, k in zip(primes, *_columns_oracle(primes, 2))
            for h in _oracle_hits(name, p, f, k)]
    for stride in (1, 7, 128):
        assert search.run_campaign(name, 3, 3000, stride=stride).hits == want, stride


@pytest.mark.parametrize("block", [[4], [9], [15], [21], [25], [7, 9, 11]])
def test_wilson_column_rejects_composite(block):
    fs = next(K.run_columns([block], 2))[0]
    with pytest.raises(InvariantViolation):
        K.wilson_column(block, fs)


def test_wilson_column_names_the_first_failing_prime():
    # 9 and 15 both fail Wilson's congruence; the violation names 9
    block = [7, 9, 11, 15]
    fs = next(K.run_columns([block], 2))[0]
    with pytest.raises(InvariantViolation, match=r"\b9$"):
        K.wilson_column(block, fs)


# The series product and inverse against schoolbook convolution. Slots are
# w bytes for w = ceil((2 bits(m-1) + bits(L)) / 8), L the shorter operand's
# length; m = 2^b with b = (8w - bits(L)) // 2 is the largest modulus of
# width w, so coefficients m - 1 fill a slot to within a byte of its top.

def _convolution(a, b, n, m):
    """Schoolbook: c_k = sum_i a_i b_(k-i), one C-level sum per k."""
    a, b = a[:n], b[:n]
    c = [0] * n
    for k in range(min(n, len(a) + len(b) - 1)):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        c[k] = sum(map(operator.mul, a[lo:hi + 1], reversed(b[k - hi:k - lo + 1]))) % m
    return c


_L = 25  # min(len a, len b) in every nonempty one-product case below; bits(_L) = 5
_SERIES_MODULI = sorted({2 ** ((8 * w - _L.bit_length()) // 2) - d
                         for w in range(1, 10) for d in (0, 1) if (w, d) != (1, 1)}
                        | {12, 49, 101 * 101, 2 ** 31 - 1})
_K = K._KS2_TERMS
# The shorter operand at the KS2 crossover and one term either side, with
# odd and even lengths and n: the two-product route splits by parity.
_KS2_SHAPES = [(_K - 1, _K + 1, 2 * _K - 1),  # one product; n = len a + len b - 1
               (_K, _K, 2 * _K - 1),          # odd n = len a + len b - 1
               (_K + 1, _K, 2 * _K),          # even n = len a + len b - 1
               (_K + 1, _K + 1, _K + 2),      # n below the product's end
               (2 * _K, _K + 1, _K + 1),      # n = len b < len a
               (_K, _K + 1, 2 * _K + 9)]      # n past the product's last coefficient
_K4 = K._KS4_TERMS
# The shorter operand at the KS4 crossover and past it, with lengths and n
# in every residue class mod 4 (the classes noted hold for _K4 = 0 mod 4):
# the five-product route splits each operand and the product by class.
_KS4_SHAPES = [(_K4 - 1, _K4 + 2, 2 * _K4 + 1),  # KS2; n = len a + len b - 1
               (_K4, _K4, 2 * _K4 - 1),          # n = 3 (mod 4) at the crossover
               (_K4 + 1, _K4, 2 * _K4),          # n = 0 (mod 4)
               (_K4 + 2, _K4 + 1, 2 * _K4 + 2),  # n = 2 (mod 4), len a = 2 (mod 4)
               (_K4 + 3, _K4 + 3, 2 * _K4 + 5),  # n = 1 (mod 4), lengths 3 (mod 4)
               (_K4 + 1, _K4 + 2, _K4 + 3),      # n below the product's end
               (2 * _K4, _K4 + 1, _K4 + 1),      # n = len b < len a
               (_K4 + 2, _K4 + 3, 2 * _K4 + 13)]  # n past the product's last coefficient
_SERIES_SHAPES = [(40, 25, 64),   # n = len a + len b - 1
                  (40, 25, 30),   # len b < n < len a
                  (25, 40, 20),   # n below both lengths
                  (25, 40, 70),   # n past the product's last coefficient
                  (25, 25, 25),
                  (40, 25, 0),
                  *_KS2_SHAPES]


def _series_mul_matches_convolution(m, shapes):
    rng = random.Random(m)
    for la, lb, n in shapes:
        for a, b in (([m - 1] * la, [m - 1] * lb),
                     ([rng.randrange(m) for _ in range(la)],
                      [rng.randrange(m) for _ in range(lb)])):
            assert K._series_mul(a, b, n, m) == _convolution(a, b, n, m), (la, lb, n)


@pytest.mark.parametrize("m", _SERIES_MODULI)
def test_series_mul_matches_convolution(m):
    _series_mul_matches_convolution(m, _SERIES_SHAPES)


# p^e on seeded primes, and one modulus whose slots are wider than a word
_PRODUCT_MODULI = [p ** e for p in random.Random(20261018).sample(
    sieve_primes(3, 60_000), 2) for e in (1, 2, 3)] + [(2 ** 61 - 1) ** 2]


@pytest.mark.parametrize("m", _PRODUCT_MODULI)
def test_series_mul_two_products_match_convolution(m):
    _series_mul_matches_convolution(m, _KS2_SHAPES)


@pytest.mark.parametrize("m", _PRODUCT_MODULI)
def test_series_mul_five_products_match_convolution(m):
    _series_mul_matches_convolution(m, _KS4_SHAPES)


_LEAF = K._LEAF_TERMS


@pytest.mark.parametrize("m", _SERIES_MODULI)
def test_series_inv_matches_convolution(m):
    rng = random.Random(-m)
    for n, length in ((1, 1), (2, 5), (37, 37), (100, 100), (60, 3),
                      (_LEAF - 1, _LEAF - 1), (_LEAF, _LEAF), (_LEAF + 1, _LEAF + 1),
                      (63, 63), (65, 65), (127, 127), (129, 129), (511, 511),
                      (513, 513), (3000, 300)):
        f = [rng.randrange(m) for _ in range(length)]
        f[0] = next(u for u in range(m - 1, 0, -1) if math.gcd(u, m) == 1)
        g = K._series_div(None, f, n, m)
        assert len(g) == n
        assert _convolution(f, g, n, m) == [1 % m] + [0] * (n - 1), (n, length)


# Karp and Markstein's division, c times the inverse of s, against its
# definition s*q = c (mod x^n) by schoolbook convolution, at lengths around
# the leaf size, the KS2 crossover and the recursion's halvings, with c
# shorter than n too; at n = 3000 the half-length products reach KS4.

@pytest.mark.parametrize("m", [p ** e for p in random.Random(20261020).sample(
    sieve_primes(3, 60_000), 1) for e in (1, 2, 3)] + [(2 ** 61 - 1) ** 2])
def test_series_div_matches_inverse_then_product(m):
    rng = random.Random(m)
    for n in (1, 31, 32, 33, 63, 64, 65, 255, 256, 257, 511, 512, 513, 3000):
        s = [rng.randrange(m) for _ in range(n)]
        s[0] = next(u for u in range(m - 1, 0, -1) if math.gcd(u, m) == 1)
        for length in (n, n // 2, 1):
            c = [rng.randrange(m) for _ in range(length)]
            q = K._series_div(c, s, n, m)
            assert len(q) == n
            assert _convolution(s, q, n, m) == c + [0] * (n - length), (n, length)


def _products(monkeypatch, c, s, n, m):
    """The (len a, len b, n) of each `_series_mul` call that
    `_series_div(c, s, n, m)` makes, each operand cut to n terms as
    `_series_mul` cuts it, as a multiset."""
    shapes, mul = Counter(), K._series_mul

    def counted(a, b, k, m):
        shapes[min(len(a), k), min(len(b), k), k] += 1
        return mul(a, b, k, m)

    with monkeypatch.context() as patch:
        patch.setattr(K, "_series_mul", counted)
        K._series_div(c, s, n, m)
    return shapes


# The recursion's schedule: an inverse makes two products per level above
# the leaf, s*g and g*e at precisions halved from the top down; a division
# makes those of the full-length inverse and one more, c*g; a leaf makes none.

@pytest.mark.parametrize("n", [33, 100, 1000, 3000])
def test_series_div_product_schedule(monkeypatch, n):
    m = 10007
    rng = random.Random(n)
    s = [rng.randrange(1, m) for _ in range(n)]
    c = [rng.randrange(m) for _ in range(n)]
    want, ni = Counter(), n
    while ni > _LEAF:
        ki = (ni + 1) // 2
        want[ni, ki, ni] += 1
        want[ni - ki, ni - ki, ni - ki] += 1  # g*e, g cut to n_i - k_i terms
        ni = ki
    assert _products(monkeypatch, None, s, n, m) == want
    k = (n + 1) // 2
    assert _products(monkeypatch, c, s, n, m) == want + Counter({(k, k, k): 1})
    for short in (1, _LEAF - 1, _LEAF):
        assert not _products(monkeypatch, None, s, short, m), short
        assert not _products(monkeypatch, c, s, short, m), short


# `_powers` walks the process's one factorization table, which grows to
# cover the largest n asked, at least doubling; every row against plain pow.

def _moduli(rng) -> list[int]:
    """p, p^2 and p^3 for a seeded prime p, and a seeded composite m."""
    p = rng.choice(sieve_primes(2, 70_000))
    return [p, p * p, p ** 3, rng.randrange(2, 10 ** 6) * rng.randrange(2, 10 ** 6)]


def test_powers_match_pow_small_n():
    rng = random.Random(20261019)
    for n in range(65):
        for e in (n, n + 1):
            for m in _moduli(rng) + [1, 2]:
                assert K._powers(n, e, m) == [pow(j, e, m) for j in range(n + 1)], (n, e, m)
    assert max(K._factorization) == 64


@pytest.mark.parametrize("order", ["increasing", "decreasing", "random"])
def test_powers_match_pow_across_growths(monkeypatch, order):
    rng = random.Random(f"powers-{order}")
    ns = rng.sample(range(65, 30_001), 6) + [30_000]
    ns.sort(reverse=order == "decreasing")
    if order == "random":
        rng.shuffle(ns)
    built, sieve = [], K._sieve_factors
    monkeypatch.setattr(K, "_sieve_factors", lambda n: built.append(n) or sieve(n))
    reads, top, growths = set(), -1, 0
    for i, n in enumerate(ns):
        # past the bound N the table grows; below it, N is read too
        for k in [n] if n > top else [n, top]:
            e, m = k + i % 2, _moduli(rng)[i % 4]
            reads.add("below" if k < top else "at" if k == top else "across")
            assert K._powers(k, e, m) == [pow(j, e, m) for j in range(k + 1)], (k, e, m)
            if k > top:
                top, growths = max(k, 2 * top), growths + 1
            assert list(K._factorization) == [top]
    assert reads == {"below", "at", "across"}
    # one sieve per growth, each at least twice the last; none below the bound
    assert len(built) == growths and built[-1] == top
    assert all(b >= 2 * a for a, b in zip(built, built[1:]))


def test_powers_two_threads_grow_one_table():
    start, got = threading.Barrier(2), {}
    m = 10_007 ** 2

    def call(n):
        start.wait(timeout=60)
        got[n] = K._powers(n, n, m)
    threads = [threading.Thread(target=call, args=(n,)) for n in (10_000, 20_000)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    for n in (10_000, 20_000):
        assert got[n] == [pow(j, n, m) for j in range(n + 1)], n
    assert max(K._factorization) >= 20_000


def test_factorization_table_is_least_prime_and_cofactor():
    primes, composites = K._factors(5000)
    top = max(K._factorization)
    assert list(primes) == sieve_primes(2, top)
    assert sorted([*primes, *(j for j, _, _ in composites)]) == list(range(2, top + 1))
    assert composites == sorted(composites)
    for j, q, c in composites:
        assert q * c == j and q == min(d for d in primes if j % d == 0), j


# `_factorials` by Wilson's reflection and `_unit_top` by trial division,
# against the two loops and the scan they replace.

def test_factorials_match_two_loops_small_primes():
    for p in sieve_primes(2, 500):
        assert K._factorials(p - 1, p) == factorials_py(p - 1, p), p


def test_factorials_match_two_loops_seeded_primes():
    for p in random.Random(20261021).sample(sieve_primes(500, 60_000), 6):
        assert K._factorials(p - 1, p) == factorials_py(p - 1, p), p


@pytest.mark.parametrize("m", [1, 4, 9, 15, 25, 27, 30, 101 * 101, 563 ** 3])
def test_factorials_unchanged_off_prime_moduli(m):
    # no reflection: m is not prime, or n < m - 1
    for n in range(K._unit_top(m + 5, m) + 1):
        assert K._factorials(n, m) == factorials_py(n, m), n
    assert K._factorials(100, 101) == factorials_py(100, 101)
    assert K._factorials(50, 101) == factorials_py(50, 101)


def test_unit_top_matches_scan():
    for m in range(1, 3001):
        for n in range(81):
            assert K._unit_top(n, m) == unit_top_py(n, m), (n, m)
    for p in sieve_primes(2, 200):
        for m in (p * p, p ** 3):
            for n in range(2 * p + 2):
                assert K._unit_top(n, m) == unit_top_py(n, m), (n, m)


# The Bell row past its last unit index: the Touchard window Bell_p..Bell_{p+5}
# mod p, and rows that run far past it, 40 values at odd primes (two slice
# sums per value) and at composite moduli (one dot product per value).

def test_touchard_window_matches_triangle_at_primes():
    for m in (2, 3, 5, 7, 101, 563):
        assert K.bell_seq_mod(m + 5, m) == bell_seq_mod_py(m + 5, m), m


@pytest.mark.parametrize("m", [3, 5, 7, 101, 563, 4, 9, 15, 25, 27, 30, 125])
def test_bell_row_past_the_unit_index_matches_triangle(m):
    top = K._unit_top(m, m)
    want = bell_seq_mod_py(top + 40, m)
    for n in range(top, top + 41):
        assert K.bell_seq_mod(n, m) == want[:n + 1], n


# The power-series tables against their O(p^2) triangles and recurrences.
# The Bell row runs to Bell_{p+6}, one past the record's Bell_{p+5}: past
# p-1 it leaves the series for the binomial recurrence, which is what the
# Touchard checks C03 and C04 read.

_SERIES = {
    "bernoulli": (lambda p: K.bernoulli_table_mod(p, _facts(p)), bernoulli_table_mod_py),
    "gregory": (lambda p: K.gregory_table_mod(p, _facts(p)), gregory_table_mod_py),
    "stirling": (lambda p: K.stirling2_row_mod(p, p),
                 lambda p: K.stirling2_row_mod_py(p, p)),
    "bell": (lambda p: K.bell_seq_mod(p + 6, p),
             lambda p: bell_seq_mod_py(p + 6, p)),
}


@pytest.mark.parametrize("name", sorted(_SERIES))
def test_series_table_matches_oracle_small_primes(name):
    series, oracle = _SERIES[name]
    for p in sieve_primes(2, 600):
        assert series(p) == oracle(p), p


@pytest.mark.parametrize("name", sorted(_SERIES))
def test_series_table_matches_oracle_seeded_primes(name):
    series, oracle = _SERIES[name]
    for p in random.Random(20261018).sample(sieve_primes(2000, 4000), 2):
        assert series(p) == oracle(p), p


# The Bell row at a prime modulus comes from one chirp product; at p^2 it
# comes from the divide-and-conquer solve, which shares no code with it.

def _bell_rows_agree(p: int, ns) -> None:
    kept = K.bell_seq_mod(max(ns), p * p)
    for n in ns:
        assert K.bell_seq_mod(n, p) == [b % p for b in kept[:n + 1]], (p, n)


def test_bell_row_chirp_matches_kept_route_small_primes():
    # the least primitive root is not 2 at 7, 23, 41, 71 and 191
    assert [K._primitive_root(p) for p in (7, 23, 41, 71, 191)] == [3, 5, 6, 7, 19]
    for p in sieve_primes(2, 600):
        for n in (p - 1, p + 6):
            _bell_rows_agree(p, [n])


def test_bell_row_chirp_matches_kept_route_seeded_large_primes():
    for p in random.Random(20261018).sample(sieve_primes(20_000, 50_000), 3):
        _bell_rows_agree(p, [p - 1, p + 6])


def test_primitive_root_against_brute_force_order():
    def order(g: int, p: int) -> int:
        k, x = 1, g % p
        while x != 1:
            k, x = k + 1, x * g % p
        return k

    for p in sieve_primes(3, 2000):
        g = K._primitive_root(p)
        assert order(g, p) == p - 1, p
        assert all(order(h, p) < p - 1 for h in range(1, g)), p


def test_bernoulli_table_matches_exact_at_seeded_large_primes():
    # p > 257 divides no denominator of B_k, k <= 256 (von Staudt-Clausen)
    for p in random.Random(20261020).sample(sieve_primes(20_000, 50_000), 3):
        table = K.bernoulli_table_mod(p, _facts(p))
        assert len(table) == p - 1
        for k in range(257):
            assert table[k] == int(fraction_residue(exact.bernoulli_exact(k), p)), (p, k)


@pytest.mark.parametrize("m", [12, 49, 101 * 101])
def test_bell_and_stirling_rows_at_composite_moduli(m):
    # the series covers the indices whose factorials are units mod m; the
    # rest come from the binomial recurrence (Bell) or the triangle (Stirling)
    assert K.bell_seq_mod(120, m) == bell_seq_mod_py(120, m)
    for n in range(110):
        assert K.stirling2_row_mod(n, m) == K.stirling2_row_mod_py(n, m), n


def test_bell_and_stirling_rows_mod_p_squared_at_the_unit_boundary():
    p = 563
    m = p * p
    assert K.bell_seq_mod(p + 6, m) == bell_seq_mod_py(p + 6, m)
    for n in (p - 1, p, p + 1):
        assert K.stirling2_row_mod(n, m) == K.stirling2_row_mod_py(n, m), n


# Where Fermat's theorem makes the powers constant, the Stirling row S(p, .)
# mod p (j^p = j) and Bell_{p-1} mod p (j^(p-1) = 1) build no power table.
# Wilson's congruence, not Fermat's, gates both branches: at a composite
# m = n + 1, Carmichael numbers included, Bell_n mod m keeps its old route.

def test_fermat_routes_build_no_power_table(monkeypatch):
    monkeypatch.setattr(K, "_powers", _not_called)
    rng = random.Random(20261022)
    for p in [2, *sieve_primes(3, 600), *sorted(rng.sample(sieve_primes(601, 3040), 2))]:
        row = K.stirling2_row_mod_py(p, p)
        assert K.stirling2_row_mod(p, p) == row, p
        assert K.stirling2_row_mod(p, p, _facts(p)) == row, p
        want = bell_seq_mod_py(p - 1, p)[p - 1]
        assert K.bell_mod(p - 1, p) == want, p
        assert K.bell_mod(p - 1, p, p - 1) == want, p


@pytest.mark.parametrize("m", [4, 6, 9, 25, 561, 1105])
def test_wilson_gates_the_fermat_routes_at_composites(monkeypatch, m):
    if m > 25:  # Carmichael: a Fermat test would take the branch here
        assert all(pow(j, m - 1, m) == 1 for j in range(1, m) if math.gcd(j, m) == 1)
    rows, bell_seq = [], K.bell_seq_mod
    monkeypatch.setattr(K, "bell_seq_mod",
                        lambda n, mod, facts=None: rows.append(n) or bell_seq(n, mod, facts))
    want = bell_seq_mod_py(m, m)
    assert K.bell_mod(m - 1, m) == want[m - 1]
    assert K.bell_mod(m - 1, m, math.factorial(m - 1) % m) == want[m - 1]
    assert rows == [m - 1, m - 1]  # the Bell row, past the last unit index
    # the row S(m, .) comes from the triangle, and sum_k S(m, k) = Bell_m
    row = K.stirling2_row_mod(m, m)
    assert row == K.stirling2_row_mod_py(m, m)
    assert sum(row) % m == want[m]


def test_series_tables_satisfy_congruences_at_large_prime():
    # beyond the triangles' reach: the proved congruences against W_p and
    # !p from the block kernel and q_p(2) from pow
    p = random.Random(20261019).choice(sieve_primes(20_000, 50_000))
    fs, ks = K._factorial_columns([p], 2)
    w = K.wilson_quotient(p, fs[0]) % p
    q2 = (pow(2, p - 1, p * p) - 1) // p
    facts = _facts(p)  # one pair for all four tables, as in the record
    inv = inverse_table(p)
    bern = K.bernoulli_table_mod(p, facts)
    t = [bern[k] * inv[k] % p for k in range(1, p - 1)]  # B_k/k, k = 1..p-2
    alternating = (1 + sum(x if k % 2 == 0 else -x for k, x in enumerate(t, 1))) % p
    plain = (1 + sum(t)) % p
    even = sum(t[1::2]) % p
    assert (alternating, plain, even) == ((w + 2) % p, (w + 1) % p, (w + inv[2]) % p)
    greg = K.gregory_table_mod(p, facts)
    # |G_n| = (-1)^(n-1) G_n
    s = sum(greg[n] * inv[n] * (1 if n % 2 else -1) for n in range(1, p - 1))
    assert s % p == (w + 2 * q2 - 1) % p
    row = K.stirling2_row_mod(p, p, facts)
    assert len(row) == p + 1 and row[:2] == [0, 1] and row[p] == 1
    assert not any(row[2:p])
    bell = K.bell_seq_mod(p - 1, p, facts)
    assert len(bell) == p
    assert bell[-1] == (ks[0] + 1) % p == K.bell_mod(p - 1, p)


# ---------------------------------------------------------------------------
# The Fermat quotient: one helper behind every production q_p

def test_fermat_quotient_matches_exact():
    for p in [2] + sieve_primes(3, 300):
        for a in range(1, 41):
            if a % p:
                for e in (1, 2):
                    assert (K.fermat_quotient(p, a, e)
                            == exact.fermat_quotient_exact(a, p) % p ** e), (p, a, e)


@pytest.mark.parametrize("n, a", [(15, 2), (21, 5)])
def test_fermat_quotient_rejects_non_pseudoprime(n, a):
    # 2^14 = 4 (mod 15) and 5^20 = 4 (mod 21)
    with pytest.raises(InvariantViolation):
        K.fermat_quotient(n, a)


def test_every_production_fermat_quotient_reads_the_helper(monkeypatch):
    real = K.fermat_quotient
    calls = []
    monkeypatch.setattr(K, "fermat_quotient", lambda *a: calls.append(a) or real(*a))

    def count(run) -> int:
        calls.clear()
        run()
        return len(calls)

    assert count(lambda: R.PrimeContext(101).q(2)) == 1
    assert count(lambda: R.fermat_quotient_mod(101, 3, 2)) == 1
    primes = sieve_primes(3, 200)
    assert count(lambda: search.run_campaign("wieferich", 3, 200)) == len(primes)
    assert count(lambda: search.run_campaign("mirimanoff", 3, 200)) == len(primes) - 1
    assert (count(lambda: search.run_campaign("qpm_zero", 3, 200))
            == sum(m % p != 0 for p in primes for m in range(2, 21)))
    # every window prime but 3, the one dividing 3 * 2
    assert (count(lambda: A.log_A(Fraction(3, 2), PrimeRange(3, 50)))
            == len(sieve_primes(5, 50)))
